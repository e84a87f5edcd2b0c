"""The execution core — one lowered action IR, one evaluator.

The paper's central claim (§4) is consistency by construction: generate
both sides of every interface from one specification and they cannot
diverge.  This package applies the same principle to the toolchain
itself.  OAL action semantics used to be implemented three times — an
AST tree-walker in the abstract runtime, an IR evaluator in the
target-architecture runtime, and a private AST walk in the signal-flow
analyzer — kept identical only by discipline.  Now there is one lowered
form (:mod:`.ir`), one evaluator (:mod:`.evaluator`) with one evaluation
path — each block compiled to a Python function on its first run
(:mod:`.codegen`) — one definition of C value semantics
(:mod:`.cvalues`), and a content-addressed lowering cache (:mod:`.cache`)
so the lowering is paid once per model, not once per executor.

* :func:`lower_block` — AST → action IR (the only lowering)
* :class:`IRExecutor` — the only action evaluator; abstract runtime,
  csim, vsim and the co-sim engine all execute through it, and it runs
  every block as compiled Python (the dict-dispatch walker it replaced
  is pinned under ``tests/exec/`` as an oracle)
* :func:`lower_component` — fingerprint-keyed lowering cache;
  :func:`clear_lowering_cache` also drops the compiled blocks
* :func:`c_div` / :func:`c_mod` — C integer semantics, imported by both
  the runtime and mda layers (the dependency no longer points upward)
"""

from .cache import (
    LoweredComponent,
    clear_lowering_cache,
    lower_component,
    lowering_cache_stats,
)
from .cvalues import as_instance_set, c_div, c_mod
from .evaluator import CORE_NAME, IRExecutor
from .ir import (
    lower_block,
    walk_ir_generates,
    walk_ir_statements,
)

__all__ = [
    "CORE_NAME",
    "IRExecutor",
    "LoweredComponent",
    "as_instance_set",
    "c_div",
    "c_mod",
    "clear_lowering_cache",
    "lower_block",
    "lower_component",
    "lowering_cache_stats",
    "walk_ir_generates",
    "walk_ir_statements",
]
