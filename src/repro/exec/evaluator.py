"""The one IR evaluator — every executor runs actions through this.

:class:`IRExecutor` runs the lowered action IR of :mod:`.ir` against a
*host*: the object that owns instances, links, signals and
bridges.  The host is an argument of each :meth:`IRExecutor.run`, not a
member, so a host that holds its executor is no reference cycle: a
finished run is freed by reference count, not by the cyclic collector.
The abstract runtime (:class:`repro.runtime.Simulation`), the
generated-architecture simulators (:class:`repro.mda.TargetMachine` and
its csim/vsim/cosim subclasses) and ad-hoc test harnesses are all hosts;
none of them contains action semantics of its own anymore.  OAL action
semantics exist in exactly one place — here — so "the three executors
disagree on what an action means" is a bug that can no longer be
written.

The host is duck-typed; the surface the evaluator calls is:

* population — ``create_instance(class_key)``, ``delete_instance(h)``,
  ``instances_of(class_key)``
* attributes — ``read_attribute(h, name)``, ``write_attribute(h, name, v)``
* links — ``relate(l, r, rnum, phrase)``, ``unrelate(...)``,
  ``navigate(h, rnum, class_key, phrase)``, which returns a tuple of
  handles that is sorted and holds each handle once (a one-hop select
  uses it as is)
* signals — ``send_signal(target, class_key, label, params, sender,
  delay)``, ``send_creation(class_key, label, params, sender, delay)``,
  sender and delay passed by position
* calls — ``call_bridge(self_handle, entity, op, kwargs)`` (the executors'
  shared ``Dispatcher`` serves it from their ``bridges`` table),
  ``call_class_operation(class_key, op, kwargs)``,
  ``call_instance_operation(h, op, kwargs)``
* policy — ``loop_bound`` (read each time a loop is entered, so a host
  may tighten it after construction)

Failure types are the host's dialect: the abstract runtime reports
``OALRuntimeError``/``SelectionError``, the architecture runtime reports
``ArchError``.  The evaluator takes both constructors at creation time
so the *meaning* of a failure is shared while its type stays layer-local.

Evaluation has one path: :meth:`IRExecutor.run` compiles each block to a
Python function on its first run (:mod:`.codegen`) and calls it from
then on.  The dict-dispatch tree-walker this replaced is pinned under
``tests/exec/pinned_ir_interpreter.py`` as the differential oracle.
"""

from __future__ import annotations

from repro.oal.errors import OALRuntimeError

from .codegen import _by_identity, compiled

#: Name `repro check` and diagnostics print for the unified core.
CORE_NAME = "repro.exec"


class IRExecutor:
    """Executes lowered action IR against a host (see module docstring).

    One executor is created per host and reused for every activity,
    operation and derived-attribute body; each :meth:`run` calls the
    block's compiled function with fresh locals, so reentrant calls (an
    operation invoked from an activity) nest safely.  ``ops_executed``
    counts dynamically executed IR statements across all runs — the
    architecture cost model's raw material.
    """

    __slots__ = ("ops_executed", "_error", "_selection_error")

    def __init__(self, error=OALRuntimeError, selection_error=None):
        self.ops_executed = 0
        self._error = error
        self._selection_error = selection_error or error

    def run(self, host, block: list, self_handle, params):
        """Execute one IR block against *host*; returns its ``return``."""
        # compiled()'s identity memo, read in place: a hit makes no call
        entry = _by_identity.get(id(block))
        if entry is not None and entry[0] is block:
            return entry[1](self, host, self_handle, params)
        try:
            function = compiled(block)
        except (SyntaxError, RecursionError, MemoryError):
            # CPython caps statically nested blocks (20) and parser depth
            raise self._error(
                "action block too deeply nested to compile") from None
        return function(self, host, self_handle, params)
