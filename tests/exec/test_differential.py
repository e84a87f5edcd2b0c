"""Differential evidence that the unified core changed nothing observable.

Two families:

* **Arithmetic differential** — property-style: the abstract runtime,
  the C architecture simulator and the VHDL architecture simulator are
  handed the same model and the same operands and must agree on every
  C-semantics edge case (negative-operand division/modulo truncation,
  empty-set cardinality, enum comparisons).  Before the refactor these
  were three hand-synchronized implementations; now agreement is by
  construction, and this test is the tripwire that keeps it that way.

* **Old-vs-new trace sweep** — every catalog model x its golden verify
  suite, executed once through the pinned pre-refactor AST tree-walker
  (:mod:`tests.exec.pinned_ast_interpreter`) and once through the live
  IR path, must produce **byte-identical** exported traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marks.partition import marks_for_partition
from repro.mda.archrt import ArchError
from repro.mda.compiler import ModelCompiler
from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.models import build_model
from repro.models.catalog import CATALOG
from repro.obs import dump_jsonl
from repro.oal.errors import OALRuntimeError
from repro.runtime import Simulation
from repro.verify import run_case, suite_for
from repro.xuml import ModelBuilder

from .pinned_ast_interpreter import PinnedAstSimulation


def build_arith_model():
    """One class whose activity exercises the shared value semantics."""
    builder = ModelBuilder("M")
    component = builder.component("c")
    component.enum("Mode", ["OFF", "ON", "AUTO"])
    arith = component.klass("Arith", "AR")
    arith.attr("ar_id", "unique_id")
    arith.attr("q", "integer")
    arith.attr("r", "integer")
    arith.attr("card", "integer")
    arith.attr("enum_eq", "boolean")
    arith.attr("tag", "integer", default=0)
    arith.event("GO", params=[("a", "integer"), ("b", "integer")])
    arith.state("Idle", 1)
    arith.state("Ran", 2, activity="""
        self.q = param.a / param.b;
        self.r = param.a % param.b;
        select many nothing from instances of AR
            where (selected.tag == 1);
        self.card = cardinality nothing;
        m = Mode::AUTO;
        self.enum_eq = (m == Mode::AUTO) and (m != Mode::OFF);
    """)
    arith.trans("Idle", "GO", "Ran")
    return builder.build()


ARITH_MODEL = build_arith_model()
_COMPONENT = ARITH_MODEL.components[0]
_SW_BUILD = ModelCompiler(ARITH_MODEL).compile(
    marks_for_partition(_COMPONENT, ()))
_HW_BUILD = ModelCompiler(ARITH_MODEL).compile(
    marks_for_partition(_COMPONENT, tuple(_COMPONENT.class_keys)))


def _observe(engine, a: int, b: int) -> tuple:
    handle = engine.create_instance("AR", ar_id=1)
    engine.inject(handle, "GO", {"a": a, "b": b})
    engine.run_to_quiescence()
    return (
        engine.read_attribute(handle, "q"),
        engine.read_attribute(handle, "r"),
        engine.read_attribute(handle, "card"),
        engine.read_attribute(handle, "enum_eq"),
    )


class TestArithmeticDifferential:
    @settings(deadline=None, max_examples=40)
    @given(a=st.integers(-1_000_000, 1_000_000),
           b=st.integers(-1_000_000, 1_000_000).filter(lambda v: v != 0))
    def test_three_executors_agree(self, a, b):
        abstract = _observe(Simulation(ARITH_MODEL), a, b)
        csim = _observe(CSoftwareMachine(_SW_BUILD.manifest), a, b)
        vsim = _observe(VHardwareMachine(_HW_BUILD.manifest, 100), a, b)
        assert abstract == csim == vsim

    def test_truncation_edge_cases(self):
        for a, b in [(-7, 2), (7, -2), (-7, -2), (-1, 3), (1, -3), (-9, -9)]:
            abstract = _observe(Simulation(ARITH_MODEL), a, b)
            csim = _observe(CSoftwareMachine(_SW_BUILD.manifest), a, b)
            vsim = _observe(VHardwareMachine(_HW_BUILD.manifest, 100), a, b)
            assert abstract == csim == vsim, (a, b)
            # C semantics, stated directly: truncation toward zero,
            # remainder sign follows the dividend
            quotient, remainder, card, enum_eq = abstract
            assert quotient == int(a / b)
            assert remainder == a - int(a / b) * b
            assert card == 0
            assert enum_eq is True

    def test_empty_set_cardinality_is_zero(self):
        result = _observe(Simulation(ARITH_MODEL), 10, 3)
        assert result[2] == 0

    @pytest.mark.parametrize("make, error", [
        (lambda: Simulation(ARITH_MODEL), OALRuntimeError),
        (lambda: CSoftwareMachine(_SW_BUILD.manifest), ArchError),
        (lambda: VHardwareMachine(_HW_BUILD.manifest, 100), ArchError),
    ], ids=["abstract", "csim", "vsim"])
    def test_integer_division_by_zero_is_the_host_dialect(self, make, error):
        # the co-sim contains only ArchError, so an architecture host
        # must not leak the abstract runtime's OALRuntimeError
        with pytest.raises(Exception) as raised:
            _observe(make(), 7, 0)
        assert type(raised.value) is error
        assert str(raised.value) == "integer division by zero"


class TestOldVsNewTraceSweep:
    """Every catalog model x golden suite: pinned AST path == IR path."""

    def test_traces_are_byte_identical(self):
        swept = 0
        for entry in CATALOG:
            for case in suite_for(entry.name):
                pinned = PinnedAstSimulation(build_model(entry.name))
                live = Simulation(build_model(entry.name))
                pinned_result = run_case(case, pinned)
                live_result = run_case(case, live)
                assert live_result.error == pinned_result.error, \
                    (entry.name, case.name)
                assert ([f.message for f in live_result.failures]
                        == [f.message for f in pinned_result.failures]), \
                    (entry.name, case.name)
                assert dump_jsonl(live.trace) == dump_jsonl(pinned.trace), \
                    (entry.name, case.name)
                swept += 1
        assert swept >= 20   # the catalog's suites are non-trivial

    def test_pinned_oracle_actually_uses_the_old_walker(self):
        sim = PinnedAstSimulation(build_model("checksum"))
        assert "pinned AST tree-walker" in sim.execution_core
        # dispatch must reach the oracle's _run_state_activity hook: the
        # case runs, yet the shared IR evaluator executes nothing
        case = suite_for("checksum")[0]
        run_case(case, sim)
        live = Simulation(build_model("checksum"))
        run_case(case, live)
        assert len(sim.trace) > 0
        assert sim.ops_executed == 0
        assert live.ops_executed > 0
