"""Interpreter semantics exercised through small purpose-built models."""

import pytest

from repro.mda import CSoftwareMachine, build_manifest
from repro.runtime import SelectionError, Simulation, TraceKind
from repro.xuml import ModelBuilder


def build_lab(activity: str, extra=None):
    """A model whose single transition runs *activity* on a Lab instance."""
    builder = ModelBuilder("M")
    component = builder.component("c")
    component.enum("Mode", ["OFF", "ON", "AUTO"])
    component.ext("LOG").bridge("info", params=[("message", "string")])

    lab = component.klass("Lab", "L")
    lab.attr("l_id", "unique_id")
    lab.attr("n", "integer")
    lab.attr("x", "real")
    lab.attr("s", "string")
    lab.attr("flag", "boolean")
    lab.attr("mode", "Mode")
    lab.event("GO", params=[("a", "integer")])
    lab.state("Idle", 1)
    lab.state("Ran", 2, activity=activity)
    lab.trans("Idle", "GO", "Ran")

    item = component.klass("Item", "IT")
    item.attr("it_id", "unique_id")
    item.attr("rank", "integer")
    component.assoc("R1", ("L", "collects", "0..1"),
                    ("IT", "is collected by", "*"))
    if extra is not None:
        extra(component)
    return builder.build()


def run_lab(activity: str, a: int = 0, items: int = 0, extra=None):
    sim = Simulation(build_lab(activity, extra))
    lab = sim.create_instance("L", l_id=1)
    for index in range(items):
        item = sim.create_instance("IT", it_id=index + 1, rank=index)
        sim.relate(lab, item, "R1")
    sim.inject(lab, "GO", {"a": a})
    sim.run_to_quiescence()
    return sim, lab


class TestExpressions:
    def test_integer_division_is_c_style(self):
        sim, lab = run_lab("self.n = (0 - 7) / 2;")
        assert sim.read_attribute(lab, "n") == -3

    def test_modulo_is_c_style(self):
        sim, lab = run_lab("self.n = (0 - 7) % 2;")
        assert sim.read_attribute(lab, "n") == -1

    def test_real_division(self):
        sim, lab = run_lab("self.x = 7 / 2.0;")
        assert sim.read_attribute(lab, "x") == 3.5

    def test_short_circuit_and(self):
        # `1/0` would raise; short-circuit must skip it
        sim, lab = run_lab("""
            if (false and (1 / 0 == 1))
                self.n = 1;
            else
                self.n = 2;
            end if;
        """)
        assert sim.read_attribute(lab, "n") == 2

    def test_short_circuit_or(self):
        sim, lab = run_lab("""
            if (true or (1 / 0 == 1))
                self.n = 1;
            end if;
        """)
        assert sim.read_attribute(lab, "n") == 1

    def test_enum_values_compare(self):
        sim, lab = run_lab("""
            self.mode = Mode::AUTO;
            if (self.mode == Mode::AUTO)
                self.n = 7;
            end if;
        """)
        assert sim.read_attribute(lab, "n") == 7

    def test_string_concatenation(self):
        sim, lab = run_lab('self.s = "ab" + "cd";')
        assert sim.read_attribute(lab, "s") == "abcd"

    def test_param_access(self):
        sim, lab = run_lab("self.n = param.a * 3;", a=4)
        assert sim.read_attribute(lab, "n") == 12


class TestSelectsAndSets:
    def test_select_many_collects_all(self):
        sim, lab = run_lab("""
            select many all_items from instances of IT;
            self.n = cardinality all_items;
        """, items=4)
        assert sim.read_attribute(lab, "n") == 4

    def test_select_any_on_empty_extent_gives_empty_ref(self):
        sim, lab = run_lab("""
            select any it from instances of IT;
            if (empty it)
                self.n = 1;
            end if;
        """)
        assert sim.read_attribute(lab, "n") == 1

    def test_where_filters(self):
        sim, lab = run_lab("""
            select many big from instances of IT
                where (selected.rank >= 2);
            self.n = cardinality big;
        """, items=5)
        assert sim.read_attribute(lab, "n") == 3

    def test_navigation_with_where(self):
        sim, lab = run_lab("""
            select many mine related by self->IT[R1]
                where (selected.rank == 1);
            self.n = cardinality mine;
        """, items=3)
        assert sim.read_attribute(lab, "n") == 1

    def test_select_one_multiple_matches_raises(self):
        activity = "select one it related by self->IT[R1];"
        sim = Simulation(build_lab(activity))
        lab = sim.create_instance("L", l_id=1)
        for index in range(2):
            item = sim.create_instance("IT", it_id=index + 1)
            sim.relate(lab, item, "R1")
        sim.inject(lab, "GO", {"a": 0})
        with pytest.raises(SelectionError):
            sim.run_to_quiescence()

    def test_foreach_with_break_and_continue(self):
        sim, lab = run_lab("""
            select many all_items from instances of IT;
            total = 0;
            for each it in all_items
                if (it.rank == 1)
                    continue;
                end if;
                if (it.rank == 3)
                    break;
                end if;
                total = total + 1;
            end for;
            self.n = total;
        """, items=5)
        assert sim.read_attribute(lab, "n") == 2   # ranks 0 and 2

    def test_create_and_delete_in_activity(self):
        sim, lab = run_lab("""
            create object instance fresh of IT;
            fresh.rank = 99;
            select many all_items from instances of IT;
            self.n = cardinality all_items;
            delete object instance fresh;
        """)
        assert sim.read_attribute(lab, "n") == 1
        assert sim.instances_of("IT") == ()

    def test_relate_unrelate_in_activity(self):
        sim, lab = run_lab("""
            create object instance fresh of IT;
            relate self to fresh across R1;
            select many mine related by self->IT[R1];
            self.n = cardinality mine;
            unrelate self from fresh across R1;
            select many after related by self->IT[R1];
            self.n = self.n * 10 + cardinality after;
        """)
        assert sim.read_attribute(lab, "n") == 10


class TestLoops:
    def test_while_loop(self):
        sim, lab = run_lab("""
            i = 0;
            acc = 0;
            while (i < 10)
                acc = acc + i;
                i = i + 1;
            end while;
            self.n = acc;
        """)
        assert sim.read_attribute(lab, "n") == 45

    def test_runaway_loop_bounded(self):
        activity = """
            i = 0;
            while (i < 1)
                self.n = self.n + 1;
            end while;
        """
        sim = Simulation(build_lab(activity))
        sim.loop_bound = 100
        lab = sim.create_instance("L", l_id=1)
        sim.inject(lab, "GO", {"a": 0})
        from repro.oal.errors import OALRuntimeError
        with pytest.raises(OALRuntimeError):
            sim.run_to_quiescence()


class TestBridgesAndOperations:
    def test_log_bridge_records(self):
        sim, lab = run_lab('LOG::info(message: "hello");')
        assert [(event.time, event.data["message"])
                for event in sim.trace.of_kind(TraceKind.LOG)] == [(0, "hello")]

    @pytest.mark.parametrize("executor", [
        Simulation,
        lambda model: CSoftwareMachine(
            build_manifest(model, model.components[0])),
    ], ids=["abstract", "csim"])
    def test_custom_bridge_registration(self, executor):
        def extra(component):
            component.ext("HW").bridge(
                "read_reg", params=[("addr", "integer")], returns="integer")

        activity = "self.n = HW::read_reg(addr: 16);"
        sim = executor(build_lab(activity, extra))
        sim.bridges["HW", "read_reg"] = (
            lambda executor, self_handle, addr: addr * 2)
        lab = sim.create_instance("L", l_id=1)
        sim.inject(lab, "GO", {"a": 0})
        sim.run_to_quiescence()
        assert sim.read_attribute(lab, "n") == 32

    def test_instance_operation_return_value(self):
        def extra(component):
            pass

        builder = ModelBuilder("M")
        component = builder.component("c")
        calc = component.klass("Calc", "CC")
        calc.attr("cc_id", "unique_id")
        calc.attr("out", "integer")
        calc.operation("square", body="return param.v * param.v;",
                       returns="integer", params=[("v", "integer")])
        calc.event("GO")
        calc.state("Idle", 1)
        calc.state("Ran", 2, activity="self.out = self.square(v: 9);")
        calc.trans("Idle", "GO", "Ran")
        model = builder.build()
        sim = Simulation(model)
        calc_inst = sim.create_instance("CC", cc_id=1)
        sim.inject(calc_inst, "GO")
        sim.run_to_quiescence()
        assert sim.read_attribute(calc_inst, "out") == 81

    def test_derived_attribute_reads_compute(self):
        builder = ModelBuilder("M")
        component = builder.component("c")
        box = component.klass("Box", "BX")
        box.attr("bx_id", "unique_id")
        box.attr("w", "integer", default=3)
        box.attr("h", "integer", default=4)
        box.attr("area", "integer", derived="self.w * self.h")
        model = builder.build()
        sim = Simulation(model)
        handle = sim.create_instance("BX", bx_id=1)
        assert sim.read_attribute(handle, "area") == 12
        sim.write_attribute(handle, "w", 10)
        assert sim.read_attribute(handle, "area") == 40
