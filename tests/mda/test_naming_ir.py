"""Unit tests for naming rules and the action IR."""

import pytest

from repro.exec.ir import walk_ir_statements
from repro.mda import c_ident, c_macro, lower_block, snake_case, vhdl_ident
from repro.oal import analyze_activity, parse_activity
from repro.xuml import CoreType, ModelBuilder


class TestNaming:
    @pytest.mark.parametrize("name,expected", [
        ("MicrowaveOven", "microwave_oven"),
        ("CryptoEngine", "crypto_engine"),
        ("DMAEngine", "dma_engine"),
        ("already_snake", "already_snake"),
        ("MO", "mo"),
    ])
    def test_snake_case(self, name, expected):
        assert snake_case(name) == expected

    def test_c_reserved_words_mangled(self):
        assert c_ident("switch") == "switch_"
        assert c_ident("Case") == "case_"

    def test_vhdl_reserved_words_mangled(self):
        assert vhdl_ident("signal") == "signal_v"
        assert vhdl_ident("Entity") == "entity_v"

    def test_c_macro_upper_snake(self):
        assert c_macro("MicrowaveOven") == "MICROWAVE_OVEN"


def lab_context():
    builder = ModelBuilder("M")
    component = builder.component("c")
    component.enum("Mode", ["OFF", "ON"])
    lab = component.klass("Lab", "L")
    lab.attr("l_id", "unique_id")
    lab.attr("n", "integer")
    lab.attr("mode", "Mode")
    lab.event("GO", params=[("a", "integer")])
    lab.state("Idle", 1)
    lab.state("Ran", 2)
    lab.trans("Idle", "GO", "Ran")
    model = builder.build(check=False)
    return model, model.component("c"), model.resolve_class("c.L")


def lower(text):
    model, component, klass = lab_context()
    state = klass.statemachine.state("Ran")
    block = parse_activity(text)
    analysis = analyze_activity(block, model, component, klass, state)
    return lower_block(block, analysis, component)


class TestLowering:
    def test_assignment_forms(self):
        ir = lower("x = 1; self.n = 2;")
        assert ir[0] == ["assign_var", "x", ["int", 1, "integer"]]
        assert ir[1] == ["assign_attr", ["self", "inst_ref:L"], "n",
                         ["int", 2, "integer"]]

    def test_enum_literal_carries_code(self):
        ir = lower("self.mode = Mode::ON;")
        assert ir[0][3] == ["enum", "Mode", "ON", 1, "enum:Mode"]

    def test_generate_resolves_receiver_class(self):
        ir = lower("generate GO(a: 1) to self;")
        assert ir[0][0] == "generate"
        assert ir[0][2] == "L"          # class resolved by the analyzer

    def test_param_reference(self):
        ir = lower("x = param.a;")
        assert ir[0][2] == ["param", "a", "integer"]

    def test_every_expression_ends_with_its_analyzed_type(self):
        ir = lower("""
            select many labs from instances of L where (selected.n > 1);
            r = 0.5 + param.a;
            generate GO(a: cardinality labs) to self;
        """)
        where = ir[0][4]
        assert where[-1] == "boolean"
        assert where[2] == ["attr", ["selected", "inst_ref:L"], "n", "integer"]
        assert ir[1][2][-1] == "real"
        args, target = ir[2][3], ir[2][4]
        assert args == [["a", ["un", "cardinality",
                               ["var", "labs", "inst_ref_set:L"], "integer"]]]
        assert target == ["self", "inst_ref:L"]

    def test_control_flow_nesting(self):
        ir = lower("""
            if (param.a > 0)
                while (param.a > 1)
                    x = 1;
                end while;
            else
                y = 2;
            end if;
        """)
        tags = [stmt[0] for stmt in walk_ir_statements(ir)]
        assert tags == ["if", "while", "assign_var", "assign_var"]

    def test_ir_is_jsonable(self):
        import json
        ir = lower('x = 1; generate GO(a: x) to self delay 5;')
        assert json.loads(json.dumps(ir)) == ir
