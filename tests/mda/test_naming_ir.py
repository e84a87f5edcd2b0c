"""Unit tests for naming rules and the action IR."""

import pytest

from repro.exec.ir import walk_ir_statements
from repro.mda import c_ident, c_macro, ir_op_counts, lower_block, snake_case, vhdl_ident
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
        assert ir[0] == ["assign_var", "x", ["int", 1]]
        assert ir[1] == ["assign_attr", ["self"], "n", ["int", 2]]

    def test_enum_literal_carries_code(self):
        ir = lower("self.mode = Mode::ON;")
        assert ir[0][3] == ["enum", "Mode", "ON", 1]

    def test_generate_resolves_receiver_class(self):
        ir = lower("generate GO(a: 1) to self;")
        assert ir[0][0] == "generate"
        assert ir[0][2] == "L"          # class resolved by the analyzer

    def test_param_reference(self):
        ir = lower("x = param.a;")
        assert ir[0][2] == ["param", "a"]

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

    def test_op_counts(self):
        ir = lower("x = 1; y = 2; if (param.a > 0) z = 3; end if;")
        counts = ir_op_counts(ir)
        assert counts == {"assign_var": 3, "if": 1}

    def test_ir_is_jsonable(self):
        import json
        ir = lower('x = 1; generate GO(a: x) to self delay 5;')
        assert json.loads(json.dumps(ir)) == ir
