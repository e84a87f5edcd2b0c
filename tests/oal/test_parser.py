"""Unit tests for the OAL parser."""

import pytest

from repro.oal import ast, parse_activity, parse_expression
from repro.oal.errors import OALSyntaxError


def only_stmt(text):
    block = parse_activity(text)
    assert len(block.statements) == 1
    return block.statements[0]


class TestAssignments:
    def test_local_assignment(self):
        stmt = only_stmt("x = 1;")
        assert isinstance(stmt, ast.Assign)
        assert isinstance(stmt.target, ast.NameRef)
        assert stmt.target.name == "x"

    def test_self_attribute_assignment(self):
        stmt = only_stmt("self.count = 2;")
        assert isinstance(stmt.target, ast.AttrAccess)
        assert isinstance(stmt.target.target, ast.SelfRef)
        assert stmt.target.attribute == "count"

    def test_variable_attribute_assignment(self):
        stmt = only_stmt("rec.bytes = 5;")
        assert isinstance(stmt.target, ast.AttrAccess)
        assert stmt.target.target.name == "rec"

    def test_missing_semicolon_rejected(self):
        with pytest.raises(OALSyntaxError):
            parse_activity("x = 1")


class TestInstanceStatements:
    def test_create(self):
        stmt = only_stmt("create object instance call of CA;")
        assert isinstance(stmt, ast.CreateInstance)
        assert stmt.variable == "call"
        assert stmt.class_key == "CA"

    def test_delete(self):
        stmt = only_stmt("delete object instance call;")
        assert isinstance(stmt, ast.DeleteInstance)

    def test_select_any_extent(self):
        stmt = only_stmt("select any w from instances of W;")
        assert isinstance(stmt, ast.SelectFromInstances)
        assert not stmt.many
        assert stmt.where is None

    def test_select_many_extent_with_where(self):
        stmt = only_stmt(
            "select many ws from instances of W where (selected.n > 3);")
        assert stmt.many
        assert isinstance(stmt.where, ast.Binary)

    def test_select_one_related(self):
        stmt = only_stmt("select one tube related by self->PT[R1];")
        assert isinstance(stmt, ast.SelectRelated)
        assert not stmt.many
        assert stmt.hops[0].class_key == "PT"
        assert stmt.hops[0].association == "R1"

    def test_select_related_chain_with_phrase(self):
        stmt = only_stmt(
            "select many rs related by x->A[R1]->B[R2.'owns'];")
        assert len(stmt.hops) == 2
        assert stmt.hops[1].phrase == "owns"

    def test_select_one_requires_related_by(self):
        with pytest.raises(OALSyntaxError):
            parse_activity("select one w from instances of W;")

    def test_relate_and_unrelate(self):
        relate = only_stmt("relate a to b across R3;")
        assert isinstance(relate, ast.Relate)
        unrelate = only_stmt("unrelate a from b across R3.'queues';")
        assert isinstance(unrelate, ast.Unrelate)
        assert unrelate.phrase == "queues"


class TestGenerate:
    def test_generate_with_args_to_instance(self):
        stmt = only_stmt("generate EV1:KL(x: 1, y: 2) to target;")
        assert isinstance(stmt, ast.Generate)
        assert stmt.class_key == "KL"
        assert [name for name, _v in stmt.arguments] == ["x", "y"]

    def test_generate_to_self(self):
        stmt = only_stmt("generate EV1:KL() to self;")
        assert isinstance(stmt.target, ast.SelfRef)

    def test_generate_without_class_scope(self):
        stmt = only_stmt("generate EV1 to peer;")
        assert stmt.class_key is None

    def test_generate_with_delay(self):
        stmt = only_stmt("generate EV1:KL() to self delay 1000;")
        assert isinstance(stmt.delay, ast.IntLit)

    def test_creation_generate_has_no_target(self):
        stmt = only_stmt("generate J0:J(job_id: 1);")
        assert stmt.target is None


class TestControlFlow:
    def test_if_elif_else(self):
        stmt = only_stmt("""
            if (a > 1)
                x = 1;
            elif (a > 0)
                x = 2;
            else
                x = 3;
            end if;
        """)
        assert isinstance(stmt, ast.If)
        assert len(stmt.branches) == 2
        assert stmt.orelse is not None

    def test_while_with_break_continue(self):
        stmt = only_stmt("""
            while (x < 10)
                x = x + 1;
                if (x == 5)
                    break;
                else
                    continue;
                end if;
            end while;
        """)
        assert isinstance(stmt, ast.While)

    def test_for_each(self):
        stmt = only_stmt("""
            for each item in items
                total = total + 1;
            end for;
        """)
        assert isinstance(stmt, ast.ForEach)
        assert stmt.variable == "item"

    def test_return_with_and_without_value(self):
        assert only_stmt("return;").value is None
        assert isinstance(only_stmt("return 3;").value, ast.IntLit)

    def test_unclosed_block_rejected(self):
        with pytest.raises(OALSyntaxError):
            parse_activity("while (x < 1) x = 1;")


class TestCalls:
    def test_bridge_call_statement(self):
        stmt = only_stmt('LOG::info(message: "hi");')
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.BridgeCall)

    def test_instance_operation_statement(self):
        stmt = only_stmt("engine.reset(hard: true);")
        assert isinstance(stmt.expr, ast.OperationCall)

    def test_bare_expression_statement_rejected(self):
        with pytest.raises(OALSyntaxError):
            parse_activity("1 + 2;")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.Binary)
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_comparison_over_and(self):
        expr = parse_expression("a < b and c > d")
        assert expr.op == "and"
        assert expr.left.op == "<"

    def test_not_binds_tighter_than_and(self):
        expr = parse_expression("not a and b")
        assert expr.op == "and"
        assert isinstance(expr.left, ast.Unary)

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.Unary)

    def test_enum_literal(self):
        expr = parse_expression("DoorState::OPEN")
        assert isinstance(expr, ast.EnumLit)
        assert expr.enum_name == "DoorState"

    def test_bridge_call_expression(self):
        expr = parse_expression("TIM::current_time()")
        assert isinstance(expr, ast.BridgeCall)
        assert expr.arguments == ()

    def test_param_access(self):
        expr = parse_expression("param.seconds")
        assert isinstance(expr, ast.ParamRef)

    def test_rcvd_evt_alias(self):
        expr = parse_expression("rcvd_evt.seconds")
        assert isinstance(expr, ast.ParamRef)

    def test_cardinality_keywords(self):
        for keyword in ("cardinality", "empty", "not_empty"):
            expr = parse_expression(f"{keyword} things")
            assert isinstance(expr, ast.Unary)
            assert expr.op == keyword

    def test_chained_attribute_access(self):
        expr = parse_expression("a.b")
        assert isinstance(expr, ast.AttrAccess)

    def test_string_concat(self):
        expr = parse_expression('"a" + "b"')
        assert expr.op == "+"
