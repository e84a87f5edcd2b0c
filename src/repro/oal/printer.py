"""OAL pretty-printer — AST back to canonical action text.

The inverse of :func:`repro.oal.parser.parse_activity`: useful for
formatting model activities, for emitting OAL from programmatic model
transformations, and as the anchor of the parse/print round-trip
property (``parse(print(tree)) == tree`` up to source positions).
"""

from __future__ import annotations

from . import ast

_PRECEDENCE = {
    "or": 1, "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PRECEDENCE = 3      # 'not' sits between 'and' and comparisons


def print_activity(block: ast.Block) -> str:
    """Render a block as canonical OAL text."""
    lines: list[str] = []
    _print_block(block, lines, 0)
    return "\n".join(lines) + ("\n" if lines else "")


def print_expression(expr: ast.Expr) -> str:
    """Render one expression."""
    return _expr(expr, 0)


def _pad(indent: int) -> str:
    return "    " * indent


def _print_block(block: ast.Block, lines: list[str], indent: int) -> None:
    for stmt in block.statements:
        _print_stmt(stmt, lines, indent)


def _print_stmt(stmt: ast.Stmt, lines: list[str], indent: int) -> None:
    pad = _pad(indent)
    if isinstance(stmt, ast.Assign):
        lines.append(f"{pad}{_expr(stmt.target, 0)} = {_expr(stmt.value, 0)};")
    elif isinstance(stmt, ast.CreateInstance):
        lines.append(f"{pad}create object instance {stmt.variable} "
                     f"of {stmt.class_key};")
    elif isinstance(stmt, ast.DeleteInstance):
        lines.append(f"{pad}delete object instance {_expr(stmt.target, 0)};")
    elif isinstance(stmt, ast.SelectFromInstances):
        kind = "many" if stmt.many else "any"
        where = (f" where ({_expr(stmt.where, 0)})"
                 if stmt.where is not None else "")
        lines.append(f"{pad}select {kind} {stmt.variable} from instances "
                     f"of {stmt.class_key}{where};")
    elif isinstance(stmt, ast.SelectRelated):
        kind = "many" if stmt.many else "one"
        chain = _expr(stmt.start, 0) + "".join(
            _hop(hop) for hop in stmt.hops)
        where = (f" where ({_expr(stmt.where, 0)})"
                 if stmt.where is not None else "")
        lines.append(f"{pad}select {kind} {stmt.variable} related by "
                     f"{chain}{where};")
    elif isinstance(stmt, ast.Relate):
        phrase = f".'{stmt.phrase}'" if stmt.phrase else ""
        lines.append(f"{pad}relate {_expr(stmt.left, 0)} to "
                     f"{_expr(stmt.right, 0)} across "
                     f"{stmt.association}{phrase};")
    elif isinstance(stmt, ast.Unrelate):
        phrase = f".'{stmt.phrase}'" if stmt.phrase else ""
        lines.append(f"{pad}unrelate {_expr(stmt.left, 0)} from "
                     f"{_expr(stmt.right, 0)} across "
                     f"{stmt.association}{phrase};")
    elif isinstance(stmt, ast.Generate):
        scope = f":{stmt.class_key}" if stmt.class_key else ""
        arguments = ""
        if stmt.arguments or stmt.target is None:
            inner = ", ".join(f"{name}: {_expr(value, 0)}"
                              for name, value in stmt.arguments)
            arguments = f"({inner})"
        target = (f" to {_expr(stmt.target, 0)}"
                  if stmt.target is not None else "")
        delay = (f" delay {_expr(stmt.delay, 0)}"
                 if stmt.delay is not None else "")
        lines.append(f"{pad}generate {stmt.event_label}{scope}"
                     f"{arguments}{target}{delay};")
    elif isinstance(stmt, ast.If):
        keyword = "if"
        for condition, body in stmt.branches:
            lines.append(f"{pad}{keyword} ({_expr(condition, 0)})")
            _print_block(body, lines, indent + 1)
            keyword = "elif"
        if stmt.orelse is not None:
            lines.append(f"{pad}else")
            _print_block(stmt.orelse, lines, indent + 1)
        lines.append(f"{pad}end if;")
    elif isinstance(stmt, ast.While):
        lines.append(f"{pad}while ({_expr(stmt.condition, 0)})")
        _print_block(stmt.body, lines, indent + 1)
        lines.append(f"{pad}end while;")
    elif isinstance(stmt, ast.ForEach):
        lines.append(f"{pad}for each {stmt.variable} in "
                     f"{_expr(stmt.iterable, 0)}")
        _print_block(stmt.body, lines, indent + 1)
        lines.append(f"{pad}end for;")
    elif isinstance(stmt, ast.Break):
        lines.append(f"{pad}break;")
    elif isinstance(stmt, ast.Continue):
        lines.append(f"{pad}continue;")
    elif isinstance(stmt, ast.Return):
        value = f" {_expr(stmt.value, 0)}" if stmt.value is not None else ""
        lines.append(f"{pad}return{value};")
    elif isinstance(stmt, ast.ExprStmt):
        lines.append(f"{pad}{_expr(stmt.expr, 0)};")
    else:  # pragma: no cover - parser produces no other kinds
        raise TypeError(f"cannot print {type(stmt).__name__}")


def _hop(hop: ast.ChainHop) -> str:
    phrase = f".'{hop.phrase}'" if hop.phrase else ""
    return f"->{hop.class_key}[{hop.association}{phrase}]"


def _escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t"))


def _expr(expr: ast.Expr, parent_precedence: int) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.RealLit):
        text = repr(expr.value)
        return text if "." in text or "e" in text else text + ".0"
    if isinstance(expr, ast.StringLit):
        return f'"{_escape(expr.value)}"'
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.EnumLit):
        return f"{expr.enum_name}::{expr.enumerator}"
    if isinstance(expr, ast.SelfRef):
        return "self"
    if isinstance(expr, ast.SelectedRef):
        return "selected"
    if isinstance(expr, ast.NameRef):
        return expr.name
    if isinstance(expr, ast.ParamRef):
        return f"param.{expr.name}"
    if isinstance(expr, ast.AttrAccess):
        return f"{_expr(expr.target, 7)}.{expr.attribute}"
    if isinstance(expr, ast.Unary):
        if expr.op == "not":
            # 'not' sits between and/or and the comparisons
            text = f"not {_expr(expr.operand, _UNARY_PRECEDENCE)}"
            return (f"({text})" if parent_precedence > _UNARY_PRECEDENCE
                    else text)
        # '-', cardinality, empty, not_empty bind just below postfix
        operand = _expr(expr.operand, 7)
        text = f"-{operand}" if expr.op == "-" else f"{expr.op} {operand}"
        return f"({text})" if parent_precedence >= 7 else text
    if isinstance(expr, ast.Binary):
        precedence = _PRECEDENCE[expr.op]
        # comparisons are non-associative (the grammar allows exactly
        # one), so a comparison operand of a comparison needs parens on
        # BOTH sides; the left-associative operators only on the right
        left_floor = precedence + 1 if precedence == 4 else precedence
        left = _expr(expr.left, left_floor)
        right = _expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if parent_precedence > precedence:
            return f"({text})"
        return text
    if isinstance(expr, ast.BridgeCall):
        arguments = ", ".join(f"{name}: {_expr(value, 0)}"
                              for name, value in expr.arguments)
        return f"{expr.entity}::{expr.operation}({arguments})"
    if isinstance(expr, ast.OperationCall):
        arguments = ", ".join(f"{name}: {_expr(value, 0)}"
                              for name, value in expr.arguments)
        return f"{_expr(expr.target, 7)}.{expr.operation}({arguments})"
    raise TypeError(f"cannot print {type(expr).__name__}")
