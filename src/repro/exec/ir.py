"""The action IR — the one lowered form of OAL the toolchain executes.

Every analyzed activity is lowered into this small, JSON-able IR exactly
once; the C emitter prints IR to C, the VHDL emitter prints IR to VHDL,
the target-architecture simulators (:mod:`repro.mda.csim` /
:mod:`repro.mda.vsim`) *execute* the IR under their architecture's
scheduling rules, the abstract runtime (:mod:`repro.runtime.simulator`)
executes the same IR under the profile's rules, and the signal-flow
analyzer (:mod:`repro.analysis.signalflow`) builds its graph from it.
Because text, simulation and analysis share one lowered form, a
semantics bug shows up as a conformance failure, not a silent
divergence — consistency by construction, applied to the toolchain
itself.

IR nodes are plain lists (tag first), so a build manifest is trivially
serializable.  Every expression ends with its analyzed type tag ``T``:
the OAL analyzer's type of that expression in the
:func:`repro.xuml.datatypes.dtype_tag` form (``integer``, ``enum:Mode``,
``inst_ref:B``, ``inst_ref_set:B``), or ``None`` for a call that returns
nothing.  The type checker runs once, in the analyzer; a printer reads a
type or a class from ``expr[-1]`` and never works it out again.

Expressions::

    ["int", i, T]  ["real", x, T]  ["str", s, T]  ["bool", b, T]
    ["enum", type_name, enumerator, code, T]
    ["self", T]  ["selected", T]  ["var", name, T]  ["param", name, T]
    ["attr", target, attr_name, T]
    ["un", op, operand, T]       op in - not cardinality empty not_empty
    ["bin", op, left, right, T]
    ["bridge", entity, operation, [[name, expr], ...], T]
    ["classop", class_key, operation, [[name, expr], ...], T]
    ["instop", target, operation, [[name, expr], ...], T]

Statements::

    ["assign_var", name, expr]
    ["assign_attr", target, attr_name, expr]
    ["create", var, class_key]
    ["delete", expr]
    ["select_extent", var, many, class_key, where|None]
    ["select_related", var, many, start, [[class_key, rnum, phrase], ...], where|None]
    ["relate", left, right, rnum, phrase]
    ["unrelate", left, right, rnum, phrase]
    ["generate", label, class_key, [[name, expr], ...], target|None, delay|None, line]
    ["if", [[cond, block], ...], elseblock|None]
    ["while", cond, block]
    ["foreach", var, iterable, block]
    ["break"]  ["continue"]
    ["return", expr|None]
    ["exprstmt", expr]

The evaluator and every executor address elements positionally from the
front, so they ignore the type tag, and untyped IR still executes.
``generate`` carries the source line as its (trailing) last element so
the signal-flow analyzer can report send sites without a second walk
over the AST.
"""

from __future__ import annotations

from repro.oal import ast
from repro.oal.analyzer import AnalyzedActivity
from repro.xuml.component import Component
from repro.xuml.datatypes import dtype_tag


def lower_block(
    block: ast.Block, analysis: AnalyzedActivity, component: Component
) -> list:
    """Lower a parsed+analyzed block to the action IR."""
    lowerer = _Lowerer(analysis, component)
    return lowerer.block(block)


class _Lowerer:
    def __init__(self, analysis: AnalyzedActivity, component: Component):
        self._analysis = analysis
        self._component = component

    def block(self, block: ast.Block) -> list:
        return [self.stmt(s) for s in block.statements]

    # -- statements ----------------------------------------------------------

    def stmt(self, stmt: ast.Stmt) -> list:
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.NameRef):
                return ["assign_var", stmt.target.name, self.expr(stmt.value)]
            target = stmt.target
            assert isinstance(target, ast.AttrAccess)
            return [
                "assign_attr",
                self.expr(target.target),
                target.attribute,
                self.expr(stmt.value),
            ]
        if isinstance(stmt, ast.CreateInstance):
            return ["create", stmt.variable, stmt.class_key]
        if isinstance(stmt, ast.DeleteInstance):
            return ["delete", self.expr(stmt.target)]
        if isinstance(stmt, ast.SelectFromInstances):
            return [
                "select_extent", stmt.variable, stmt.many, stmt.class_key,
                self.expr(stmt.where) if stmt.where is not None else None,
            ]
        if isinstance(stmt, ast.SelectRelated):
            hops = [[h.class_key, h.association, h.phrase] for h in stmt.hops]
            return [
                "select_related", stmt.variable, stmt.many,
                self.expr(stmt.start), hops,
                self.expr(stmt.where) if stmt.where is not None else None,
            ]
        if isinstance(stmt, ast.Relate):
            return ["relate", self.expr(stmt.left), self.expr(stmt.right),
                    stmt.association, stmt.phrase]
        if isinstance(stmt, ast.Unrelate):
            return ["unrelate", self.expr(stmt.left), self.expr(stmt.right),
                    stmt.association, stmt.phrase]
        if isinstance(stmt, ast.Generate):
            class_key = self._analysis.generate_classes[id(stmt)]
            return [
                "generate", stmt.event_label, class_key,
                [[name, self.expr(value)] for name, value in stmt.arguments],
                self.expr(stmt.target) if stmt.target is not None else None,
                self.expr(stmt.delay) if stmt.delay is not None else None,
                stmt.line,
            ]
        if isinstance(stmt, ast.If):
            return [
                "if",
                [[self.expr(cond), self.block(body)]
                 for cond, body in stmt.branches],
                self.block(stmt.orelse) if stmt.orelse is not None else None,
            ]
        if isinstance(stmt, ast.While):
            return ["while", self.expr(stmt.condition), self.block(stmt.body)]
        if isinstance(stmt, ast.ForEach):
            return ["foreach", stmt.variable, self.expr(stmt.iterable),
                    self.block(stmt.body)]
        if isinstance(stmt, ast.Break):
            return ["break"]
        if isinstance(stmt, ast.Continue):
            return ["continue"]
        if isinstance(stmt, ast.Return):
            return ["return",
                    self.expr(stmt.value) if stmt.value is not None else None]
        if isinstance(stmt, ast.ExprStmt):
            return ["exprstmt", self.expr(stmt.expr)]
        raise TypeError(f"cannot lower statement {type(stmt).__name__}")

    # -- expressions -----------------------------------------------------------

    def expr(self, expr: ast.Expr) -> list:
        """The expression's node, its analyzed type tag appended."""
        dtype = self._analysis.expr_types[id(expr)]
        node = self._node(expr)
        node.append(None if dtype is None else dtype_tag(dtype))
        return node

    def _node(self, expr: ast.Expr) -> list:
        if isinstance(expr, ast.IntLit):
            return ["int", expr.value]
        if isinstance(expr, ast.RealLit):
            return ["real", expr.value]
        if isinstance(expr, ast.StringLit):
            return ["str", expr.value]
        if isinstance(expr, ast.BoolLit):
            return ["bool", expr.value]
        if isinstance(expr, ast.EnumLit):
            etype = self._component.types.enum(expr.enum_name)
            return ["enum", expr.enum_name, expr.enumerator,
                    etype.code_of(expr.enumerator)]
        if isinstance(expr, ast.SelfRef):
            return ["self"]
        if isinstance(expr, ast.SelectedRef):
            return ["selected"]
        if isinstance(expr, ast.NameRef):
            return ["var", expr.name]
        if isinstance(expr, ast.ParamRef):
            return ["param", expr.name]
        if isinstance(expr, ast.AttrAccess):
            return ["attr", self.expr(expr.target), expr.attribute]
        if isinstance(expr, ast.Unary):
            return ["un", expr.op, self.expr(expr.operand)]
        if isinstance(expr, ast.Binary):
            return ["bin", expr.op, self.expr(expr.left), self.expr(expr.right)]
        if isinstance(expr, ast.BridgeCall):
            arguments = [[name, self.expr(value)]
                         for name, value in expr.arguments]
            if self._analysis.static_operation_calls.get(id(expr)):
                return ["classop", expr.entity, expr.operation, arguments]
            return ["bridge", expr.entity, expr.operation, arguments]
        if isinstance(expr, ast.OperationCall):
            arguments = [[name, self.expr(value)]
                         for name, value in expr.arguments]
            return ["instop", self.expr(expr.target), expr.operation, arguments]
        raise TypeError(f"cannot lower expression {type(expr).__name__}")


def walk_ir_statements(block: list):
    """Yield every statement in an IR block, depth-first."""
    for stmt in block:
        yield stmt
        tag = stmt[0]
        if tag == "if":
            for _, body in stmt[1]:
                yield from walk_ir_statements(body)
            if stmt[2] is not None:
                yield from walk_ir_statements(stmt[2])
        elif tag in ("while", "foreach"):
            yield from walk_ir_statements(stmt[-1])


def walk_ir_generates(block: list, in_loop: bool = False,
                      conditional: bool = False):
    """Yield ``(generate_stmt, in_loop, conditional)`` for every send.

    The flags carry the control-flow context the signal-flow analyzer
    needs: a send under ``if`` may not fire on every visit to its state
    (*conditional*), and a send under ``while``/``for each`` may fire
    many times (*in_loop*, which also implies *conditional* because the
    loop may run zero times).
    """
    for stmt in block:
        tag = stmt[0]
        if tag == "generate":
            yield stmt, in_loop, conditional
        elif tag == "if":
            for _, body in stmt[1]:
                yield from walk_ir_generates(body, in_loop, True)
            if stmt[2] is not None:
                yield from walk_ir_generates(stmt[2], in_loop, True)
        elif tag in ("while", "foreach"):
            yield from walk_ir_generates(stmt[-1], True, True)
