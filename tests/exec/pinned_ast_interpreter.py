"""Pinned copy of the retired AST tree-walker, kept as a test oracle.

This module preserves, verbatim, the ``ActivityInterpreter`` that used to
live at ``repro/runtime/interpreter.py`` before the execution core was
unified on the lowered action IR (:mod:`repro.exec`).  The differential
tests and the E12 benchmark run the same models through this pinned
walker and through the live IR evaluator and demand byte-identical
traces — the proof that the refactor changed the *code shape* and not
the *semantics*.

Do not "fix" or modernize this file: its value is that it does not move.
"""

from __future__ import annotations

from repro.oal import ast
from repro.oal.analyzer import AnalyzedActivity, analyze_activity
from repro.oal.errors import OALRuntimeError
from repro.oal.parser import parse_activity
from repro.runtime.errors import SelectionError
from repro.runtime.simulator import Simulation
from repro.runtime.tracing import TraceKind
from repro.xuml.klass import Operation


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__()


def c_div(left: int, right: int) -> int:
    """C-style integer division: truncation toward zero."""
    if right == 0:
        raise OALRuntimeError("integer division by zero")
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def c_mod(left: int, right: int) -> int:
    """C-style remainder: sign follows the dividend."""
    if right == 0:
        raise OALRuntimeError("integer remainder by zero")
    return left - c_div(left, right) * right


class ActivityInterpreter:
    """Executes one activity in the context of a simulation.

    Parameters
    ----------
    simulation:
        The host (duck-typed; see :mod:`repro.runtime.simulator`).
    analysis:
        The :class:`AnalyzedActivity` for the block being run.
    self_handle:
        Handle of the executing instance, or None for class operations.
    params:
        Event data items (``param.x``) or operation arguments.
    """

    def __init__(self, simulation, analysis: AnalyzedActivity, self_handle, params):
        self._sim = simulation
        self._analysis = analysis
        self._self = self_handle
        self._params = dict(params)
        self._locals: dict[str, object] = {}
        self._selected: object = None

    # -- entry point ----------------------------------------------------------

    def run(self):
        """Execute the block; returns the ``return`` value, if any."""
        try:
            self._exec_block(self._analysis.block)
        except _Return as ret:
            return ret.value
        except (_Break, _Continue):  # pragma: no cover - analyzer prevents
            raise OALRuntimeError("break/continue escaped its loop")
        return None

    # -- statements ------------------------------------------------------------

    def _exec_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        method = getattr(self, "_exec_" + type(stmt).__name__)
        method(stmt)

    def _exec_Assign(self, stmt: ast.Assign) -> None:
        value = self._eval(stmt.value)
        target = stmt.target
        if isinstance(target, ast.NameRef):
            self._locals[target.name] = value
            return
        assert isinstance(target, ast.AttrAccess)
        handle = self._eval(target.target)
        self._require_instance(handle, stmt)
        self._sim.write_attribute(handle, target.attribute, value)

    def _exec_CreateInstance(self, stmt: ast.CreateInstance) -> None:
        handle = self._sim.create_instance(stmt.class_key)
        self._locals[stmt.variable] = handle

    def _exec_DeleteInstance(self, stmt: ast.DeleteInstance) -> None:
        handle = self._eval(stmt.target)
        self._require_instance(handle, stmt)
        self._sim.delete_instance(handle)

    def _exec_SelectFromInstances(self, stmt: ast.SelectFromInstances) -> None:
        handles = self._sim.instances_of(stmt.class_key)
        handles = self._filter_where(handles, stmt.where)
        if stmt.many:
            self._locals[stmt.variable] = tuple(sorted(handles))
        else:
            self._locals[stmt.variable] = handles[0] if handles else None

    def _exec_SelectRelated(self, stmt: ast.SelectRelated) -> None:
        start = self._eval(stmt.start)
        current: tuple[int, ...]
        current = () if start is None else (start,)
        for hop in stmt.hops:
            gathered: set[int] = set()
            for handle in current:
                gathered.update(
                    self._sim.navigate(handle, hop.association, hop.class_key, hop.phrase)
                )
            current = tuple(sorted(gathered))
        current = self._filter_where(current, stmt.where)
        if stmt.many:
            self._locals[stmt.variable] = tuple(sorted(current))
        else:
            if len(current) > 1:
                raise SelectionError(
                    f"select one {stmt.variable}: navigation produced "
                    f"{len(current)} instances"
                )
            self._locals[stmt.variable] = current[0] if current else None

    def _filter_where(self, handles, where: ast.Expr | None):
        handles = tuple(handles)
        if where is None:
            return handles
        kept = []
        outer = self._selected
        try:
            for handle in handles:
                self._selected = handle
                if self._eval(where):
                    kept.append(handle)
        finally:
            self._selected = outer
        return tuple(kept)

    def _exec_Relate(self, stmt: ast.Relate) -> None:
        left = self._eval(stmt.left)
        right = self._eval(stmt.right)
        self._require_instance(left, stmt)
        self._require_instance(right, stmt)
        self._sim.relate(left, right, stmt.association, stmt.phrase)

    def _exec_Unrelate(self, stmt: ast.Unrelate) -> None:
        left = self._eval(stmt.left)
        right = self._eval(stmt.right)
        self._require_instance(left, stmt)
        self._require_instance(right, stmt)
        self._sim.unrelate(left, right, stmt.association, stmt.phrase)

    def _exec_Generate(self, stmt: ast.Generate) -> None:
        params = {name: self._eval(value) for name, value in stmt.arguments}
        class_key = self._analysis.generate_classes[id(stmt)]
        delay = int(self._eval(stmt.delay)) if stmt.delay is not None else 0
        if stmt.target is None:
            self._sim.send_creation(class_key, stmt.event_label, params,
                                    sender=self._self, delay=delay)
            return
        target = self._eval(stmt.target)
        self._require_instance(target, stmt)
        self._sim.send_signal(
            target, class_key, stmt.event_label, params,
            sender=self._self, delay=delay,
        )

    def _exec_If(self, stmt: ast.If) -> None:
        for condition, branch in stmt.branches:
            if self._eval(condition):
                self._exec_block(branch)
                return
        if stmt.orelse is not None:
            self._exec_block(stmt.orelse)

    def _exec_While(self, stmt: ast.While) -> None:
        guard = 0
        while self._eval(stmt.condition):
            guard += 1
            if guard > self._sim.loop_bound:
                raise OALRuntimeError(
                    f"while loop exceeded {self._sim.loop_bound} iterations"
                )
            try:
                self._exec_block(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_ForEach(self, stmt: ast.ForEach) -> None:
        handles = self._eval(stmt.iterable)
        for handle in handles:
            self._locals[stmt.variable] = handle
            try:
                self._exec_block(stmt.body)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_Break(self, stmt: ast.Break) -> None:
        raise _Break

    def _exec_Continue(self, stmt: ast.Continue) -> None:
        raise _Continue

    def _exec_Return(self, stmt: ast.Return) -> None:
        value = self._eval(stmt.value) if stmt.value is not None else None
        raise _Return(value)

    def _exec_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self._eval(stmt.expr)

    # -- expressions -------------------------------------------------------------

    def _eval(self, expr: ast.Expr):
        method = getattr(self, "_eval_" + type(expr).__name__)
        return method(expr)

    def _eval_IntLit(self, expr: ast.IntLit):
        return expr.value

    def _eval_RealLit(self, expr: ast.RealLit):
        return expr.value

    def _eval_StringLit(self, expr: ast.StringLit):
        return expr.value

    def _eval_BoolLit(self, expr: ast.BoolLit):
        return expr.value

    def _eval_EnumLit(self, expr: ast.EnumLit):
        return expr.enumerator

    def _eval_SelfRef(self, expr: ast.SelfRef):
        return self._self

    def _eval_SelectedRef(self, expr: ast.SelectedRef):
        return self._selected

    def _eval_NameRef(self, expr: ast.NameRef):
        try:
            return self._locals[expr.name]
        except KeyError:
            raise OALRuntimeError(
                f"variable {expr.name!r} read before assignment"
            ) from None

    def _eval_ParamRef(self, expr: ast.ParamRef):
        try:
            return self._params[expr.name]
        except KeyError:
            raise OALRuntimeError(f"event carries no parameter {expr.name!r}") from None

    def _eval_AttrAccess(self, expr: ast.AttrAccess):
        handle = self._eval(expr.target)
        self._require_instance(handle, expr)
        return self._sim.read_attribute(handle, expr.attribute)

    def _eval_Unary(self, expr: ast.Unary):
        value = self._eval(expr.operand)
        if expr.op == "-":
            return -value
        if expr.op == "not":
            return not value
        if expr.op == "cardinality":
            return len(self._as_set(value))
        if expr.op == "empty":
            return len(self._as_set(value)) == 0
        if expr.op == "not_empty":
            return len(self._as_set(value)) != 0
        raise OALRuntimeError(f"unknown unary operator {expr.op!r}")

    @staticmethod
    def _as_set(value) -> tuple:
        if value is None:
            return ()
        if isinstance(value, tuple):
            return value
        return (value,)

    def _eval_Binary(self, expr: ast.Binary):
        op = expr.op
        if op == "and":
            return bool(self._eval(expr.left)) and bool(self._eval(expr.right))
        if op == "or":
            return bool(self._eval(expr.left)) or bool(self._eval(expr.right))
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                return c_div(left, right)
            if right == 0:
                raise OALRuntimeError("division by zero")
            return left / right
        if op == "%":
            return c_mod(left, right)
        raise OALRuntimeError(f"unknown binary operator {op!r}")

    def _eval_BridgeCall(self, expr: ast.BridgeCall):
        kwargs = {name: self._eval(value) for name, value in expr.arguments}
        if self._analysis.static_operation_calls.get(id(expr)):
            return self._sim.call_class_operation(expr.entity, expr.operation, kwargs)
        return self._sim.call_bridge(
            self._self, expr.entity, expr.operation, kwargs
        )

    def _eval_OperationCall(self, expr: ast.OperationCall):
        handle = self._eval(expr.target)
        self._require_instance(handle, expr)
        kwargs = {name: self._eval(value) for name, value in expr.arguments}
        return self._sim.call_instance_operation(handle, expr.operation, kwargs)

    # -- misc --------------------------------------------------------------------

    def _require_instance(self, handle, node: ast.Node) -> None:
        if handle is None:
            raise OALRuntimeError(
                f"empty instance reference used at line {node.line}"
            )


class PinnedAstSimulation(Simulation):
    """A :class:`Simulation` that executes activities through the pinned
    AST tree-walker instead of the shared IR evaluator.

    Reproduces the pre-refactor ``_prepare_activities`` preparation (one
    parse/analyze pass per activity, operation, and derived attribute)
    and routes the four execution call sites back through
    :class:`ActivityInterpreter`.  Everything else — dispatch, tracing,
    schedulers, bridges — is the live simulator, so a trace diff
    isolates exactly the executor swap.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ast_activities: dict[tuple[str, str], AnalyzedActivity] = {}
        self._ast_operations: dict[tuple[str, str], AnalyzedActivity] = {}
        self._ast_derived: dict[tuple[str, str], AnalyzedActivity] = {}
        for klass in self.component.classes:
            key = klass.key_letters
            for state in klass.statemachine.states:
                block = parse_activity(state.activity)
                analysis = analyze_activity(
                    block, self.model, self.component, klass, state)
                self._ast_activities[(key, state.name)] = analysis
            for operation in klass.operations:
                block = parse_activity(operation.body)
                analysis = analyze_activity(
                    block, self.model, self.component, klass, None,
                    operation=operation)
                self._ast_operations[(key, operation.name)] = analysis
            for attribute in klass.attributes:
                if attribute.derived is None:
                    continue
                pseudo = Operation(
                    f"derived_{attribute.name}",
                    f"return {attribute.derived};",
                    instance_based=True,
                    returns=attribute.dtype,
                )
                block = parse_activity(pseudo.body)
                analysis = analyze_activity(
                    block, self.model, self.component, klass, None,
                    operation=pseudo)
                self._ast_derived[(key, attribute.name)] = analysis

    @property
    def execution_core(self) -> str:
        return "pinned AST tree-walker (test oracle)"

    def read_attribute(self, handle: int, name: str):
        instance = self.instance(handle)
        klass = self.component.klass(instance.class_key)
        attribute = klass.attribute(name)
        if attribute.derived is not None:
            analysis = self._ast_derived[(instance.class_key, name)]
            return ActivityInterpreter(self, analysis, handle, {}).run()
        return instance.get(name)

    def call_instance_operation(self, handle: int, name: str, kwargs: dict):
        class_key = self.class_of(handle)
        analysis = self._ast_operations[(class_key, name)]
        return ActivityInterpreter(self, analysis, handle, kwargs).run()

    def call_class_operation(self, class_key: str, name: str, kwargs: dict):
        analysis = self._ast_operations[(class_key, name)]
        return ActivityInterpreter(self, analysis, None, kwargs).run()

    def _run_state_activity(self, instance, state_name, signal) -> None:
        analysis = self._ast_activities[(instance.class_key, state_name)]
        activity_id = self._next_activity
        self._next_activity += 1
        self.trace.record(
            self.now, TraceKind.ACTIVITY_START,
            activity_id, instance.handle, instance.class_key, state_name,
            signal.sequence,
        )
        self._activity_stack.append(activity_id)
        try:
            params = {
                name: signal.params.get(name)
                for name in analysis.event_parameters
            }
            ActivityInterpreter(self, analysis, instance.handle, params).run()
        finally:
            self._activity_stack.pop()
            self.trace.record(
                self.now, TraceKind.ACTIVITY_END,
                activity_id, instance.handle, instance.class_key, state_name,
            )
