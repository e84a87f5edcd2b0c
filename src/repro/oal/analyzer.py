"""Static semantic analysis of OAL activities.

The analyzer binds an activity to its model context — owning class, state
(for event-parameter access), component (types, associations, externals) —
and verifies:

* every name is defined before use, with a single consistent type;
* attribute access matches the target class's declared attributes;
* ``param.x`` is carried (with one type) by *every* event that can enter
  the state — the xtUML rule that makes activities implementation-neutral;
* ``generate`` arguments cover the event's parameters exactly;
* relationship navigation follows declared associations end-to-end;
* bridge/operation calls match declared signatures;
* ``break``/``continue`` appear only inside loops, ``return`` values only
  inside operations that declare a return type.

The tree is never mutated; results live in :class:`AnalyzedActivity` side
tables keyed by node identity, which the interpreter and the model
compiler both consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xuml.component import Component
from repro.xuml.datatypes import (
    CoreType,
    DataType,
    InstRefType,
    InstSetType,
)
from repro.xuml.klass import ModelClass, Operation
from repro.xuml.model import Model
from repro.xuml.statemachine import State

from . import ast
from .errors import AnalysisError

_NUMERIC = (CoreType.INTEGER, CoreType.REAL, CoreType.TIMESTAMP)


@dataclass
class AnalyzedActivity:
    """Analysis results for one activity."""

    block: ast.Block
    variable_types: dict[str, DataType] = field(default_factory=dict)
    expr_types: dict[int, DataType | None] = field(default_factory=dict)
    #: id(Generate stmt) -> class key letters of the receiving class
    generate_classes: dict[int, str] = field(default_factory=dict)
    #: id(BridgeCall expr) -> True when the "entity" is really a class
    #: (static operation call), False for a genuine external-entity bridge
    static_operation_calls: dict[int, bool] = field(default_factory=dict)
    #: event parameters visible to this activity: name -> type
    event_parameters: dict[str, DataType] = field(default_factory=dict)


def entering_events(klass: ModelClass, state: State):
    """Event specs that can cause entry to *state* (incl. creation events)."""
    labels = {
        tr.event_label
        for tr in klass.statemachine.transitions
        if tr.to_state == state.name
    }
    labels.update(
        ct.event_label
        for ct in klass.statemachine.creation_transitions
        if ct.to_state == state.name
    )
    return [klass.event(label) for label in sorted(labels) if klass.has_event(label)]


def shared_event_parameters(klass: ModelClass, state: State) -> dict[str, DataType]:
    """Parameters every entering event carries with an identical type.

    Only these may be referenced as ``param.x`` in the state's activity;
    this is what keeps the activity valid no matter which signal caused
    the transition.
    """
    events = entering_events(klass, state)
    if not events:
        return {}
    shared: dict[str, DataType] = {p.name: p.dtype for p in events[0].parameters}
    for event in events[1:]:
        theirs = {p.name: p.dtype for p in event.parameters}
        for name in list(shared):
            if theirs.get(name) != shared[name]:
                del shared[name]
    return shared


def analyze_activity(
    block: ast.Block,
    model: Model,
    component: Component,
    klass: ModelClass,
    state: State | None,
    operation: Operation | None = None,
) -> AnalyzedActivity:
    """Analyze *block* in the context of (component, klass, state|operation)."""
    result = AnalyzedActivity(block)
    if state is not None:
        result.event_parameters = shared_event_parameters(klass, state)
    if operation is not None:
        result.event_parameters = {p.name: p.dtype for p in operation.parameters}
    analyzer = _Analyzer(model, component, klass, operation, result)
    analyzer.check_block(block, loop_depth=0)
    return result


class _Analyzer:
    def __init__(
        self,
        model: Model,
        component: Component,
        klass: ModelClass,
        operation: Operation | None,
        result: AnalyzedActivity,
    ):
        self._model = model
        self._component = component
        self._klass = klass
        self._operation = operation
        self._result = result
        self._selected_type: InstRefType | None = None

    # -- helpers ---------------------------------------------------------------

    def fail(self, message: str, node: ast.Node) -> AnalysisError:
        return AnalysisError(message, node.line, node.column)

    def _bind(self, name: str, dtype: DataType, node: ast.Node) -> None:
        known = self._result.variable_types.get(name)
        if known is None:
            self._result.variable_types[name] = dtype
            return
        if known == dtype:
            return
        if known is CoreType.REAL and dtype is CoreType.INTEGER:
            return  # int widens into a real variable
        raise self.fail(
            f"variable {name!r} was {known}, cannot rebind to {dtype}", node
        )

    def _class(self, key_letters: str, node: ast.Node) -> ModelClass:
        if not self._component.has_class(key_letters):
            raise self.fail(f"unknown class {key_letters!r}", node)
        return self._component.klass(key_letters)

    def _instance_class(self, expr: ast.Expr, purpose: str) -> ModelClass:
        dtype = self.check_expr(expr)
        if not isinstance(dtype, InstRefType):
            raise self.fail(
                f"{purpose} must be an instance reference, got {dtype}", expr
            )
        return self._class(dtype.class_key, expr)

    # -- statements ----------------------------------------------------------

    def check_block(self, block: ast.Block, loop_depth: int) -> None:
        for stmt in block.statements:
            self.check_stmt(stmt, loop_depth)

    def check_stmt(self, stmt: ast.Stmt, loop_depth: int) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.CreateInstance):
            self._class(stmt.class_key, stmt)
            self._bind(stmt.variable, InstRefType(stmt.class_key), stmt)
        elif isinstance(stmt, ast.DeleteInstance):
            self._instance_class(stmt.target, "delete target")
        elif isinstance(stmt, ast.SelectFromInstances):
            self._check_select_extent(stmt)
        elif isinstance(stmt, ast.SelectRelated):
            self._check_select_related(stmt)
        elif isinstance(stmt, ast.Relate):
            self._check_relate(stmt.left, stmt.right, stmt.association, stmt.phrase, stmt)
        elif isinstance(stmt, ast.Unrelate):
            self._check_relate(stmt.left, stmt.right, stmt.association, stmt.phrase, stmt)
        elif isinstance(stmt, ast.Generate):
            self._check_generate(stmt)
        elif isinstance(stmt, ast.If):
            for condition, branch in stmt.branches:
                self._require_boolean(condition, "if condition")
                self.check_block(branch, loop_depth)
            if stmt.orelse is not None:
                self.check_block(stmt.orelse, loop_depth)
        elif isinstance(stmt, ast.While):
            self._require_boolean(stmt.condition, "while condition")
            self.check_block(stmt.body, loop_depth + 1)
        elif isinstance(stmt, ast.ForEach):
            dtype = self.check_expr(stmt.iterable)
            if not isinstance(dtype, InstSetType):
                raise self.fail(
                    f"for-each iterates instance sets, got {dtype}", stmt
                )
            self._bind(stmt.variable, InstRefType(dtype.class_key), stmt)
            self.check_block(stmt.body, loop_depth + 1)
        elif isinstance(stmt, ast.Break) or isinstance(stmt, ast.Continue):
            if loop_depth == 0:
                raise self.fail("break/continue outside any loop", stmt)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        else:  # pragma: no cover - parser produces no other kinds
            raise self.fail(f"unknown statement {type(stmt).__name__}", stmt)

    def _check_assign(self, stmt: ast.Assign) -> None:
        value_type = self.check_expr(stmt.value)
        if value_type is None:
            raise self.fail("cannot assign a void value", stmt)
        target = stmt.target
        if isinstance(target, ast.NameRef):
            self._bind(target.name, value_type, stmt)
            self._result.expr_types[id(target)] = self._result.variable_types[
                target.name
            ]
            return
        if isinstance(target, ast.AttrAccess):
            owner = self._attr_owner(target)
            attribute = self._attribute_of(owner, target.attribute, target)
            if attribute.derived is not None:
                raise self.fail(
                    f"derived attribute {attribute.name!r} is read-only", stmt
                )
            self._require_assignable(attribute.dtype, value_type, stmt)
            self._result.expr_types[id(target)] = attribute.dtype
            return
        raise self.fail("invalid assignment target", stmt)

    def _attr_owner(self, access: ast.AttrAccess) -> ModelClass:
        return self._instance_class(access.target, "attribute access target")

    def _attribute_of(self, owner: ModelClass, name: str, node: ast.Node):
        if not owner.has_attribute(name):
            raise self.fail(
                f"class {owner.key_letters} has no attribute {name!r}", node
            )
        return owner.attribute(name)

    def _check_select_extent(self, stmt: ast.SelectFromInstances) -> None:
        self._class(stmt.class_key, stmt)
        if stmt.where is not None:
            self._check_where(stmt.where, stmt.class_key)
        dtype: DataType = (
            InstSetType(stmt.class_key) if stmt.many else InstRefType(stmt.class_key)
        )
        self._bind(stmt.variable, dtype, stmt)

    def _check_select_related(self, stmt: ast.SelectRelated) -> None:
        start_class = self._instance_class(stmt.start, "navigation start")
        current = start_class.key_letters
        for hop in stmt.hops:
            current = self._check_hop(current, hop)
        if stmt.where is not None:
            self._check_where(stmt.where, current)
        dtype: DataType = InstSetType(current) if stmt.many else InstRefType(current)
        self._bind(stmt.variable, dtype, stmt)

    def _check_hop(self, from_key: str, hop: ast.ChainHop) -> str:
        if not self._component.has_association(hop.association):
            raise self.fail(f"unknown association {hop.association!r}", hop)
        association = self._component.association(hop.association)
        self._class(hop.class_key, hop)
        participants = association.participants()
        if from_key not in participants:
            raise self.fail(
                f"class {from_key} does not participate in {hop.association}", hop
            )
        if hop.class_key not in participants:
            raise self.fail(
                f"class {hop.class_key} does not participate in {hop.association}",
                hop,
            )
        if association.is_reflexive and from_key == hop.class_key and hop.phrase is None:
            raise self.fail(
                f"{hop.association} is reflexive; hop needs a phrase", hop
            )
        if hop.phrase is not None:
            association.end_for(hop.class_key, hop.phrase)  # raises KeyError if bad
        return hop.class_key

    def _check_where(self, condition: ast.Expr, class_key: str) -> None:
        previous = self._selected_type
        self._selected_type = InstRefType(class_key)
        try:
            self._require_boolean(condition, "where clause")
        finally:
            self._selected_type = previous

    def _check_relate(
        self,
        left: ast.Expr,
        right: ast.Expr,
        association_number: str,
        phrase: str | None,
        node: ast.Node,
    ) -> None:
        if not self._component.has_association(association_number):
            raise self.fail(f"unknown association {association_number!r}", node)
        association = self._component.association(association_number)
        left_class = self._instance_class(left, "relate operand")
        right_class = self._instance_class(right, "relate operand")
        if association.is_reflexive:
            expected = association.one.class_key
            if (left_class.key_letters != expected
                    or right_class.key_letters != expected):
                raise self.fail(
                    f"{association_number} relates {expected} to {expected}",
                    node,
                )
            if phrase is None:
                raise self.fail(
                    f"{association_number} is reflexive; relate needs a phrase",
                    node,
                )
        else:
            operands = {left_class.key_letters, right_class.key_letters}
            ends = {association.one.class_key, association.other.class_key}
            if operands != ends:
                raise self.fail(
                    f"{association_number} relates "
                    f"{association.one.class_key} to "
                    f"{association.other.class_key}, got "
                    f"{left_class.key_letters} and {right_class.key_letters}",
                    node,
                )

    def _check_generate(self, stmt: ast.Generate) -> None:
        if stmt.target is None:
            # creation event: class key is mandatory
            if stmt.class_key is None:
                raise self.fail(
                    "creation generate needs an explicit ':Class'", stmt
                )
            receiver = self._class(stmt.class_key, stmt)
        elif isinstance(stmt.target, ast.SelfRef):
            receiver = self._klass
            if stmt.class_key is not None and stmt.class_key != receiver.key_letters:
                raise self.fail(
                    f"generate to self but event scoped to {stmt.class_key!r}", stmt
                )
        else:
            receiver = self._instance_class(stmt.target, "generate target")
            if stmt.class_key is not None and stmt.class_key != receiver.key_letters:
                raise self.fail(
                    f"target is {receiver.key_letters} but event scoped to "
                    f"{stmt.class_key!r}",
                    stmt,
                )
        if not receiver.has_event(stmt.event_label):
            raise self.fail(
                f"class {receiver.key_letters} declares no event "
                f"{stmt.event_label!r}",
                stmt,
            )
        event = receiver.event(stmt.event_label)
        if stmt.target is None and not event.creation:
            raise self.fail(
                f"event {stmt.event_label} is not a creation event; "
                "it needs a 'to' target",
                stmt,
            )
        if stmt.target is not None and event.creation:
            raise self.fail(
                f"creation event {stmt.event_label} cannot target an instance",
                stmt,
            )
        given = {name for name, _ in stmt.arguments}
        expected = set(event.parameter_names)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            details = []
            if missing:
                details.append(f"missing {missing}")
            if extra:
                details.append(f"unexpected {extra}")
            raise self.fail(
                f"generate {stmt.event_label}: {', '.join(details)}", stmt
            )
        for name, value in stmt.arguments:
            value_type = self.check_expr(value)
            self._require_assignable(
                event.parameter(name).dtype, value_type, stmt
            )
        if stmt.delay is not None:
            delay_type = self.check_expr(stmt.delay)
            if delay_type not in _NUMERIC:
                raise self.fail("delay must be numeric", stmt)
        self._result.generate_classes[id(stmt)] = receiver.key_letters

    def _check_return(self, stmt: ast.Return) -> None:
        if self._operation is None:
            if stmt.value is not None:
                raise self.fail(
                    "state activities cannot return a value", stmt
                )
            return
        expects = self._operation.returns
        if expects is None and stmt.value is not None:
            raise self.fail(
                f"operation {self._operation.name} declares no return type", stmt
            )
        if expects is not None:
            if stmt.value is None:
                raise self.fail(
                    f"operation {self._operation.name} must return {expects}", stmt
                )
            value_type = self.check_expr(stmt.value)
            self._require_assignable(expects, value_type, stmt)

    # -- expressions -----------------------------------------------------------

    def check_expr(self, expr: ast.Expr) -> DataType | None:
        dtype = self._infer(expr)
        self._result.expr_types[id(expr)] = dtype
        return dtype

    def _infer(self, expr: ast.Expr) -> DataType | None:
        if isinstance(expr, ast.IntLit):
            return CoreType.INTEGER
        if isinstance(expr, ast.RealLit):
            return CoreType.REAL
        if isinstance(expr, ast.StringLit):
            return CoreType.STRING
        if isinstance(expr, ast.BoolLit):
            return CoreType.BOOLEAN
        if isinstance(expr, ast.EnumLit):
            if expr.enum_name not in self._component.types:
                raise self.fail(f"unknown enum type {expr.enum_name!r}", expr)
            etype = self._component.types.enum(expr.enum_name)
            if expr.enumerator not in etype.enumerators:
                raise self.fail(
                    f"{expr.enum_name} has no enumerator {expr.enumerator!r}", expr
                )
            return etype
        if isinstance(expr, ast.SelfRef):
            return InstRefType(self._klass.key_letters)
        if isinstance(expr, ast.SelectedRef):
            if self._selected_type is None:
                raise self.fail("'selected' is only valid inside a where clause", expr)
            return self._selected_type
        if isinstance(expr, ast.NameRef):
            dtype = self._result.variable_types.get(expr.name)
            if dtype is None:
                raise self.fail(f"variable {expr.name!r} used before assignment", expr)
            return dtype
        if isinstance(expr, ast.ParamRef):
            dtype = self._result.event_parameters.get(expr.name)
            if dtype is None:
                raise self.fail(
                    f"param.{expr.name} is not carried (with one type) by every "
                    "event entering this state",
                    expr,
                )
            return dtype
        if isinstance(expr, ast.AttrAccess):
            owner = self._attr_owner(expr)
            return self._attribute_of(owner, expr.attribute, expr).dtype
        if isinstance(expr, ast.Unary):
            return self._infer_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._infer_binary(expr)
        if isinstance(expr, ast.BridgeCall):
            return self._infer_bridge(expr)
        if isinstance(expr, ast.OperationCall):
            return self._infer_operation(expr)
        raise self.fail(f"unknown expression {type(expr).__name__}", expr)

    def _infer_unary(self, expr: ast.Unary) -> DataType | None:
        operand = self.check_expr(expr.operand)
        if expr.op == "-":
            if operand not in _NUMERIC:
                raise self.fail(f"unary '-' needs a number, got {operand}", expr)
            return operand
        if expr.op == "not":
            if operand is not CoreType.BOOLEAN:
                raise self.fail(f"'not' needs a boolean, got {operand}", expr)
            return CoreType.BOOLEAN
        if expr.op in ("cardinality", "empty", "not_empty"):
            if not isinstance(operand, (InstSetType, InstRefType)):
                raise self.fail(
                    f"{expr.op} applies to instance (sets), got {operand}", expr
                )
            return CoreType.INTEGER if expr.op == "cardinality" else CoreType.BOOLEAN
        raise self.fail(f"unknown unary operator {expr.op!r}", expr)

    def _infer_binary(self, expr: ast.Binary) -> DataType:
        left = self.check_expr(expr.left)
        right = self.check_expr(expr.right)
        op = expr.op
        if op in ("and", "or"):
            if left is not CoreType.BOOLEAN or right is not CoreType.BOOLEAN:
                raise self.fail(f"'{op}' needs booleans, got {left}, {right}", expr)
            return CoreType.BOOLEAN
        if op in ("==", "!="):
            if not self._comparable(left, right):
                raise self.fail(f"cannot compare {left} with {right}", expr)
            return CoreType.BOOLEAN
        if op in ("<", "<=", ">", ">="):
            if left in _NUMERIC and right in _NUMERIC:
                return CoreType.BOOLEAN
            if left is CoreType.STRING and right is CoreType.STRING:
                return CoreType.BOOLEAN
            raise self.fail(f"cannot order {left} against {right}", expr)
        if op == "+" and left is CoreType.STRING and right is CoreType.STRING:
            return CoreType.STRING
        if op in ("+", "-", "*", "/", "%"):
            if left not in _NUMERIC or right not in _NUMERIC:
                raise self.fail(
                    f"arithmetic '{op}' needs numbers, got {left}, {right}", expr
                )
            if op == "%":
                if left is not CoreType.INTEGER or right is not CoreType.INTEGER:
                    raise self.fail("'%' needs integers", expr)
                return CoreType.INTEGER
            if CoreType.REAL in (left, right):
                return CoreType.REAL
            if CoreType.TIMESTAMP in (left, right):
                return CoreType.TIMESTAMP
            return CoreType.INTEGER
        raise self.fail(f"unknown binary operator {op!r}", expr)

    def _comparable(self, left: DataType | None, right: DataType | None) -> bool:
        if left is None or right is None:
            return False
        if left == right:
            return True
        if left in _NUMERIC and right in _NUMERIC:
            return True
        if isinstance(left, InstRefType) and isinstance(right, InstRefType):
            return left.class_key == right.class_key
        return False

    def _infer_bridge(self, expr: ast.BridgeCall) -> DataType | None:
        # "EE::op(...)" may also be a class-based operation "KL::op(...)"
        if self._component.has_class(expr.entity):
            self._result.static_operation_calls[id(expr)] = True
            klass = self._component.klass(expr.entity)
            if expr.operation not in {op.name for op in klass.operations}:
                raise self.fail(
                    f"class {expr.entity} has no operation {expr.operation!r}", expr
                )
            operation = klass.operation(expr.operation)
            if operation.instance_based:
                raise self.fail(
                    f"operation {expr.operation} is instance-based; call it on "
                    "an instance",
                    expr,
                )
            self._check_call_args(expr.arguments, operation.parameters, expr)
            return operation.returns
        if not self._component.has_external(expr.entity):
            raise self.fail(
                f"unknown external entity or class {expr.entity!r}", expr
            )
        self._result.static_operation_calls[id(expr)] = False
        entity = self._component.external(expr.entity)
        if not entity.has_bridge(expr.operation):
            raise self.fail(
                f"external entity {expr.entity} has no bridge "
                f"{expr.operation!r}",
                expr,
            )
        bridge = entity.bridge(expr.operation)
        self._check_call_args(expr.arguments, bridge.parameters, expr)
        return bridge.returns

    def _infer_operation(self, expr: ast.OperationCall) -> DataType | None:
        owner = self._instance_class(expr.target, "operation call target")
        if expr.operation not in {op.name for op in owner.operations}:
            raise self.fail(
                f"class {owner.key_letters} has no operation {expr.operation!r}",
                expr,
            )
        operation = owner.operation(expr.operation)
        if not operation.instance_based:
            raise self.fail(
                f"operation {expr.operation} is class-based; call it as "
                f"{owner.key_letters}::{expr.operation}(...)",
                expr,
            )
        self._check_call_args(expr.arguments, operation.parameters, expr)
        return operation.returns

    def _check_call_args(self, arguments, parameters, node: ast.Node) -> None:
        given = {name for name, _ in arguments}
        expected = {p.name for p in parameters}
        if given != expected:
            raise self.fail(
                f"call arguments {sorted(given)} do not match parameters "
                f"{sorted(expected)}",
                node,
            )
        by_name = {p.name: p for p in parameters}
        for name, value in arguments:
            value_type = self.check_expr(value)
            self._require_assignable(by_name[name].dtype, value_type, node)

    # -- type rules ------------------------------------------------------------

    def _require_boolean(self, expr: ast.Expr, what: str) -> None:
        dtype = self.check_expr(expr)
        if dtype is not CoreType.BOOLEAN:
            raise self.fail(f"{what} must be boolean, got {dtype}", expr)

    def _require_assignable(
        self, target: DataType, value: DataType | None, node: ast.Node
    ) -> None:
        if value is None:
            raise self.fail("void value in value position", node)
        if target == value:
            return
        if target is CoreType.REAL and value is CoreType.INTEGER:
            return
        if target is CoreType.TIMESTAMP and value is CoreType.INTEGER:
            return
        if (
            isinstance(target, InstRefType)
            and isinstance(value, InstRefType)
            and target.class_key == value.class_key
        ):
            return
        raise self.fail(f"cannot assign {value} to {target}", node)
