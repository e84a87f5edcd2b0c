"""The one IR evaluator — every executor runs actions through this.

:class:`IRExecutor` evaluates the lowered action IR of :mod:`.ir`
against a *host*: the object that owns instances, links, signals and
bridges.  The abstract runtime (:class:`repro.runtime.Simulation`), the
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
  ``navigate(h, rnum, class_key, phrase)``
* signals — ``send_signal(target, class_key, label, params, sender=,
  delay=)``, ``send_creation(class_key, label, params, sender=, delay=)``
* calls — ``call_bridge(self_handle, entity, op, kwargs)`` (the executors'
  shared ``Dispatcher`` serves it from their ``bridges`` table),
  ``call_class_operation(class_key, op, kwargs)``,
  ``call_instance_operation(h, op, kwargs)``
* policy — ``loop_bound`` (read on every loop, so a host may tighten it
  after construction)

Failure types are the host's dialect: the abstract runtime reports
``OALRuntimeError``/``SelectionError``, the architecture runtime reports
``ArchError``.  The evaluator takes both constructors at creation time
so the *meaning* of a failure is shared while its type stays layer-local.
"""

from __future__ import annotations

from repro.oal.errors import OALRuntimeError

from .controlflow import BreakSignal, ContinueSignal, ReturnSignal
from .cvalues import as_instance_set, c_div, c_mod

#: Name `repro check` and diagnostics print for the unified core.
CORE_NAME = "repro.exec"


class Frame:
    """One activity/operation invocation: locals, self, params, selected."""

    __slots__ = ("locals", "self_handle", "params", "selected")

    def __init__(self, self_handle, params):
        self.locals: dict[str, object] = {}
        self.self_handle = self_handle
        self.params = dict(params)
        self.selected = None


class IRExecutor:
    """Executes lowered action IR against a host (see module docstring).

    One executor is created per host and reused for every activity,
    operation and derived-attribute body; each :meth:`run` opens a fresh
    :class:`Frame`, so reentrant calls (an operation invoked from an
    activity) nest safely.  ``ops_executed`` counts dynamically executed
    IR statements across all frames — the architecture cost model's raw
    material.
    """

    __slots__ = ("host", "ops_executed", "_error", "_selection_error",
                 "_stmt", "_expr")

    def __init__(self, host, error=OALRuntimeError, selection_error=None):
        self.host = host
        self.ops_executed = 0
        self._error = error
        self._selection_error = selection_error or error
        # Bind both dispatch tables once; evaluation then costs one dict
        # lookup per node instead of a getattr-by-name chain per visit.
        self._stmt = {
            "assign_var": self._stmt_assign_var,
            "assign_attr": self._stmt_assign_attr,
            "create": self._stmt_create,
            "delete": self._stmt_delete,
            "select_extent": self._stmt_select_extent,
            "select_related": self._stmt_select_related,
            "relate": self._stmt_relate,
            "unrelate": self._stmt_unrelate,
            "generate": self._stmt_generate,
            "if": self._stmt_if,
            "while": self._stmt_while,
            "foreach": self._stmt_foreach,
            "break": self._stmt_break,
            "continue": self._stmt_continue,
            "return": self._stmt_return,
            "exprstmt": self._stmt_exprstmt,
        }
        self._expr = {
            "int": self._expr_literal,
            "real": self._expr_literal,
            "str": self._expr_literal,
            "bool": self._expr_literal,
            "enum": self._expr_enum,
            "self": self._expr_self,
            "selected": self._expr_selected,
            "var": self._expr_var,
            "param": self._expr_param,
            "attr": self._expr_attr,
            "un": self._expr_un,
            "bin": self._expr_bin,
            "bridge": self._expr_bridge,
            "classop": self._expr_classop,
            "instop": self._expr_instop,
        }

    # -- entry point ----------------------------------------------------------

    def run(self, block: list, self_handle, params):
        """Execute one IR block; returns the ``return`` value, if any."""
        frame = Frame(self_handle, params)
        try:
            self._exec_block(block, frame)
        except ReturnSignal as ret:
            return ret.value
        except (BreakSignal, ContinueSignal):  # pragma: no cover - analyzer prevents
            raise self._error("break/continue escaped its loop") from None
        return None

    # -- statements ------------------------------------------------------------

    def _exec_block(self, block: list, frame: Frame) -> None:
        stmt_table = self._stmt
        for stmt in block:
            self.ops_executed += 1
            try:
                handler = stmt_table[stmt[0]]
            except KeyError:
                raise self._error(f"unknown IR statement {stmt[0]!r}") from None
            handler(stmt, frame)

    def _stmt_assign_var(self, stmt, frame) -> None:
        frame.locals[stmt[1]] = self._eval(stmt[2], frame)

    def _stmt_assign_attr(self, stmt, frame) -> None:
        handle = self._require(self._eval(stmt[1], frame))
        self.host.write_attribute(handle, stmt[2], self._eval(stmt[3], frame))

    def _stmt_create(self, stmt, frame) -> None:
        frame.locals[stmt[1]] = self.host.create_instance(stmt[2])

    def _stmt_delete(self, stmt, frame) -> None:
        self.host.delete_instance(self._require(self._eval(stmt[1], frame)))

    def _stmt_select_extent(self, stmt, frame) -> None:
        handles = self.host.instances_of(stmt[3])
        handles = self._filter(handles, stmt[4], frame)
        if stmt[2]:
            frame.locals[stmt[1]] = tuple(handles)
        else:
            frame.locals[stmt[1]] = handles[0] if handles else None

    def _stmt_select_related(self, stmt, frame) -> None:
        start = self._eval(stmt[3], frame)
        current = () if start is None else (start,)
        for class_key, number, phrase in stmt[4]:
            gathered: set[int] = set()
            for handle in current:
                gathered.update(
                    self.host.navigate(handle, number, class_key, phrase))
            current = tuple(sorted(gathered))
        current = self._filter(current, stmt[5], frame)
        if stmt[2]:
            frame.locals[stmt[1]] = tuple(current)
        else:
            if len(current) > 1:
                raise self._selection_error(
                    f"select one {stmt[1]}: navigation produced "
                    f"{len(current)} instances")
            frame.locals[stmt[1]] = current[0] if current else None

    def _stmt_relate(self, stmt, frame) -> None:
        self.host.relate(
            self._require(self._eval(stmt[1], frame)),
            self._require(self._eval(stmt[2], frame)),
            stmt[3], stmt[4],
        )

    def _stmt_unrelate(self, stmt, frame) -> None:
        self.host.unrelate(
            self._require(self._eval(stmt[1], frame)),
            self._require(self._eval(stmt[2], frame)),
            stmt[3], stmt[4],
        )

    def _stmt_generate(self, stmt, frame) -> None:
        params = {name: self._eval(value, frame) for name, value in stmt[3]}
        delay = int(self._eval(stmt[5], frame)) if stmt[5] is not None else 0
        if stmt[4] is None:
            self.host.send_creation(stmt[2], stmt[1], params,
                                    sender=frame.self_handle, delay=delay)
        else:
            target = self._require(self._eval(stmt[4], frame))
            self.host.send_signal(target, stmt[2], stmt[1], params,
                                  sender=frame.self_handle, delay=delay)

    def _stmt_if(self, stmt, frame) -> None:
        for cond, body in stmt[1]:
            if self._eval(cond, frame):
                self._exec_block(body, frame)
                return
        if stmt[2] is not None:
            self._exec_block(stmt[2], frame)

    def _stmt_while(self, stmt, frame) -> None:
        guard = 0
        bound = self.host.loop_bound
        while self._eval(stmt[1], frame):
            guard += 1
            if guard > bound:
                raise self._error(
                    f"while loop exceeded {bound} iterations")
            try:
                self._exec_block(stmt[2], frame)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _stmt_foreach(self, stmt, frame) -> None:
        for handle in self._eval(stmt[2], frame):
            frame.locals[stmt[1]] = handle
            try:
                self._exec_block(stmt[3], frame)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _stmt_break(self, stmt, frame) -> None:
        raise BreakSignal

    def _stmt_continue(self, stmt, frame) -> None:
        raise ContinueSignal

    def _stmt_return(self, stmt, frame) -> None:
        raise ReturnSignal(
            self._eval(stmt[1], frame) if stmt[1] is not None else None)

    def _stmt_exprstmt(self, stmt, frame) -> None:
        self._eval(stmt[1], frame)

    def _filter(self, handles, where, frame: Frame):
        handles = tuple(handles)
        if where is None:
            return handles
        kept = []
        outer = frame.selected
        try:
            for handle in handles:
                frame.selected = handle
                if self._eval(where, frame):
                    kept.append(handle)
        finally:
            frame.selected = outer
        return tuple(kept)

    # -- expressions -------------------------------------------------------------

    def _eval(self, ir: list, frame: Frame):
        try:
            handler = self._expr[ir[0]]
        except KeyError:
            raise self._error(f"unknown IR expression {ir[0]!r}") from None
        return handler(ir, frame)

    def _expr_literal(self, ir, frame):
        return ir[1]

    def _expr_enum(self, ir, frame):
        return ir[2]   # enumerator name — one value space on every target

    def _expr_self(self, ir, frame):
        return frame.self_handle

    def _expr_selected(self, ir, frame):
        return frame.selected

    def _expr_var(self, ir, frame):
        try:
            return frame.locals[ir[1]]
        except KeyError:
            raise self._error(
                f"variable {ir[1]!r} read before assignment") from None

    def _expr_param(self, ir, frame):
        try:
            return frame.params[ir[1]]
        except KeyError:
            raise self._error(
                f"event carries no parameter {ir[1]!r}") from None

    def _expr_attr(self, ir, frame):
        handle = self._require(self._eval(ir[1], frame))
        return self.host.read_attribute(handle, ir[2])

    def _expr_un(self, ir, frame):
        op = ir[1]
        value = self._eval(ir[2], frame)
        if op == "-":
            return -value
        if op == "not":
            return not value
        if op == "cardinality":
            return len(as_instance_set(value))
        if op == "empty":
            return len(as_instance_set(value)) == 0
        if op == "not_empty":
            return len(as_instance_set(value)) != 0
        raise self._error(f"unknown unary operator {op!r}")

    def _expr_bin(self, ir, frame):
        op = ir[1]
        if op == "and":
            return bool(self._eval(ir[2], frame)) and bool(
                self._eval(ir[3], frame))
        if op == "or":
            return bool(self._eval(ir[2], frame)) or bool(
                self._eval(ir[3], frame))
        left = self._eval(ir[2], frame)
        right = self._eval(ir[3], frame)
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
                raise self._error("division by zero")
            return left / right
        if op == "%":
            return c_mod(left, right)
        raise self._error(f"unknown binary operator {op!r}")

    def _expr_bridge(self, ir, frame):
        kwargs = {name: self._eval(value, frame) for name, value in ir[3]}
        return self.host.call_bridge(frame.self_handle, ir[1], ir[2], kwargs)

    def _expr_classop(self, ir, frame):
        kwargs = {name: self._eval(value, frame) for name, value in ir[3]}
        return self.host.call_class_operation(ir[1], ir[2], kwargs)

    def _expr_instop(self, ir, frame):
        target = self._require(self._eval(ir[1], frame))
        kwargs = {name: self._eval(value, frame) for name, value in ir[3]}
        return self.host.call_instance_operation(target, ir[2], kwargs)

    # -- misc --------------------------------------------------------------------

    def _require(self, handle):
        if handle is None:
            raise self._error("empty instance reference")
        return handle
