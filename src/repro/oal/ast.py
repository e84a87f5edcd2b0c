"""Abstract syntax for OAL.

Every node carries ``line``/``column`` for diagnostics.  Statements and
expressions are plain frozen dataclasses; the analyzer decorates them via
side tables (it never mutates the tree), and the model compiler's lowering
pass (:mod:`repro.mda.lower`) maps them 1:1 onto target IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Node:
    line: int = field(default=0, kw_only=True)
    column: int = field(default=0, kw_only=True)


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class RealLit(Expr):
    value: float


@dataclass(frozen=True)
class StringLit(Expr):
    value: str


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class EnumLit(Expr):
    """``DoorState::OPEN``"""

    enum_name: str
    enumerator: str


@dataclass(frozen=True)
class SelfRef(Expr):
    """``self``"""


@dataclass(frozen=True)
class SelectedRef(Expr):
    """``selected`` — the candidate instance inside a where clause."""


@dataclass(frozen=True)
class NameRef(Expr):
    """A local variable reference."""

    name: str


@dataclass(frozen=True)
class ParamRef(Expr):
    """``param.name`` — a data item of the event being handled."""

    name: str


@dataclass(frozen=True)
class AttrAccess(Expr):
    """``<expr>.attr`` where ``<expr>`` is an instance reference."""

    target: Expr
    attribute: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str          # '-', 'not', 'cardinality', 'empty', 'not_empty'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str          # + - * / % == != < <= > >= and or
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BridgeCall(Expr):
    """``EE::operation(name: expr, ...)`` — usable as expression or statement."""

    entity: str
    operation: str
    arguments: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class OperationCall(Expr):
    """``target.operation(name: expr, ...)`` — synchronous class operation."""

    target: Expr
    operation: str
    arguments: tuple[tuple[str, Expr], ...]


# --------------------------------------------------------------------------
# statements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Block(Node):
    statements: tuple[Stmt, ...]


@dataclass(frozen=True)
class Assign(Stmt):
    """``x = e;`` / ``self.a = e;`` / ``inst.a = e;``"""

    target: Expr      # NameRef or AttrAccess
    value: Expr


@dataclass(frozen=True)
class CreateInstance(Stmt):
    """``create object instance x of KL;``"""

    variable: str
    class_key: str


@dataclass(frozen=True)
class DeleteInstance(Stmt):
    """``delete object instance x;``"""

    target: Expr


@dataclass(frozen=True)
class SelectFromInstances(Stmt):
    """``select any|many x from instances of KL [where (...)];``"""

    variable: str
    many: bool
    class_key: str
    where: Expr | None = None


@dataclass(frozen=True)
class ChainHop(Node):
    """One ``->KL[Rn]`` / ``->KL[Rn.'phrase']`` navigation step."""

    class_key: str
    association: str
    phrase: str | None = None


@dataclass(frozen=True)
class SelectRelated(Stmt):
    """``select one|many x related by start->KL[Rn]... [where (...)];``"""

    variable: str
    many: bool
    start: Expr
    hops: tuple[ChainHop, ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Relate(Stmt):
    """``relate a to b across Rn['.phrase'];``"""

    left: Expr
    right: Expr
    association: str
    phrase: str | None = None


@dataclass(frozen=True)
class Unrelate(Stmt):
    """``unrelate a from b across Rn['.phrase'];``"""

    left: Expr
    right: Expr
    association: str
    phrase: str | None = None


@dataclass(frozen=True)
class Generate(Stmt):
    """``generate EV:KL (a: e, ...) to target [delay e];``

    ``target`` is an expression or ``SelfRef``.  ``class_key`` may be
    ``None`` when the label alone is unambiguous for the target.
    Creation events name the class and take ``target=None``.
    """

    event_label: str
    class_key: str | None
    arguments: tuple[tuple[str, Expr], ...]
    target: Expr | None
    delay: Expr | None = None


@dataclass(frozen=True)
class If(Stmt):
    """``if (...) ... [elif (...) ...] [else ...] end if;``

    ``branches`` pairs each condition with its block; ``orelse`` is the
    else block or ``None``.
    """

    branches: tuple[tuple[Expr, Block], ...]
    orelse: Block | None = None


@dataclass(frozen=True)
class While(Stmt):
    condition: Expr
    body: Block


@dataclass(frozen=True)
class ForEach(Stmt):
    variable: str
    iterable: Expr
    body: Block


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr | None = None


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """A bridge or operation call in statement position."""

    expr: Expr

