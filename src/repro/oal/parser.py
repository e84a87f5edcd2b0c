"""Recursive-descent parser for OAL.

Entry point: :func:`parse_activity` -> :class:`repro.oal.ast.Block`.

The grammar is the executable core described in the package docstring.
Statement forms are disambiguated by one or two tokens of lookahead;
expressions use classic precedence climbing (or < and < not < comparison
< additive < multiplicative < unary < postfix).
"""

from __future__ import annotations

from . import ast
from .errors import OALSyntaxError
from .lexer import tokenize
from .tokens import Token, TokenKind

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def parse_activity(text: str) -> ast.Block:
    """Parse activity text into a :class:`Block` (raises OALSyntaxError)."""
    return _Parser(tokenize(text)).parse_block_until(("<eof>",))


def parse_expression(text: str) -> ast.Expr:
    """Parse a single expression (used for derived attributes and tests)."""
    parser = _Parser(tokenize(text))
    expr = parser.expression()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def error(self, message: str, token: Token | None = None) -> OALSyntaxError:
        token = token or self.current
        return OALSyntaxError(f"{message}, found {token}", token.line, token.column)

    def at(self, text: str) -> bool:
        token = self.current
        return (
            token.kind in (TokenKind.OP, TokenKind.KEYWORD) and token.text == text
        )

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_name(self, what: str = "a name") -> Token:
        if self.current.kind is not TokenKind.NAME:
            raise self.error(f"expected {what}")
        return self.advance()

    def expect_eof(self) -> None:
        if self.current.kind is not TokenKind.EOF:
            raise self.error("expected end of input")

    # -- statements ---------------------------------------------------------

    def parse_block_until(self, stops: tuple[str, ...]) -> ast.Block:
        """Parse statements until one of *stops* ('<eof>' meaning EOF)."""
        statements: list[ast.Stmt] = []
        while True:
            token = self.current
            if token.kind is TokenKind.EOF:
                if "<eof>" in stops:
                    return ast.Block(tuple(statements))
                raise self.error("unexpected end of activity")
            if token.kind is TokenKind.KEYWORD and token.text in stops:
                return ast.Block(tuple(statements))
            statements.append(self.statement())

    def statement(self) -> ast.Stmt:
        token = self.current
        if token.kind is TokenKind.KEYWORD:
            handler = {
                "create": self._create_stmt,
                "delete": self._delete_stmt,
                "select": self._select_stmt,
                "relate": self._relate_stmt,
                "unrelate": self._unrelate_stmt,
                "generate": self._generate_stmt,
                "if": self._if_stmt,
                "while": self._while_stmt,
                "for": self._for_stmt,
                "break": self._break_stmt,
                "continue": self._continue_stmt,
                "return": self._return_stmt,
                "self": self._call_or_assign_stmt,
            }.get(token.text)
            if handler is None:
                raise self.error("unexpected keyword at statement start")
            return handler()
        if token.kind is TokenKind.NAME:
            return self._call_or_assign_stmt()
        raise self.error("expected a statement")

    def _call_or_assign_stmt(self) -> ast.Stmt:
        """``E::b(...);``, ``x.op(...);`` and ``self.op(...);`` are calls;
        anything else starting with a name or ``self`` is an assignment."""
        nxt = self.peek()
        if nxt.kind is TokenKind.OP and (
            (nxt.text == "::" and self.current.kind is TokenKind.NAME)
            or (nxt.text == "."
                and self.peek(2).kind is TokenKind.NAME
                and self.peek(3).kind is TokenKind.OP
                and self.peek(3).text == "(")
        ):
            return self._call_stmt()
        return self._assign_stmt()

    def _assign_stmt(self) -> ast.Assign:
        token = self.current
        target = self._assign_target()
        self.expect("=")
        value = self.expression()
        self.expect(";")
        return ast.Assign(target, value, line=token.line, column=token.column)

    def _assign_target(self) -> ast.Expr:
        token = self.current
        if self.accept("self"):
            base: ast.Expr = ast.SelfRef(line=token.line, column=token.column)
            self.expect(".")
            attr = self.expect_name("an attribute name")
            return ast.AttrAccess(base, attr.text, line=token.line, column=token.column)
        name = self.expect_name("an assignment target")
        base = ast.NameRef(name.text, line=name.line, column=name.column)
        if self.accept("."):
            attr = self.expect_name("an attribute name")
            return ast.AttrAccess(base, attr.text, line=name.line, column=name.column)
        return base

    def _call_stmt(self) -> ast.ExprStmt:
        token = self.current
        expr = self.expression()
        if not isinstance(expr, (ast.BridgeCall, ast.OperationCall)):
            raise self.error("only bridge/operation calls may stand alone", token)
        self.expect(";")
        return ast.ExprStmt(expr, line=token.line, column=token.column)

    def _create_stmt(self) -> ast.CreateInstance:
        token = self.expect("create")
        self.expect("object")
        self.expect("instance")
        variable = self.expect_name("a variable name")
        self.expect("of")
        class_key = self.expect_name("class key letters")
        self.expect(";")
        return ast.CreateInstance(
            variable.text, class_key.text, line=token.line, column=token.column
        )

    def _delete_stmt(self) -> ast.DeleteInstance:
        token = self.expect("delete")
        self.expect("object")
        self.expect("instance")
        target = self.expression()
        self.expect(";")
        return ast.DeleteInstance(target, line=token.line, column=token.column)

    def _select_stmt(self) -> ast.Stmt:
        token = self.expect("select")
        if self.accept("any"):
            many = False
            related = False
        elif self.accept("many"):
            many = True
            related = None  # decided by the next clause
        elif self.accept("one"):
            many = False
            related = True
        else:
            raise self.error("expected 'any', 'many' or 'one' after 'select'")
        variable = self.expect_name("a variable name")

        if self.at("from"):
            if related is True:
                raise self.error("'select one' requires 'related by'")
            self.expect("from")
            self.expect("instances")
            self.expect("of")
            class_key = self.expect_name("class key letters")
            where = self._optional_where()
            self.expect(";")
            return ast.SelectFromInstances(
                variable.text, many, class_key.text, where,
                line=token.line, column=token.column,
            )

        self.expect("related")
        self.expect("by")
        start = self._chain_start()
        hops = [self._chain_hop()]
        while self.at("->"):
            hops.append(self._chain_hop())
        where = self._optional_where()
        self.expect(";")
        return ast.SelectRelated(
            variable.text, bool(many), start, tuple(hops), where,
            line=token.line, column=token.column,
        )

    def _chain_start(self) -> ast.Expr:
        token = self.current
        if self.accept("self"):
            return ast.SelfRef(line=token.line, column=token.column)
        if self.accept("selected"):
            return ast.SelectedRef(line=token.line, column=token.column)
        name = self.expect_name("an instance variable")
        return ast.NameRef(name.text, line=name.line, column=name.column)

    def _chain_hop(self) -> ast.ChainHop:
        arrow = self.expect("->")
        class_key = self.expect_name("class key letters")
        self.expect("[")
        assoc = self.expect_name("an association number")
        phrase = None
        if self.accept("."):
            if self.current.kind is not TokenKind.STRING:
                raise self.error("expected a quoted phrase after '.'")
            phrase = self.advance().text
        self.expect("]")
        return ast.ChainHop(
            class_key.text, assoc.text, phrase, line=arrow.line, column=arrow.column
        )

    def _optional_where(self) -> ast.Expr | None:
        if not self.accept("where"):
            return None
        self.expect("(")
        condition = self.expression()
        self.expect(")")
        return condition

    def _relate_stmt(self) -> ast.Relate:
        token = self.expect("relate")
        left = self._instance_ref()
        self.expect("to")
        right = self._instance_ref()
        self.expect("across")
        assoc, phrase = self._assoc_ref()
        self.expect(";")
        return ast.Relate(
            left, right, assoc, phrase, line=token.line, column=token.column
        )

    def _unrelate_stmt(self) -> ast.Unrelate:
        token = self.expect("unrelate")
        left = self._instance_ref()
        self.expect("from")
        right = self._instance_ref()
        self.expect("across")
        assoc, phrase = self._assoc_ref()
        self.expect(";")
        return ast.Unrelate(
            left, right, assoc, phrase, line=token.line, column=token.column
        )

    def _instance_ref(self) -> ast.Expr:
        token = self.current
        if self.accept("self"):
            return ast.SelfRef(line=token.line, column=token.column)
        name = self.expect_name("an instance variable")
        return ast.NameRef(name.text, line=name.line, column=name.column)

    def _assoc_ref(self) -> tuple[str, str | None]:
        assoc = self.expect_name("an association number")
        phrase = None
        if self.accept("."):
            if self.current.kind is not TokenKind.STRING:
                raise self.error("expected a quoted phrase after '.'")
            phrase = self.advance().text
        return assoc.text, phrase

    def _generate_stmt(self) -> ast.Generate:
        token = self.expect("generate")
        label = self.expect_name("an event label")
        class_key = None
        if self.accept(":"):
            class_key = self.expect_name("class key letters").text
        arguments: tuple[tuple[str, ast.Expr], ...] = ()
        if self.at("("):
            arguments = self._argument_list()
        target: ast.Expr | None = None
        if self.accept("to"):
            tok = self.current
            if self.accept("self"):
                target = ast.SelfRef(line=tok.line, column=tok.column)
            else:
                target = self.expression()
        delay = None
        if self.accept("delay"):
            delay = self.expression()
        self.expect(";")
        return ast.Generate(
            label.text, class_key, arguments, target, delay,
            line=token.line, column=token.column,
        )

    def _argument_list(self) -> tuple[tuple[str, ast.Expr], ...]:
        self.expect("(")
        arguments: list[tuple[str, ast.Expr]] = []
        if not self.at(")"):
            while True:
                name = self.expect_name("an argument name")
                self.expect(":")
                arguments.append((name.text, self.expression()))
                if not self.accept(","):
                    break
        self.expect(")")
        return tuple(arguments)

    def _if_stmt(self) -> ast.If:
        token = self.expect("if")
        branches: list[tuple[ast.Expr, ast.Block]] = []
        self.expect("(")
        condition = self.expression()
        self.expect(")")
        block = self.parse_block_until(("elif", "else", "end"))
        branches.append((condition, block))
        orelse = None
        while self.at("elif"):
            self.expect("elif")
            self.expect("(")
            condition = self.expression()
            self.expect(")")
            block = self.parse_block_until(("elif", "else", "end"))
            branches.append((condition, block))
        if self.accept("else"):
            orelse = self.parse_block_until(("end",))
        self.expect("end")
        self.expect("if")
        self.expect(";")
        return ast.If(tuple(branches), orelse, line=token.line, column=token.column)

    def _while_stmt(self) -> ast.While:
        token = self.expect("while")
        self.expect("(")
        condition = self.expression()
        self.expect(")")
        body = self.parse_block_until(("end",))
        self.expect("end")
        self.expect("while")
        self.expect(";")
        return ast.While(condition, body, line=token.line, column=token.column)

    def _for_stmt(self) -> ast.ForEach:
        token = self.expect("for")
        self.expect("each")
        variable = self.expect_name("a loop variable")
        self.expect("in")
        iterable = self.expression()
        body = self.parse_block_until(("end",))
        self.expect("end")
        self.expect("for")
        self.expect(";")
        return ast.ForEach(
            variable.text, iterable, body, line=token.line, column=token.column
        )

    def _break_stmt(self) -> ast.Break:
        token = self.expect("break")
        self.expect(";")
        return ast.Break(line=token.line, column=token.column)

    def _continue_stmt(self) -> ast.Continue:
        token = self.expect("continue")
        self.expect(";")
        return ast.Continue(line=token.line, column=token.column)

    def _return_stmt(self) -> ast.Return:
        token = self.expect("return")
        value = None
        if not self.at(";"):
            value = self.expression()
        self.expect(";")
        return ast.Return(value, line=token.line, column=token.column)

    # -- expressions ----------------------------------------------------------

    def expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self.at("or"):
            token = self.advance()
            right = self._and_expr()
            left = ast.Binary("or", left, right, line=token.line, column=token.column)
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self.at("and"):
            token = self.advance()
            right = self._not_expr()
            left = ast.Binary("and", left, right, line=token.line, column=token.column)
        return left

    def _not_expr(self) -> ast.Expr:
        if self.at("not"):
            token = self.advance()
            operand = self._not_expr()
            return ast.Unary("not", operand, line=token.line, column=token.column)
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        if self.current.kind is TokenKind.OP and self.current.text in _COMPARISONS:
            token = self.advance()
            right = self._additive()
            return ast.Binary(
                token.text, left, right, line=token.line, column=token.column
            )
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self.current.kind is TokenKind.OP and self.current.text in ("+", "-"):
            token = self.advance()
            right = self._multiplicative()
            left = ast.Binary(
                token.text, left, right, line=token.line, column=token.column
            )
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self.current.kind is TokenKind.OP and self.current.text in ("*", "/", "%"):
            token = self.advance()
            right = self._unary()
            left = ast.Binary(
                token.text, left, right, line=token.line, column=token.column
            )
        return left

    def _unary(self) -> ast.Expr:
        token = self.current
        if self.at("-"):
            self.advance()
            operand = self._unary()
            return ast.Unary("-", operand, line=token.line, column=token.column)
        for keyword in ("cardinality", "empty", "not_empty"):
            if self.at(keyword):
                self.advance()
                operand = self._unary()
                return ast.Unary(
                    keyword, operand, line=token.line, column=token.column
                )
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            if self.at("."):
                dot = self.advance()
                name = self.expect_name("an attribute or operation name")
                if self.at("("):
                    arguments = self._argument_list()
                    expr = ast.OperationCall(
                        expr, name.text, arguments, line=dot.line, column=dot.column
                    )
                else:
                    expr = ast.AttrAccess(
                        expr, name.text, line=dot.line, column=dot.column
                    )
                continue
            break
        return expr

    def _primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.INTEGER:
            self.advance()
            return ast.IntLit(int(token.text), line=token.line, column=token.column)
        if token.kind is TokenKind.REAL:
            self.advance()
            return ast.RealLit(float(token.text), line=token.line, column=token.column)
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.StringLit(token.text, line=token.line, column=token.column)
        if self.accept("true"):
            return ast.BoolLit(True, line=token.line, column=token.column)
        if self.accept("false"):
            return ast.BoolLit(False, line=token.line, column=token.column)
        if self.accept("self"):
            return ast.SelfRef(line=token.line, column=token.column)
        if self.accept("selected"):
            return ast.SelectedRef(line=token.line, column=token.column)
        if self.accept("param"):
            self.expect(".")
            name = self.expect_name("an event parameter name")
            return ast.ParamRef(name.text, line=token.line, column=token.column)
        if self.accept("rcvd_evt"):
            self.expect(".")
            name = self.expect_name("an event parameter name")
            return ast.ParamRef(name.text, line=token.line, column=token.column)
        if self.accept("("):
            expr = self.expression()
            self.expect(")")
            return expr
        if token.kind is TokenKind.NAME:
            name = self.advance()
            if self.at("::"):
                self.advance()
                member = self.expect_name("an enumerator or bridge name")
                if self.at("("):
                    arguments = self._argument_list()
                    return ast.BridgeCall(
                        name.text, member.text, arguments,
                        line=name.line, column=name.column,
                    )
                return ast.EnumLit(
                    name.text, member.text, line=name.line, column=name.column
                )
            return ast.NameRef(name.text, line=name.line, column=name.column)
        raise self.error("expected an expression")
