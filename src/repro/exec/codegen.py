"""Compile lowered action IR to Python — the one evaluation path.

Each IR block (an activity, operation or derived-attribute body) is
turned into the source of one Python function the first time it runs,
passed to :func:`compile`, and from then on called directly:
``function(executor, host, self_handle, params)``.  Statements become Python
statements and expressions become Python expressions, so ``break``,
``continue`` and ``return`` are native control flow and an expression
costs no per-node dispatch.

What the generated code keeps exact:

* **op count** — ``ops += 1`` before every statement; a ``finally`` adds
  the local count to ``executor.ops_executed``, so the count is exact
  even when a statement raises part-way through a block.
* **evaluation order** — operands left to right, as the IR lists them;
  ``generate`` evaluates its parameters, then its delay, then its
  target.
* **errors** — raised through the executor's ``_error`` /
  ``_selection_error`` constructors, read only when raising, so one
  compiled function serves every host and each keeps its own dialect.
* **unbound reads** — every OAL variable is a numbered Python local
  (``v0``, ``v1``, ...), never its OAL name: the OAL lexer accepts any
  ``isalnum()`` name, and Python would NFKC-normalise an identifier
  (``ﬁ`` and ``fi`` are one Python name) or reject it (``x²``).  A
  local that may be read before assignment starts as the sentinel ``U``
  and the read checks it; a read after a definite assignment does not.

Compiled functions are cached in memory at two levels: by block identity
(the lowering cache hands every executor the same lists) and by content
(``repr(block)``), so a csim/vsim manifest reloaded from the build store
shares code with the lowering.  :func:`clear_compiled_blocks` drops both;
:func:`repro.exec.clear_lowering_cache` calls it.  IR blocks are treated
as immutable once run.
"""

from __future__ import annotations

from .cvalues import as_instance_set, c_div, c_mod


#: the value of an OAL variable not yet assigned
UNBOUND = object()


def _raise(error):
    raise error


def _fail(executor, message, *operands):
    """Raise after the operands were evaluated (unknown operators)."""
    raise executor._error(message)


def _div(left, right, executor):
    if type(left) is int and type(right) is int and left >= 0 and right > 0:
        return left // right          # C and Python agree here
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            raise executor._error("integer division by zero")
        return c_div(left, right)
    if right == 0:
        raise executor._error("division by zero")
    return left / right


def _mod(left, right, executor):
    if type(left) is int and type(right) is int and left >= 0 and right > 0:
        return left % right           # C and Python agree here
    if right == 0:
        raise executor._error("integer remainder by zero")
    return c_mod(left, right)


def _hop(host, current, class_key, number, phrase):
    """One navigation hop from every handle in *current*, sorted."""
    gathered: set = set()
    for handle in current:
        gathered.update(host.navigate(handle, number, class_key, phrase))
    return tuple(sorted(gathered))


#: globals of every generated function
_NAMESPACE = {
    "U": UNBOUND, "_raise": _raise, "_fail": _fail, "_div": _div,
    "_mod": _mod, "_hop": _hop, "_set": as_instance_set,
}

# Python precedence of the generated expressions, loosest first; an
# operand is parenthesised only when its precedence needs it, so a long
# left-associative OAL chain compiles to a flat Python chain.
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _UNARY, _ATOM = range(1, 9)
_BINARY = {
    "==": _CMP, "!=": _CMP, "<": _CMP, "<=": _CMP, ">": _CMP, ">=": _CMP,
    "+": _ADD, "-": _ADD, "*": _MUL,
}


class _Generator:
    """Writes the Python source of one IR block."""

    def __init__(self):
        self.lines: list[str] = []
        self.constants: list = []
        self.locals: dict[str, str] = {}    # OAL variable -> Python local
        self.checked: set[str] = set()      # locals some read must check
        self.temps = 0
        self.loops = 0                      # OAL loops around the statement

    # -- names -------------------------------------------------------------

    def local(self, name) -> str:
        python = self.locals.get(name)
        if python is None:
            python = self.locals[name] = f"v{len(self.locals)}"
        return python

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def const(self, value) -> str:
        if (value is None or type(value) in (bool, str)
                or (type(value) is int and abs(value) < 2 ** 62)):
            return repr(value)
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def error(self, message: str) -> str:
        return f"ex._error({message!r})"

    def raising(self, message: str) -> str:
        return f"_raise({self.error(message)})"

    # -- statements --------------------------------------------------------

    def block(self, block, depth: int, assigned: frozenset) -> frozenset:
        """Emit *block*; returns the variables definitely assigned after it."""
        if not block:
            self.emit(depth, "pass")
        for stmt in block:
            self.emit(depth, "ops += 1")
            assigned = self.stmt(stmt, depth, assigned)
        return assigned

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def stmt(self, stmt, depth: int, assigned: frozenset) -> frozenset:
        tag = stmt[0]
        handler = getattr(self, f"stmt_{tag}", None)
        if handler is None:
            self.emit(depth, "raise " + self.error(
                f"unknown IR statement {tag!r}"))
            return assigned
        return handler(stmt, depth, assigned)

    def stmt_assign_var(self, stmt, depth, assigned):
        value = self.value(stmt[2], assigned)
        self.emit(depth, f"{self.local(stmt[1])} = {value}")
        return assigned | {stmt[1]}

    def stmt_assign_attr(self, stmt, depth, assigned):
        target = self.required(stmt[1], assigned)
        value = self.value(stmt[3], assigned)
        self.emit(depth, f"host.write_attribute({target}, "
                         f"{self.const(stmt[2])}, {value})")
        return assigned

    def stmt_create(self, stmt, depth, assigned):
        self.emit(depth, f"{self.local(stmt[1])} = "
                         f"host.create_instance({self.const(stmt[2])})")
        return assigned | {stmt[1]}

    def stmt_delete(self, stmt, depth, assigned):
        self.emit(depth, f"host.delete_instance("
                         f"{self.required(stmt[1], assigned)})")
        return assigned

    def stmt_select_extent(self, stmt, depth, assigned):
        handles = self.temp()
        self.emit(depth, f"{handles} = tuple(host.instances_of("
                         f"{self.const(stmt[3])}))")
        handles = self.where(handles, stmt[4], depth, assigned)
        if stmt[2]:
            self.emit(depth, f"{self.local(stmt[1])} = {handles}")
        else:
            self.emit(depth, f"{self.local(stmt[1])} = "
                             f"{handles}[0] if {handles} else None")
        return assigned | {stmt[1]}

    def stmt_select_related(self, stmt, depth, assigned):
        start = self.temp()
        self.emit(depth, f"{start} = {self.value(stmt[3], assigned)}")
        handles = self.temp()
        # the first hop leaves one handle: navigate's result is already
        # sorted and unique, so it needs no _hop
        (class_key, number, phrase), *hops = stmt[4]
        self.emit(depth, f"{handles} = () if {start} is None else "
                         f"host.navigate({start}, {self.const(number)}, "
                         f"{self.const(class_key)}, {self.const(phrase)})")
        for class_key, number, phrase in hops:
            self.emit(depth, f"{handles} = _hop(host, {handles}, "
                             f"{self.const(class_key)}, {self.const(number)}, "
                             f"{self.const(phrase)})")
        handles = self.where(handles, stmt[5], depth, assigned)
        if stmt[2]:
            self.emit(depth, f"{self.local(stmt[1])} = {handles}")
        else:
            prefix = f"select one {stmt[1]}: navigation produced "
            self.emit(depth, f"if len({handles}) > 1:")
            self.emit(depth + 1, f"raise ex._selection_error({prefix!r} + "
                                 f"str(len({handles})) + ' instances')")
            self.emit(depth, f"{self.local(stmt[1])} = "
                             f"{handles}[0] if {handles} else None")
        return assigned | {stmt[1]}

    def where(self, handles: str, where, depth: int, assigned) -> str:
        """Filter the tuple in *handles*; returns the name of the result."""
        if where is None:
            return handles
        kept, selected = self.temp(), self.temp()
        self.emit(depth, f"{kept} = []")
        self.emit(depth, f"for {selected} in {handles}:")
        self.emit(depth + 1,
                  f"if {self.value(where, assigned, selected)}:")
        self.emit(depth + 2, f"{kept}.append({selected})")
        self.emit(depth, f"{kept} = tuple({kept})")
        return kept

    def stmt_relate(self, stmt, depth, assigned):
        return self.link("relate", stmt, depth, assigned)

    def stmt_unrelate(self, stmt, depth, assigned):
        return self.link("unrelate", stmt, depth, assigned)

    def link(self, method, stmt, depth, assigned):
        left = self.required(stmt[1], assigned)
        right = self.required(stmt[2], assigned)
        self.emit(depth, f"host.{method}({left}, {right}, "
                         f"{self.const(stmt[3])}, {self.const(stmt[4])})")
        return assigned

    def stmt_generate(self, stmt, depth, assigned):
        label, class_key = self.const(stmt[1]), self.const(stmt[2])
        params = self.arguments(stmt[3], assigned)
        delay = ("0" if stmt[5] is None
                 else f"int({self.value(stmt[5], assigned)})")
        if stmt[4] is None:
            self.emit(depth, f"host.send_creation({class_key}, {label}, "
                             f"{params}, self_handle, {delay})")
            return assigned
        # the target is evaluated last, after the parameters and delay
        params_name, delay_name = self.temp(), self.temp()
        self.emit(depth, f"{params_name} = {params}")
        self.emit(depth, f"{delay_name} = {delay}")
        target = self.required(stmt[4], assigned)
        self.emit(depth, f"host.send_signal({target}, {class_key}, {label}, "
                         f"{params_name}, self_handle, {delay_name})")
        return assigned

    def stmt_if(self, stmt, depth, assigned):
        branches, orelse = stmt[1], stmt[2]
        after = None
        keyword = "if"
        for cond, body in branches:
            self.emit(depth, f"{keyword} {self.value(cond, assigned)}:")
            out = self.block(body, depth + 1, assigned)
            after = out if after is None else after & out
            keyword = "elif"
        if orelse is None:
            return assigned
        if branches:
            self.emit(depth, "else:")
            out = self.block(orelse, depth + 1, assigned)
        else:
            out = self.block(orelse, depth, assigned)
        return out if after is None else after & out

    def stmt_while(self, stmt, depth, assigned):
        guard, bound = self.temp(), self.temp()
        self.emit(depth, f"{guard} = 0")
        self.emit(depth, f"{bound} = host.loop_bound")
        self.emit(depth, f"while {self.value(stmt[1], assigned)}:")
        self.emit(depth + 1, f"{guard} += 1")
        self.emit(depth + 1, f"if {guard} > {bound}:")
        self.emit(depth + 2, f"raise ex._error("
                             f"f'while loop exceeded {{{bound}}} iterations')")
        self.loop_body(stmt[2], depth + 1, assigned)
        return assigned

    def stmt_foreach(self, stmt, depth, assigned):
        self.emit(depth, f"for {self.local(stmt[1])} in "
                         f"{self.value(stmt[2], assigned)}:")
        self.loop_body(stmt[3], depth + 1, assigned | {stmt[1]})
        return assigned

    def loop_body(self, body, depth, assigned) -> None:
        self.loops += 1
        self.block(body, depth, assigned)
        self.loops -= 1

    def stmt_break(self, stmt, depth, assigned):
        return self.jump("break", depth, assigned)

    def stmt_continue(self, stmt, depth, assigned):
        return self.jump("continue", depth, assigned)

    def jump(self, keyword, depth, assigned):
        if self.loops:
            self.emit(depth, keyword)
        else:
            self.emit(depth, "raise " + self.error(
                "break/continue escaped its loop"))
        return assigned

    def stmt_return(self, stmt, depth, assigned):
        value = "None" if stmt[1] is None else self.value(stmt[1], assigned)
        self.emit(depth, f"return {value}")
        return assigned

    def stmt_exprstmt(self, stmt, depth, assigned):
        self.emit(depth, self.value(stmt[1], assigned))
        return assigned

    # -- expressions -------------------------------------------------------

    def value(self, ir, assigned, selected: str = "None") -> str:
        return self.expr(ir, assigned, selected)[0]

    def required(self, ir, assigned, selected: str = "None") -> str:
        """*ir*'s value, raising on an empty instance reference."""
        source, _ = self.expr(ir, assigned, selected)
        fail = self.raising("empty instance reference")
        if source.isidentifier():
            return f"({source} if {source} is not None else {fail})"
        name = self.temp()
        return f"({name} if ({name} := {source}) is not None else {fail})"

    def arguments(self, pairs, assigned, selected: str = "None") -> str:
        items = ", ".join(
            f"{self.const(name)}: {self.value(value, assigned, selected)}"
            for name, value in pairs)
        return "{" + items + "}"

    def expr(self, ir, assigned, selected) -> tuple[str, int]:
        """Python source of *ir* and its precedence."""
        tag = ir[0]
        if tag in ("int", "real", "str", "bool"):
            source = self.const(ir[1])
            return source, _UNARY if source.startswith("-") else _ATOM
        if tag == "enum":
            return self.const(ir[2]), _ATOM
        if tag == "self":
            return "self_handle", _ATOM
        if tag == "selected":
            return selected, _ATOM
        if tag == "var":
            python = self.local(ir[1])
            if ir[1] in assigned:
                return python, _ATOM
            self.checked.add(python)
            fail = self.raising(f"variable {ir[1]!r} read before assignment")
            return f"({python} if {python} is not U else {fail})", _ATOM
        if tag == "param":
            key = self.const(ir[1])
            fail = self.raising(f"event carries no parameter {ir[1]!r}")
            return f"(params[{key}] if {key} in params else {fail})", _ATOM
        if tag == "attr":
            target = self.required(ir[1], assigned, selected)
            return (f"host.read_attribute({target}, {self.const(ir[2])})",
                    _ATOM)
        if tag == "un":
            return self.unary(ir, assigned, selected)
        if tag == "bin":
            return self.binary(ir, assigned, selected)
        if tag == "bridge":
            kwargs = self.arguments(ir[3], assigned, selected)
            return (f"host.call_bridge(self_handle, {self.const(ir[1])}, "
                    f"{self.const(ir[2])}, {kwargs})", _ATOM)
        if tag == "classop":
            kwargs = self.arguments(ir[3], assigned, selected)
            return (f"host.call_class_operation({self.const(ir[1])}, "
                    f"{self.const(ir[2])}, {kwargs})", _ATOM)
        if tag == "instop":
            target = self.required(ir[1], assigned, selected)
            kwargs = self.arguments(ir[3], assigned, selected)
            return (f"host.call_instance_operation({target}, "
                    f"{self.const(ir[2])}, {kwargs})", _ATOM)
        return self.raising(f"unknown IR expression {tag!r}"), _ATOM

    def unary(self, ir, assigned, selected) -> tuple[str, int]:
        op = ir[1]
        operand, prec = self.expr(ir[2], assigned, selected)
        if op == "-":
            return f"-{_wrap(operand, prec < _UNARY)}", _UNARY
        if op == "not":
            return f"not {_wrap(operand, prec < _NOT)}", _NOT
        if op == "cardinality":
            return f"len(_set({operand}))", _ATOM
        if op == "empty":
            return f"len(_set({operand})) == 0", _CMP
        if op == "not_empty":
            return f"len(_set({operand})) != 0", _CMP
        message = f"unknown unary operator {op!r}"
        return f"_fail(ex, {message!r}, {operand})", _ATOM

    def binary(self, ir, assigned, selected) -> tuple[str, int]:
        op = ir[1]
        left, left_prec = self.expr(ir[2], assigned, selected)
        right, right_prec = self.expr(ir[3], assigned, selected)
        if op in ("and", "or"):
            prec = _AND if op == "and" else _OR
            left, left_prec = _truth(left, left_prec)
            right, right_prec = _truth(right, right_prec)
            return (f"{_wrap(left, left_prec < prec)} {op} "
                    f"{_wrap(right, right_prec <= prec)}", prec)
        prec = _BINARY.get(op)
        if prec is not None:
            # comparisons do not chain: parenthesise a comparison operand
            left_needs = left_prec < prec or left_prec == prec == _CMP
            return (f"{_wrap(left, left_needs)} {op} "
                    f"{_wrap(right, right_prec <= prec)}", prec)
        if op in ("/", "%"):
            helper = "_div" if op == "/" else "_mod"
            divisor = ir[3]
            if not (divisor[0] == "int" and type(divisor[1]) is int
                    and divisor[1] > 0):
                return f"{helper}({left}, {right}, ex)", _ATOM
            # a positive literal divisor: the helper's fast path, inline,
            # so only a dividend that is not a non-negative int calls it
            if left.isidentifier():
                name, test = left, f"type({left}) is int"
            else:
                name = self.temp()
                test = f"type({name} := {left}) is int"
            python = "//" if op == "/" else "%"
            return (f"({name} {python} {right} if {test} and {name} >= 0 "
                    f"else {helper}({name}, {right}, ex))"), _ATOM
        message = f"unknown binary operator {op!r}"
        return f"_fail(ex, {message!r}, {left}, {right})", _ATOM

    # -- the function ------------------------------------------------------

    def source(self, block) -> str:
        self.block(block, 3, frozenset())
        body, self.lines = self.lines, []
        constants = ", ".join(f"k{index}"
                              for index in range(len(self.constants)))
        self.emit(0, f"def make({constants}):")
        self.emit(1, "def run(ex, host, self_handle, params):")
        if self.checked:
            self.emit(2, " = ".join(sorted(self.checked)) + " = U")
        self.emit(2, "ops = 0")
        self.emit(2, "try:")
        self.lines.extend(body)
        self.emit(2, "finally:")
        self.emit(3, "ex.ops_executed += ops")
        self.emit(1, "return run")
        return "\n".join(self.lines) + "\n"


def _wrap(source: str, needed: bool) -> str:
    return f"({source})" if needed else source


def _truth(source: str, prec: int) -> tuple[str, int]:
    """*source* coerced to bool as ``bool()`` would; and/or/not already are."""
    if prec in (_AND, _OR, _NOT):
        return source, prec
    return f"not not {source}", _NOT


def compile_block(block):
    """Compile *block* to ``function(executor, host, self_handle, params)``."""
    generator = _Generator()
    source = generator.source(block)
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<repro.exec block>", "exec"), namespace)
    return namespace["make"](*generator.constants)


#: id(block) -> (block, function); the block is kept so its id stays unique
_by_identity: dict[int, tuple[list, object]] = {}
#: repr(block) -> function
_by_content: dict[str, object] = {}
#: the identity memo is dropped (not the content cache) past this size
_IDENTITY_LIMIT = 4096


def compiled(block):
    """The compiled function for *block*, generated on its first run."""
    entry = _by_identity.get(id(block))
    if entry is not None and entry[0] is block:
        return entry[1]
    key = repr(block)
    function = _by_content.get(key)
    if function is None:
        function = _by_content[key] = compile_block(block)
    if len(_by_identity) >= _IDENTITY_LIMIT:
        _by_identity.clear()
    _by_identity[id(block)] = (block, function)
    return function


def clear_compiled_blocks() -> None:
    """Drop every compiled block (both cache levels)."""
    _by_identity.clear()
    _by_content.clear()
