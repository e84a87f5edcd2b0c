"""Differential evidence that compiling IR blocks changed nothing observable.

The live :class:`repro.exec.IRExecutor` compiles each lowered block to a
Python function; the dict-dispatch walker it replaced is pinned verbatim
in :mod:`tests.exec.pinned_ir_interpreter`.  Both run the same blocks
against a recording fake host, and must agree on the return value, the
op count, every host call (in order, with its arguments) and the type
and message of any error.

The one allowed difference is integer division or remainder by zero:
the walker raised ``OALRuntimeError`` whatever the host's dialect, the
compiled path raises the host's own error type with the same message.
A block nested past what CPython can compile (20 loops deep) is the one
limit: the walker ran it, the compiled path raises the host's error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import IRExecutor
from repro.oal.errors import OALRuntimeError

from . import pinned_ir_interpreter as walker


class HostError(Exception):
    """The fake host's error dialect."""


class HostSelectionError(Exception):
    """The fake host's selection error."""


#: instances of each class key the fake host reports
EXTENTS = {"A": (1, 2, 3), "B": (), "C": (4,)}
#: the walker's message for what now raises in the host's dialect
ZERO_DIVISION = ("integer division by zero", "integer remainder by zero")


class RecordingHost:
    """Logs every call the evaluator makes; answers deterministically."""

    def __init__(self, operations):
        self.log = []
        self.loop_bound = 100
        self.operations = operations
        self.attributes = {}
        self.next_handle = 10
        self.depth = 0
        #: ``run(block, self_handle, params)`` of the executor under test
        self.run = None

    def create_instance(self, class_key):
        self.next_handle += 1
        self.log.append(("create", class_key, self.next_handle))
        return self.next_handle

    def delete_instance(self, handle):
        self.log.append(("delete", repr(handle)))
        if handle == 3:
            raise HostError("instance 3 is pinned")

    def instances_of(self, class_key):
        self.log.append(("extent", class_key))
        return EXTENTS.get(class_key, ())

    def read_attribute(self, handle, name):
        self.log.append(("read", repr(handle), name))
        if name == "boom":
            raise HostError("attribute boom is unreadable")
        return self.attributes.get((repr(handle), name), len(repr(handle)))

    def write_attribute(self, handle, name, value):
        self.log.append(("write", repr(handle), name, repr(value)))
        self.attributes[(repr(handle), name)] = value

    def relate(self, left, right, number, phrase):
        self.log.append(("relate", repr(left), repr(right), number, phrase))

    def unrelate(self, left, right, number, phrase):
        self.log.append(("unrelate", repr(left), repr(right), number, phrase))

    def navigate(self, handle, number, class_key, phrase):
        self.log.append(("navigate", repr(handle), number, class_key, phrase))
        base = len(repr(handle)) + len(class_key)
        return tuple(range(base % 4, base % 4 + base % 3))

    def send_signal(self, target, class_key, label, params, sender=None,
                    delay=0):
        self.log.append(("send", repr(target), class_key, label,
                         repr(params), repr(sender), repr(delay)))

    def send_creation(self, class_key, label, params, sender=None, delay=0):
        self.log.append(("create-send", class_key, label, repr(params),
                         repr(sender), repr(delay)))

    def call_bridge(self, self_handle, entity, operation, kwargs):
        self.log.append(("bridge", repr(self_handle), entity, operation,
                         repr(kwargs)))
        if operation == "tighten":
            self.loop_bound = 1
        if operation == "fail":
            raise HostError("bridge failed")
        return len(kwargs)

    def call_class_operation(self, class_key, operation, kwargs):
        self.log.append(("classop", class_key, operation, repr(kwargs)))
        return self._invoke(operation, None, kwargs)

    def call_instance_operation(self, handle, operation, kwargs):
        self.log.append(("instop", repr(handle), operation, repr(kwargs)))
        return self._invoke(operation, handle, kwargs)

    def _invoke(self, operation, handle, kwargs):
        block = self.operations.get(operation)
        if block is None:
            raise HostError(f"no operation {operation}")
        if self.depth >= 2:
            raise HostError("operations nest too deep")
        self.depth += 1
        try:
            return self.run(block, handle, kwargs)
        finally:
            self.depth -= 1


def outcome(executor_class, block, *, operations=None, params=None,
            self_handle=1, loop_bound=None):
    """(result, ops_executed, host log) of one run.

    The pinned walker holds its host; the live executor is handed the
    host on each run."""
    host = RecordingHost(operations or {})
    if executor_class is walker.IRExecutor:
        executor = executor_class(host, error=HostError,
                                  selection_error=HostSelectionError)
        host.run = executor.run
    else:
        executor = executor_class(error=HostError,
                                  selection_error=HostSelectionError)
        host.run = (lambda block, handle, kwargs:
                    executor.run(host, block, handle, kwargs))
    if loop_bound is not None:
        host.loop_bound = loop_bound      # tightened after construction
    try:
        result = ("return", repr(host.run(
            block, self_handle, params if params is not None else {})))
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        result = ("raise", type(exc), str(exc))
    return result, executor.ops_executed, host.log


def assert_same(block, **kwargs):
    """Walker and compiled path agree; returns the compiled outcome."""
    walked = outcome(walker.IRExecutor, block, **kwargs)
    compiled = outcome(IRExecutor, block, **kwargs)
    result = walked[0]
    if (result[0] == "raise" and result[1] is OALRuntimeError
            and result[2] in ZERO_DIVISION):
        assert compiled[0] == ("raise", HostError, result[2])
        assert compiled[1:] == walked[1:]
    else:
        assert compiled == walked
    return compiled


# -- the required cases, stated directly -------------------------------------

def _int(value):
    return ["int", value]


def _var(name):
    return ["var", name]


def _bin(op, left, right):
    return ["bin", op, left, right]


COUNT_TO_FIVE = [
    ["assign_var", "i", _int(0)],
    ["while", _bin("<", _var("i"), _int(5)),
     [["assign_var", "i", _bin("+", _var("i"), _int(1))]]],
    ["return", _var("i")],
]


class TestRequiredCases:
    def test_error_raised_mid_block_keeps_the_exact_op_count(self):
        block = [
            ["assign_var", "x", _int(1)],
            ["assign_attr", ["self"], "n", _var("x")],
            ["exprstmt", ["attr", ["self"], "boom"]],
            ["assign_var", "y", _int(2)],
        ]
        result, ops, log = assert_same(block)
        assert result == ("raise", HostError, "attribute boom is unreadable")
        assert ops == 3
        assert log[-1] == ("read", "1", "boom")

    def test_loop_bound_tightened_after_construction(self):
        result, ops, _ = assert_same(COUNT_TO_FIVE, loop_bound=2)
        assert result == ("raise", HostError,
                          "while loop exceeded 2 iterations")
        assert ops == 4
        assert assert_same(COUNT_TO_FIVE)[0] == ("return", "5")

    def test_loop_bound_is_read_once_per_loop_entry(self):
        # the bridge tightens the bound inside the loop: this loop keeps
        # its bound, the next loop entered sees the tightened one
        tighten = ["exprstmt", ["bridge", "LOG", "tighten", []]]
        block = [
            ["assign_var", "i", _int(0)],
            ["while", _bin("<", _var("i"), _int(3)),
             [tighten, ["assign_var", "i", _bin("+", _var("i"), _int(1))]]],
            *COUNT_TO_FIVE,
        ]
        result, _, _ = assert_same(block)
        assert result == ("raise", HostError,
                          "while loop exceeded 1 iterations")

    def test_unbound_read_after_zero_iteration_foreach(self):
        block = [
            ["select_extent", "none", True, "B", None],
            ["foreach", "item", _var("none"), [["assign_var", "x", _int(1)]]],
            ["return", _var("x")],
        ]
        result, ops, _ = assert_same(block)
        assert result == ("raise", HostError,
                          "variable 'x' read before assignment")
        assert ops == 3
        loop_variable = [*block[:2], ["return", _var("item")]]
        assert assert_same(loop_variable)[0] == (
            "raise", HostError, "variable 'item' read before assignment")

    def test_unbound_read_after_one_branch_if(self):
        block = [
            ["if", [[_bin("==", ["param", "a"], _int(1)),
                     [["assign_var", "x", _int(1)]]]], None],
            ["return", _var("x")],
        ]
        assert assert_same(block, params={"a": 1})[0] == ("return", "1")
        result, _, _ = assert_same(block, params={"a": 2})
        assert result == ("raise", HostError,
                          "variable 'x' read before assignment")

    def test_unbound_read_after_if_else_assigning_on_one_side(self):
        block = [
            ["if", [[_bin("==", ["param", "a"], _int(1)),
                     [["assign_var", "x", _int(1)]]]],
             [["assign_var", "y", _int(2)]]],
            ["return", _var("x")],
        ]
        assert assert_same(block, params={"a": 1})[0] == ("return", "1")
        assert assert_same(block, params={"a": 2})[0] == (
            "raise", HostError, "variable 'x' read before assignment")
        both = [["if", [[_bin("==", ["param", "a"], _int(1)),
                         [["assign_var", "x", _int(1)]]]],
                 [["assign_var", "x", _int(2)]]],
                ["return", _var("x")]]
        assert assert_same(both, params={"a": 2})[0] == ("return", "2")

    def test_missing_param(self):
        block = [["return", _bin("+", ["param", "a"], ["param", "b"])]]
        result, ops, _ = assert_same(block, params={"a": 1})
        assert result == ("raise", HostError,
                          "event carries no parameter 'b'")
        assert ops == 1

    def test_select_one_over_more_than_one_instance(self):
        # the host navigates handle 1 over "C" to two instances
        block = [["select_related", "one", False, ["self"],
                  [["C", "R1", None]], None]]
        result, _, log = assert_same(block)
        assert result == ("raise", HostSelectionError,
                          "select one one: navigation produced 2 instances")
        assert log == [("navigate", "1", "R1", "C", None)]
        # select one from an extent takes the first handle instead
        extent = [["select_extent", "a", False, "A", None],
                  ["return", _var("a")]]
        assert assert_same(extent)[0] == ("return", "1")

    def test_nested_break_continue_return(self):
        # for each h in A: for each g in A: skip g == 2, stop at g == 3;
        # return from the outer loop on its third item
        inner = [
            ["if", [[_bin("==", _var("g"), _int(2)), [["continue"]]]], None],
            ["if", [[_bin("==", _var("g"), _int(3)), [["break"]]]], None],
            ["assign_var", "n", _bin("+", _var("n"), _var("g"))],
        ]
        block = [
            ["assign_var", "n", _int(0)],
            ["select_extent", "all", True, "A", None],
            ["foreach", "h", _var("all"), [
                ["foreach", "g", _var("all"), inner],
                ["if", [[_bin("==", _var("h"), _int(3)),
                         [["return", _var("n")]]]], None],
            ]],
            ["return", _int(-1)],
        ]
        result, ops, _ = assert_same(block)
        assert result == ("return", "3")
        assert ops == 34

    def test_break_outside_a_loop_is_a_host_error(self):
        for jump in ("break", "continue"):
            block = [["if", [[["bool", True], [[jump]]]], None]]
            result, ops, _ = assert_same(block)
            assert result == ("raise", HostError,
                              "break/continue escaped its loop")
            assert ops == 2

    def test_nfkc_colliding_names_stay_distinct(self):
        block = [
            ["assign_var", "ﬁ", _int(1)],
            ["assign_var", "fi", _int(2)],
            ["assign_var", "x²", _int(3)],
            ["assign_var", "ｘ", _int(4)],
            ["assign_var", "x", _int(5)],
            ["return", _bin("+", _bin("*", _var("ﬁ"), _int(100)),
                            _bin("+", _var("x²"), _var("ｘ")))],
        ]
        assert assert_same(block)[0] == ("return", "107")
        assert assert_same([["assign_var", "fi", _int(2)],
                            ["return", _var("ﬁ")]])[0] == (
            "raise", HostError, "variable 'ﬁ' read before assignment")

    def test_operation_errors_unwind_with_exact_counts(self):
        operations = {"op0": [["assign_var", "z", _int(1)],
                              ["exprstmt", ["bridge", "LOG", "fail", []]]]}
        block = [
            ["assign_var", "x", _int(1)],
            ["exprstmt", ["instop", ["self"], "op0", [["p", _var("x")]]]],
        ]
        result, ops, _ = assert_same(block, operations=operations)
        assert result == ("raise", HostError, "bridge failed")
        assert ops == 4

    def test_generate_evaluates_params_then_delay_then_target(self):
        # target reads handle 2, delay handle 3, the parameter handle 1
        block = [["generate", "G1", "A",
                  [["p", ["attr", ["self"], "n"]]],
                  ["attr", ["int", 2], "n"],
                  ["attr", ["int", 3], "n"], 7]]
        _, _, log = assert_same(block)
        assert [entry[:2] for entry in log] == [
            ("read", "1"), ("read", "3"), ("read", "2"), ("send", "1")]

    @pytest.mark.parametrize("op, message", [
        ("/", "integer division by zero"),
        ("%", "integer remainder by zero"),
    ])
    def test_integer_division_by_zero_is_the_one_difference(self, op,
                                                             message):
        block = [["assign_var", "x", _int(1)],
                 ["return", _bin(op, _int(7), ["param", "b"])]]
        walked = outcome(walker.IRExecutor, block, params={"b": 0})
        compiled = outcome(IRExecutor, block, params={"b": 0})
        assert walked[0] == ("raise", OALRuntimeError, message)
        assert compiled[0] == ("raise", HostError, message)
        assert compiled[1:] == walked[1:] == (2, [])

    def test_a_block_too_deep_to_compile_is_a_host_error(self):
        def nested(depth):
            block = [["return", _int(7)]]
            for level in range(depth):
                block = [["foreach", f"v{level}", ["param", "s"], block]]
            return block

        params = {"s": (1,)}
        assert assert_same(nested(19), params=params)[0] == ("return", "7")
        walked = outcome(walker.IRExecutor, nested(20), params=params)
        compiled = outcome(IRExecutor, nested(20), params=params)
        assert walked[0] == ("return", "7")
        assert compiled == (("raise", HostError,
                             "action block too deeply nested to compile"),
                            0, [])

    def test_unknown_tags_and_operators(self):
        cases = [
            ([["bogus_statement"]], "unknown IR statement 'bogus_statement'"),
            ([["exprstmt", ["bogus"]]], "unknown IR expression 'bogus'"),
            ([["exprstmt", ["un", "~", ["attr", ["self"], "n"]]]],
             "unknown unary operator '~'"),
            ([["exprstmt", _bin("^", ["attr", ["self"], "n"],
                                ["attr", ["self"], "m"])]],
             "unknown binary operator '^'"),
        ]
        for block, message in cases:
            result, ops, log = assert_same(block)
            assert result == ("raise", HostError, message)
            assert ops == 1

    def test_real_division_by_zero_was_already_the_host_dialect(self):
        block = [["return", _bin("/", ["real", 1.0], ["param", "b"])]]
        assert assert_same(block, params={"b": 0})[0] == (
            "raise", HostError, "division by zero")


class TestPinnedIrOracle:
    def test_control_flow_signals_are_distinct_exceptions(self):
        assert issubclass(walker.BreakSignal, Exception)
        assert issubclass(walker.ContinueSignal, Exception)
        assert walker.ReturnSignal(5).value == 5
        assert len({walker.BreakSignal, walker.ContinueSignal,
                    walker.ReturnSignal}) == 3

    def test_frame_copies_params(self):
        params = {"a": 1}
        frame = walker.Frame(7, params)
        params["a"] = 2
        assert frame.params == {"a": 1}
        assert frame.locals == {} and frame.selected is None

    def test_oracle_is_the_walker(self):
        executor = walker.IRExecutor(host=None)
        assert "assign_var" in executor._stmt
        assert "bin" in executor._expr


# -- arbitrary blocks --------------------------------------------------------

NAMES = st.sampled_from(["x", "y", "ﬁ", "fi", "x²", "ｘ"])
HANDLES = st.sampled_from(["A", "B", "C"])


def _node(*parts):
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(list)


LEAVES = st.one_of(
    _node("int", st.integers(-4, 9)),
    _node("int", st.integers(0, 3)),
    _node("var", NAMES),
    _node("bool", st.booleans()),
    _node("real", st.sampled_from([0.0, 1.5, -2.25])),
    _node("str", st.sampled_from(["", "s"])),
    _node("enum", "Mode", "ON", 1),
    _node("self"),
    _node("selected"),
    _node("var", NAMES),
    _node("var", NAMES),
    _node("param", st.sampled_from(["a", "b", "missing"])),
)


def _arguments(children):
    return st.lists(_node(st.sampled_from(["p", "q"]), children), max_size=2)


def _extend(children):
    return st.one_of(
        _node("attr", children, st.sampled_from(["n", "m", "boom"])),
        _node("un", st.sampled_from(
            ["-", "not", "cardinality", "empty", "not_empty", "~"]), children),
        _node("bin", st.sampled_from(
            ["and", "or", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*",
             "/", "%", "^"]), children, children),
        _node("bridge", "LOG",
              st.sampled_from(["info", "info", "tighten", "fail"]),
              _arguments(children)),
        _node("classop", "A", st.sampled_from(["op0", "op1", "op0", "nope"]),
              _arguments(children)),
        _node("instop", children, st.sampled_from(["op0", "op1"]),
              _arguments(children)),
    )


WILD_EXPRS = st.recursive(LEAVES, _extend, max_leaves=6)
#: arithmetic over bound integers: runs that mostly get deep, not fail
TAME_EXPRS = st.recursive(
    st.one_of(_node("int", st.integers(0, 3)), _node("var", NAMES),
              _node("param", st.sampled_from(["a", "b"])),
              _node("attr", ["self"], "n")),
    lambda children: st.one_of(
        _node("bin", st.sampled_from(
            ["and", "or", "==", "<", ">=", "+", "-", "*", "/", "%"]),
            children, children),
        _node("un", st.sampled_from(["-", "not"]), children)),
    max_leaves=5,
)
HOP = _node(HANDLES, st.sampled_from(["R1", "R2"]),
            st.sampled_from([None, "phrase"]))
JUMP_BODIES = st.sampled_from(
    [[["break"]], [["continue"]], [["return", None]]])


def _statements(exprs):
    maybe = st.one_of(st.none(), exprs)
    return st.one_of(
        _node("assign_var", NAMES, exprs),
        _node("assign_var", NAMES, exprs),
        _node("assign_attr", exprs, st.sampled_from(["n", "m"]), exprs),
        _node("create", NAMES, HANDLES),
        _node("delete", exprs),
        _node("select_extent", NAMES, st.booleans(), HANDLES, maybe),
        _node("select_related", NAMES, st.booleans(), exprs,
              st.lists(HOP, min_size=1, max_size=2), maybe),
        _node("relate", exprs, exprs, "R1", st.sampled_from([None, "phrase"])),
        _node("unrelate", exprs, exprs, "R1", None),
        _node("generate", "G1", "A", _arguments(exprs), maybe, maybe, 7),
        _node("return", maybe),
        _node("exprstmt", exprs),
    )


def _loop_body(blocks, exprs):
    """*blocks* with a break/continue -- bare or under an if -- put in."""
    jumps = st.one_of(
        st.just([]),
        st.sampled_from([["break"], ["continue"]]).map(lambda jump: [jump]),
        _node("if", st.lists(_node(exprs, JUMP_BODIES), min_size=1,
                             max_size=1), None).map(lambda stmt: [stmt]),
    )
    return st.tuples(blocks, jumps, st.integers(0, 5)).map(
        lambda drawn: drawn[0][:drawn[2]] + drawn[1] + drawn[0][drawn[2]:])


def _blocks(exprs):
    simple = _statements(exprs)

    def compound(blocks):
        return st.one_of(
            _node("if", st.lists(_node(exprs, blocks), min_size=1,
                                 max_size=2), st.one_of(st.none(), blocks)),
            _node("while", exprs, _loop_body(blocks, exprs)),
            _node("foreach", NAMES, st.one_of(_node("var", NAMES),
                                              _node("var", "all"), exprs),
                  _loop_body(blocks, exprs)),
        )

    return st.recursive(
        st.lists(simple, min_size=1, max_size=5),
        lambda blocks: st.lists(st.one_of(simple, compound(blocks)),
                                min_size=1, max_size=5),
        max_leaves=24,
    )


WILD_BLOCKS = _blocks(WILD_EXPRS)
TAME_BLOCKS = _blocks(TAME_EXPRS)
#: binds a drawn subset of the names first, so more runs get past reads
PRELUDES = st.lists(_node("assign_var", NAMES, st.sampled_from(
    [["int", 2], ["int", 0], ["bool", True], ["str", "s"]])), max_size=6)
#: binds every name to an integer, and ``all`` to the extent of A
TAME_PRELUDE = [["select_extent", "all", True, "A", None]] + [
    ["assign_var", name, ["int", index]]
    for index, name in enumerate(["x", "y", "ﬁ", "fi", "x²", "ｘ"])]
COMMON = dict(
    params=st.fixed_dictionaries(
        {"a": st.integers(-3, 5), "b": st.integers(-2, 2)}),
    self_handle=st.sampled_from([1, 3, None]),
    loop_bound=st.sampled_from([0, 2, 5, 50]),
)


class TestArbitraryBlocks:
    @settings(deadline=None, max_examples=300)
    @given(prelude=PRELUDES, block=WILD_BLOCKS,
           operations=st.fixed_dictionaries(
               {"op0": WILD_BLOCKS, "op1": WILD_BLOCKS}), **COMMON)
    def test_any_block_matches_the_pinned_walker(
            self, prelude, block, operations, params, self_handle,
            loop_bound):
        assert_same(prelude + block, operations=operations, params=params,
                    self_handle=self_handle, loop_bound=loop_bound)

    @settings(deadline=None, max_examples=300)
    @given(block=TAME_BLOCKS,
           operations=st.fixed_dictionaries(
               {"op0": TAME_BLOCKS, "op1": TAME_BLOCKS}), **COMMON)
    def test_arithmetic_blocks_match_the_pinned_walker(
            self, block, operations, params, self_handle, loop_bound):
        assert_same(TAME_PRELUDE + block, operations=operations,
                    params=params, self_handle=self_handle,
                    loop_bound=loop_bound)
