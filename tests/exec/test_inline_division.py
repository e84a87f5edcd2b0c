"""The inline ``%`` and ``/`` path of the compiled core.

For a positive integer literal divisor the generated code computes a
non-negative int dividend's remainder or quotient itself and calls
``_mod``/``_div`` only for any other dividend.  Over dividends of every
kind it must agree with those helpers and with the pinned IR walker, and
a zero or negative literal divisor must still go through the helpers,
with the same result or the same host error and text.
"""

import pytest

from repro.exec import codegen

from .test_compiled_vs_walker import HostError, assert_same

DIVIDENDS = (-7, -1, 0, 1, 7, 2 ** 62, -(2 ** 62), True, 3.5)
DIVISORS = (1, 3, 16, 2 ** 61)
HELPERS = {"%": codegen._mod, "/": codegen._div}


def _block(op, divisor):
    """``return param.a <op> <divisor literal>;``"""
    return [["return", ["bin", op, ["param", "a"], ["int", divisor]]]]


class _Executor:
    """What the helpers read from an executor: its error constructor."""

    _error = HostError


def _helper(op, dividend, divisor):
    """The outcome of calling ``_mod``/``_div`` directly."""
    try:
        return ("return",
                repr(HELPERS[op](dividend, divisor, _Executor())))
    except HostError as exc:
        return ("raise", HostError, str(exc))


@pytest.mark.parametrize("op", ["%", "/"])
@pytest.mark.parametrize("divisor", DIVISORS)
def test_positive_literal_divisor_is_inlined(op, divisor):
    source = codegen._Generator().source(_block(op, divisor))
    python = "%" if op == "%" else "//"
    assert f" {python} " in source
    assert "is int and" in source


@pytest.mark.parametrize("op", ["%", "/"])
@pytest.mark.parametrize("divisor", DIVISORS)
@pytest.mark.parametrize("dividend", DIVIDENDS, ids=repr)
def test_inline_path_agrees_with_helper_and_walker(op, divisor, dividend):
    result, ops, _ = assert_same(_block(op, divisor), params={"a": dividend})
    assert result == _helper(op, dividend, divisor)
    assert ops == 1


@pytest.mark.parametrize("op", ["%", "/"])
@pytest.mark.parametrize("divisor", [0, -3])
@pytest.mark.parametrize("dividend", DIVIDENDS, ids=repr)
def test_zero_and_negative_literal_divisors_keep_the_helper(
        op, divisor, dividend):
    source = codegen._Generator().source(_block(op, divisor))
    helper = "_mod(" if op == "%" else "_div("
    assert source.count(helper) == 1 and "is int and" not in source
    result, _, _ = assert_same(_block(op, divisor), params={"a": dividend})
    assert result == _helper(op, dividend, divisor)
    if divisor == 0:
        if op == "%":
            message = "integer remainder by zero"
        elif type(dividend) is float:
            message = "division by zero"
        else:
            message = "integer division by zero"
        assert result == ("raise", HostError, message)


def test_dividend_is_evaluated_once():
    # the dividend, an attribute read, is tested and then used: one host
    # call, inlined or not (the fake host reads attribute n of #1 as 1)
    block = [["return", ["bin", "%", ["attr", ["self"], "n"], ["int", 4]]]]
    result, _, log = assert_same(block)
    assert result == ("return", "1")
    assert log == [("read", "1", "n")]
