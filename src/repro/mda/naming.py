"""Identifier mangling for the C and VHDL targets.

One consistent set of naming rules (paper section 4: "a single consistent
set of architectural rules") shared by every generator, so the C half and
the VHDL half of an interface agree on every name by construction.
"""

from __future__ import annotations

import functools
import re

_C_RESERVED = frozenset("""
auto break case char const continue default do double else enum extern
float for goto if inline int long register restrict return short signed
sizeof static struct switch typedef union unsigned void volatile while
""".split())

_VHDL_RESERVED = frozenset("""
abs access after alias all and architecture array assert attribute begin
block body buffer bus case component configuration constant disconnect
downto else elsif end entity exit file for function generate generic
group guarded if impure in inertial inout is label library linkage
literal loop map mod nand new next nor not null of on open or others out
package port postponed procedure process pure range record register
reject rem report return rol ror select severity signal shared sla sll
sra srl subtype then to transport type unaffected units until use
variable wait when while with xnor xor
""".split())

_SNAKE_1 = re.compile(r"(.)([A-Z][a-z]+)")
_SNAKE_2 = re.compile(r"([a-z0-9])([A-Z])")


@functools.cache
def snake_case(name: str) -> str:
    """CamelCase / mixedCase -> snake_case.  Memoised: a build mangles
    each model name many times, and only model names are kept."""
    partial = _SNAKE_1.sub(r"\1_\2", name)
    return _SNAKE_2.sub(r"\1_\2", partial).lower()


def c_ident(name: str) -> str:
    """A safe C identifier for a model name."""
    ident = snake_case(name)
    if ident in _C_RESERVED or not ident:
        ident += "_"
    return ident


def c_macro(name: str) -> str:
    """A safe C macro (upper snake) for a model name."""
    return snake_case(name).upper()


def vhdl_ident(name: str) -> str:
    """A safe VHDL identifier (VHDL is case-insensitive: lower snake)."""
    ident = snake_case(name)
    if ident in _VHDL_RESERVED or not ident:
        ident += "_v"
    return ident


def c_type_of(dtype) -> str:
    """C type for a profile data type."""
    from repro.xuml.datatypes import CoreType, EnumType, InstRefType, InstSetType

    if isinstance(dtype, EnumType):
        return f"{c_ident(dtype.name)}_t"
    if isinstance(dtype, InstRefType):
        return "instance_handle_t"
    if isinstance(dtype, InstSetType):
        return "instance_set_t"
    mapping = {
        CoreType.INTEGER: "int32_t",
        CoreType.REAL: "double",
        CoreType.BOOLEAN: "bool",
        CoreType.STRING: "const char *",
        CoreType.UNIQUE_ID: "uint32_t",
        CoreType.TIMESTAMP: "uint64_t",
    }
    return mapping[dtype]


def vhdl_type_of(dtype) -> str:
    """VHDL type for a profile data type."""
    from repro.xuml.datatypes import CoreType, EnumType, InstRefType, InstSetType

    if isinstance(dtype, EnumType):
        return f"{vhdl_ident(dtype.name)}_t"
    if isinstance(dtype, (InstRefType, InstSetType)):
        return "unsigned(31 downto 0)"
    mapping = {
        CoreType.INTEGER: "signed(31 downto 0)",
        CoreType.REAL: "real",
        CoreType.BOOLEAN: "std_logic",
        CoreType.STRING: "string",
        CoreType.UNIQUE_ID: "unsigned(31 downto 0)",
        CoreType.TIMESTAMP: "unsigned(63 downto 0)",
    }
    return mapping[dtype]


def banner(title: str, comment: str) -> str:
    """A generated-file banner with the given line-comment leader."""
    rule = comment + " " + "-" * 68
    return "\n".join([
        rule,
        f"{comment} {title}",
        f"{comment} GENERATED by the repro model compiler — DO NOT EDIT.",
        f"{comment} Regenerate by re-running the mapping; edit the model or",
        f"{comment} the marks instead (paper sections 3-4).",
        rule,
    ])
