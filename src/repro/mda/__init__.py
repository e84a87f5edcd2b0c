"""Model mappings (paper section 4): the model compiler and its targets.

* :class:`ModelCompiler` / :class:`Build` — the mapping pipeline
* :class:`RuleSet` — marks select which mapping rule applies
* :class:`InterfaceSpec` / :class:`InterfaceCodec` — both interface
  halves generated from one spec, byte-compatible by construction
* :class:`CSoftwareMachine` / :class:`VHardwareMachine` — the generated
  architectures, executed (manifest-driven)
* :meth:`Build.lint` — gcc compiles the emitted C (g++ the SystemC
  modules) and :func:`lint_vhdl` checks the VHDL structurally
"""

from repro.analysis.findings import LintFinding
from repro.exec.ir import ir_op_counts, lower_block, walk_ir_statements
from .archrt import ArchError, TargetMachine
from .cgen import CGenerator
from .compiler import Build, ModelCompiler
from .csim import CSoftwareMachine
from .interfacegen import (
    FrameSpec,
    InterfaceCodec,
    InterfaceError,
    InterfaceSpec,
    Message,
    MessageField,
    Protection,
    build_interface_spec,
    crc8,
    crc16_ccitt,
)
from .manifest import (
    ClassManifest,
    ComponentManifest,
    build_manifest,
    dtype_tag,
    tag_to_dtype,
)
from .naming import c_ident, c_macro, snake_case, vhdl_ident
from .rules import (
    HARDWARE_RULE,
    SOFTWARE_RULE,
    MappingRule,
    RuleError,
    RuleSet,
)
from .syscgen import SYSTEMC_RULE, SystemCGenerator
from .vhdlgen import VhdlGenerator
from .vlint import lint_vhdl
from .vsim import VHardwareMachine

__all__ = [
    "ArchError",
    "Build",
    "CGenerator",
    "CSoftwareMachine",
    "ClassManifest",
    "ComponentManifest",
    "FrameSpec",
    "HARDWARE_RULE",
    "InterfaceCodec",
    "InterfaceError",
    "InterfaceSpec",
    "LintFinding",
    "MappingRule",
    "Message",
    "MessageField",
    "ModelCompiler",
    "Protection",
    "RuleError",
    "RuleSet",
    "SOFTWARE_RULE",
    "SYSTEMC_RULE",
    "SystemCGenerator",
    "TargetMachine",
    "VHardwareMachine",
    "VhdlGenerator",
    "build_interface_spec",
    "build_manifest",
    "c_ident",
    "c_macro",
    "crc8",
    "crc16_ccitt",
    "dtype_tag",
    "ir_op_counts",
    "lint_vhdl",
    "lower_block",
    "snake_case",
    "tag_to_dtype",
    "vhdl_ident",
    "walk_ir_statements",
]
