"""The model compiler — one specification in, two consistent halves out.

Paper section 4: "Repeatable mappings are defined that produce compilable
text (e.g., C, VHDL) according to a single consistent set of
architectural rules. ... The result is several text files of two (in this
example) types.  One is all the C that is to be implemented in software;
the other is VHDL.  The two halves are known to fit together because the
interface was generated."

:class:`ModelCompiler.compile` does exactly that pipeline:

1. build the component's manifest around its cached lowered IR;
2. derive the partition from the marks;
3. resolve each class against the mapping :class:`~repro.mda.rules.RuleSet`;
4. emit C for the software classes, VHDL for the hardware classes,
   the kernel/runtime support files, and both halves of the generated
   interface — all collected into a :class:`Build`.

The emission steps are module-level pure functions of the manifest, and
:meth:`ModelCompiler.assemble` is the one place that orders them; it
reaches them through two hooks, one per shared bundle and one per class,
which :class:`repro.build.IncrementalCompiler` overrides to serve each
bundle from its store, so cached builds are byte-identical.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import tempfile
from dataclasses import dataclass, field

from repro.analysis.findings import LintFinding
from repro.marks.model import MarkSet
from repro.marks.partition import Partition, derive_partition
from repro.xuml.component import Component
from repro.xuml.model import Model

from .cgen import CGenerator
from .interfacegen import InterfaceSpec, build_interface_spec
from .manifest import ComponentManifest, build_manifest
from .naming import c_ident, vhdl_ident
from .rules import RuleSet
from .syscgen import SYSTEMC_STUB, SystemCGenerator
from .vhdlgen import VhdlGenerator
from .vlint import lint_vhdl


@dataclass(frozen=True)
class ClassPlan:
    """Which emitter claims each class, per the mapping rules."""

    #: class key letters -> name of the mapping rule that claimed it
    rules_applied: dict[str, str]
    software: tuple[str, ...]
    hardware: tuple[str, ...]
    systemc: tuple[str, ...]


def classify_classes(
    component: Component, rules: RuleSet, marks: MarkSet
) -> ClassPlan:
    """Resolve every class of *component* to its mapping target."""
    rules_applied: dict[str, str] = {}
    software: list[str] = []
    hardware: list[str] = []
    systemc: list[str] = []
    for klass in component.classes:
        path = f"{component.name}.{klass.key_letters}"
        rule = rules.resolve(path, marks)
        rules_applied[klass.key_letters] = rule.name
        if rule.target == "vhdl":
            hardware.append(klass.key_letters)
        elif rule.target == "systemc":
            systemc.append(klass.key_letters)
        else:
            software.append(klass.key_letters)
    return ClassPlan(
        rules_applied, tuple(software), tuple(hardware), tuple(systemc)
    )


def emit_types_artifacts(
    manifest: ComponentManifest, component_name: str
) -> dict[str, str]:
    """The shared C types header (emitted for every build)."""
    comp = c_ident(component_name)
    return {f"{comp}_types.h": CGenerator(manifest).emit_types_header()}


def emit_c_runtime_artifacts(
    manifest: ComponentManifest, component_name: str
) -> dict[str, str]:
    """The single-task software architecture (when any class is software
    or SystemC).

    Every class's header belongs to it, wherever the class is mapped: a
    software class may signal, read or call any class of the component.
    """
    comp = c_ident(component_name)
    cgen = CGenerator(manifest)
    artifacts = {
        f"{comp}_arch_rt.h": cgen.emit_arch_header(),
        f"{comp}_kernel.c": cgen.emit_kernel_source(),
    }
    for key, klass in manifest.classes.items():
        artifacts[f"{comp}_{c_ident(key)}.h"] = cgen.emit_class_header(klass)
    return artifacts


def emit_vhdl_runtime_artifacts(
    manifest: ComponentManifest, component_name: str
) -> dict[str, str]:
    """The clocked hardware runtime package (when any class is hardware)."""
    return {
        f"{vhdl_ident(component_name)}_rt_pkg.vhd": (
            VhdlGenerator(manifest).emit_runtime_package()),
    }


def emit_class_artifacts(
    manifest: ComponentManifest, component_name: str, class_key: str,
    target: str, marks: MarkSet,
) -> dict[str, str]:
    """Every artifact attributable to one class under one mapping target."""
    klass = manifest.classes[class_key]
    if target == "vhdl":
        clock = marks.get(f"{component_name}.{class_key}", "clock_mhz")
        return {
            f"{vhdl_ident(klass.name)}.vhd": (
                VhdlGenerator(manifest).emit_entity(klass, clock_mhz=clock)),
        }
    if target == "systemc":
        return {
            f"{c_ident(klass.name)}_sc.h": (
                SystemCGenerator(manifest).emit_module(klass)),
        }
    source = CGenerator(manifest).emit_class_source(klass)
    return {f"{c_ident(component_name)}_{c_ident(class_key)}.c": source}


def emit_interface_artifacts(
    interface: InterfaceSpec, component_name: str
) -> dict[str, str]:
    """Both halves of the generated interface, from the one spec."""
    comp = c_ident(component_name)
    return {
        f"{comp}_interface.h": interface.emit_c_header(),
        f"{vhdl_ident(component_name)}_interface_pkg.vhd": (
            interface.emit_vhdl_package()),
    }


@dataclass
class Build:
    """Everything one compilation produced."""

    model: Model
    component_name: str
    manifest: ComponentManifest
    partition: Partition
    interface: InterfaceSpec
    #: class key letters -> name of the mapping rule that claimed it
    rules_applied: dict[str, str]
    #: artifact file name -> generated text
    artifacts: dict[str, str] = field(default_factory=dict)

    @property
    def c_artifacts(self) -> dict[str, str]:
        return {p: t for p, t in self.artifacts.items()
                if p.endswith((".c", ".h"))}

    @property
    def vhdl_artifacts(self) -> dict[str, str]:
        return {p: t for p, t in self.artifacts.items() if p.endswith(".vhd")}

    def total_lines(self) -> int:
        """Generated lines of text — the E2 cost proxy for a rewrite."""
        return sum(text.count("\n") for text in self.artifacts.values())

    def lines_for_class(self, class_key: str) -> int:
        """Generated lines of one class's implementation (its ``.c`` or
        ``.vhd``); its C header is emitted wherever the class is mapped."""
        needle_c = c_ident(class_key)
        needle_v = vhdl_ident(self.manifest.classes[class_key].name)
        total = 0
        for path, text in self.artifacts.items():
            stem, suffix = path.rsplit(".", 1)
            if suffix != "h" and (stem.endswith(f"_{needle_c}")
                                  or stem == needle_v):
                total += text.count("\n")
        return total

    def lint(self) -> list[LintFinding]:
        """Check every artifact: C through gcc, VHDL structurally."""
        findings = check_c(self.c_artifacts)
        for path, text in self.vhdl_artifacts.items():
            findings.extend(lint_vhdl(path, text))
        return findings

    def write_to(self, directory) -> list[str]:
        """Materialize the artifacts on disk; returns written paths.

        Each file is written to a temporary sibling and renamed into
        place, so an interrupted export never leaves a partial artifact
        — readers see either the old text or the new, never a torn file.
        """
        root = pathlib.Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        written = []
        for path, text in sorted(self.artifacts.items()):
            target = root / path
            fd, tmp = tempfile.mkstemp(dir=root, prefix=f".{path}.")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            written.append(str(target))
        return written


#: the one C check: warnings are errors, and -c (not -fsyntax-only)
#: because only code generation reports -Wimplicit-fallthrough
_GCC = ("gcc", "-std=c99", "-pedantic-errors", "-Wall", "-Wextra", "-Werror",
       "-c")
#: SystemC modules are C++, checked against :data:`SYSTEMC_STUB`
_GXX = ("g++", "-std=c++17", "-pedantic-errors", "-Wall", "-Wextra",
       "-Werror", "-c", "-I.")

_COMPILER_ERROR = re.compile(
    r"^([^:\n]+):(\d+):\d+: (?:fatal )?error: (.*)$", re.MULTILINE)


def check_c(artifacts: dict[str, str]) -> list[LintFinding]:
    """Compile the C (and SystemC) *artifacts*; the errors as findings.

    One gcc process compiles every ``.c`` file and a unit that includes
    every header twice, so a header whose guard does not hold redefines
    its typedefs (an error in C99).  A missing compiler is a finding
    too: unchecked text must never read as a pass.
    """
    modules = sorted(p for p in artifacts if p.endswith("_sc.h"))
    headers = sorted(p for p in artifacts
                     if p.endswith(".h") and p not in modules)
    units = sorted(p for p in artifacts if p.endswith(".c"))
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for path, text in artifacts.items():
            (root / path).write_text(text)
        findings = _compile(_GCC, root, "include_guards_check.c", headers,
                            units)
        if modules:
            (root / "systemc.h").write_text(SYSTEMC_STUB)
            findings += _compile(_GXX, root, "systemc_check.cpp", modules, [])
    return findings


def _compile(command, root: pathlib.Path, unit: str, headers: list[str],
             units: list[str]) -> list[LintFinding]:
    """Run *command* once over *units* and a *unit* including *headers*
    twice; every error it reports as a finding."""
    includes = "".join(f'#include "{header}"\n' for header in headers)
    # the typedef keeps the unit non-empty, which ISO C requires
    (root / unit).write_text(
        includes + includes + "typedef int include_guards_check_t;\n")
    try:
        result = subprocess.run([*command, unit, *units], cwd=root,
                                capture_output=True, text=True)
    except OSError as exc:
        return [LintFinding(command[0], 0,
                            f"not checked: cannot run {command[0]} ({exc})")]
    findings = [LintFinding(path, int(line), message) for path, line, message
                in _COMPILER_ERROR.findall(result.stderr)]
    if result.returncode and not findings:
        findings.append(LintFinding(
            command[0], 0, f"{command[0]} exited {result.returncode}: "
            f"{result.stderr.strip() or 'no diagnostics'}"))
    return findings


class ModelCompiler:
    """Compiles one component of a model against a mark set."""

    def __init__(
        self,
        model: Model,
        component: str | None = None,
        rules: RuleSet | None = None,
    ):
        self.model = model
        if component is None:
            components = model.components
            if len(components) != 1:
                raise ValueError("model has several components; name one")
            self.component = components[0]
        else:
            self.component = model.component(component)
        self.rules = rules or RuleSet.standard()

    def compile(self, marks: MarkSet) -> Build:
        """Run the full mapping pipeline for *marks*."""
        manifest = build_manifest(self.model, self.component)
        partition = derive_partition(self.model, self.component, marks)
        return self.assemble(manifest, partition, marks)

    def assemble(
        self, manifest: ComponentManifest, partition: Partition,
        marks: MarkSet,
    ) -> Build:
        """Emit every artifact for precomputed *manifest* + *partition*."""
        name = self.component.name
        interface = build_interface_spec(manifest, partition, marks)
        plan = classify_classes(self.component, self.rules, marks)

        artifacts: dict[str, str] = {}
        artifacts.update(self._shared_bundle(
            "c-types", emit_types_artifacts, manifest))
        if plan.software or plan.systemc:
            artifacts.update(self._shared_bundle(
                "c-runtime", emit_c_runtime_artifacts, manifest))
            for key in plan.software:
                artifacts.update(self._class_bundle(manifest, key, "c", marks))
        if plan.hardware:
            artifacts.update(self._shared_bundle(
                "vhdl-runtime", emit_vhdl_runtime_artifacts, manifest))
            for key in plan.hardware:
                artifacts.update(
                    self._class_bundle(manifest, key, "vhdl", marks))
        for key in plan.systemc:
            artifacts.update(
                self._class_bundle(manifest, key, "systemc", marks))

        # the generated interface: both halves from one spec, always
        artifacts.update(emit_interface_artifacts(interface, name))

        # a snapshot of the sticky notes this build answered to
        artifacts["marks.mks"] = marks.dumps()

        return Build(
            model=self.model,
            component_name=name,
            manifest=manifest,
            partition=partition,
            interface=interface,
            rules_applied=plan.rules_applied,
            artifacts=artifacts,
        )

    # -- emission hooks: a caching compiler overrides these two ------------

    def _shared_bundle(
        self, kind: str, emit, manifest: ComponentManifest,
    ) -> dict[str, str]:
        """A bundle every class shares; *kind* names it for caching."""
        return emit(manifest, self.component.name)

    def _class_bundle(
        self, manifest: ComponentManifest, class_key: str, target: str,
        marks: MarkSet,
    ) -> dict[str, str]:
        """One class's artifacts under its mapping *target*."""
        return emit_class_artifacts(
            manifest, self.component.name, class_key, target, marks)
