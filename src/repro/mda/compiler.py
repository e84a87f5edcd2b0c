"""The model compiler — one specification in, two consistent halves out.

Paper section 4: "Repeatable mappings are defined that produce compilable
text (e.g., C, VHDL) according to a single consistent set of
architectural rules. ... The result is several text files of two (in this
example) types.  One is all the C that is to be implemented in software;
the other is VHDL.  The two halves are known to fit together because the
interface was generated."

:class:`ModelCompiler.compile` does exactly that pipeline:

1. lower the component to its build manifest (parse + analyze + IR);
2. derive the partition from the marks;
3. resolve each class against the mapping :class:`~repro.mda.rules.RuleSet`;
4. emit C for the software classes, VHDL for the hardware classes,
   the kernel/runtime support files, and both halves of the generated
   interface — all collected into a :class:`Build`.

The emission steps are module-level pure functions of the manifest so
that :class:`repro.build.IncrementalCompiler` can replay any subset of
them against cached inputs and produce byte-identical artifacts.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.marks.model import MarkSet
from repro.marks.partition import Partition, derive_partition
from repro.xuml.component import Component
from repro.xuml.model import Model

from .cgen import CGenerator
from .clint import LintFinding, lint_c
from .interfacegen import InterfaceSpec, build_interface_spec
from .manifest import ComponentManifest, build_manifest
from .naming import c_ident, vhdl_ident
from .rules import RuleSet
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
    """The single-task software architecture (when any class is software)."""
    comp = c_ident(component_name)
    cgen = CGenerator(manifest)
    return {
        f"{comp}_arch_rt.h": cgen.emit_arch_header(),
        f"{comp}_kernel.c": cgen.emit_kernel_source(),
    }


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
        from .syscgen import SystemCGenerator

        return {
            f"{c_ident(klass.name)}_sc.h": (
                SystemCGenerator(manifest).emit_module(klass)),
        }
    comp = c_ident(component_name)
    kl = c_ident(class_key)
    cgen = CGenerator(manifest)
    return {
        f"{comp}_{kl}.h": cgen.emit_class_header(klass),
        f"{comp}_{kl}.c": cgen.emit_class_source(klass),
    }


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
        """Generated lines attributable to one class's artifacts."""
        needle_c = c_ident(class_key)
        needle_v = vhdl_ident(self.manifest.classes[class_key].name)
        total = 0
        for path, text in self.artifacts.items():
            stem = path.rsplit(".", 1)[0]
            if stem.endswith(f"_{needle_c}") or stem == needle_v:
                total += text.count("\n")
        return total

    def lint(self) -> list[LintFinding]:
        """Run the structural checkers over every artifact."""
        findings: list[LintFinding] = []
        for path, text in self.artifacts.items():
            if path.endswith((".c", ".h")):
                findings.extend(lint_c(path, text))
            elif path.endswith(".vhd"):
                findings.extend(lint_vhdl(path, text))
        return findings

    def write_to(self, directory) -> list[str]:
        """Materialize the artifacts on disk; returns written paths.

        Each file is written to a temporary sibling and renamed into
        place, so an interrupted export never leaves a partial artifact
        — readers see either the old text or the new, never a torn file.
        """
        import pathlib

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
        artifacts.update(emit_types_artifacts(manifest, name))
        if plan.software:
            artifacts.update(emit_c_runtime_artifacts(manifest, name))
            for key in plan.software:
                artifacts.update(
                    emit_class_artifacts(manifest, name, key, "c", marks))
        if plan.hardware:
            artifacts.update(emit_vhdl_runtime_artifacts(manifest, name))
            for key in plan.hardware:
                artifacts.update(
                    emit_class_artifacts(manifest, name, key, "vhdl", marks))
        for key in plan.systemc:
            artifacts.update(
                emit_class_artifacts(manifest, name, key, "systemc", marks))

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
