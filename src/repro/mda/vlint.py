"""Structural checker for generated VHDL.

The hardware half of :meth:`repro.mda.Build.lint` (gcc checks the C
half): verifies entity/architecture/package/process/case/if/loop block
pairing, that the architecture names an existing entity, and that every
``case`` has an ``end case``.  No VHDL simulator is available, so this
guards the emitters, not synthesis.
"""

from __future__ import annotations

import re

from repro.analysis.findings import LintFinding

_OPENERS = {
    "entity": re.compile(r"^\s*entity\s+(\w+)\s+is\b", re.IGNORECASE),
    "architecture": re.compile(
        r"^\s*architecture\s+(\w+)\s+of\s+(\w+)\s+is\b", re.IGNORECASE),
    "package": re.compile(r"^\s*package\s+(\w+)\s+is\b", re.IGNORECASE),
    "process": re.compile(r"^\s*(\w+\s*:\s*)?process\b", re.IGNORECASE),
    "case": re.compile(r"^\s*case\b.*\bis\s*$", re.IGNORECASE),
    "loop": re.compile(r"\bloop\s*$", re.IGNORECASE),
    "record": re.compile(r"^\s*type\s+\w+\s+is\s+record\b", re.IGNORECASE),
}

_END = re.compile(r"^\s*end\s+(\w+)", re.IGNORECASE)
_END_BARE = re.compile(r"^\s*end\s*;", re.IGNORECASE)

#: 'if' needs care: "end if;" closes it, "elsif"/"else" do not open another.
_IF_OPEN = re.compile(r"^\s*if\b.*\bthen\b", re.IGNORECASE)
_END_KIND = {
    "entity": "entity", "architecture": "architecture", "package": "package",
    "process": "process", "case": "case", "loop": "loop", "if": "if",
}


def _strip_vhdl_comments(line: str) -> str:
    index = line.find("--")
    return line if index == -1 else line[:index]


def lint_vhdl(path: str, text: str) -> list[LintFinding]:
    """All structural findings for one VHDL artifact."""
    findings: list[LintFinding] = []
    stack: list[tuple[str, int]] = []   # (kind, line)
    entities: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_vhdl_comments(raw)
        code = line.strip()
        if not code:
            continue

        end_match = _END.match(code)
        if end_match and end_match.group(1).lower() in (
            "entity", "architecture", "package", "process", "case",
            "loop", "if", "record",
        ):
            kind = end_match.group(1).lower()
            if not stack:
                findings.append(LintFinding(
                    path, lineno, f"'end {kind}' with nothing open"))
                continue
            open_kind, open_line = stack.pop()
            if open_kind != kind:
                findings.append(LintFinding(
                    path, lineno,
                    f"'end {kind}' closes '{open_kind}' from line {open_line}"))
            continue
        if end_match or _END_BARE.match(code):
            # "end <name>;" closing an entity/package by name, or bare end
            if stack:
                stack.pop()
            continue

        if _IF_OPEN.match(code) and not code.lower().startswith(("elsif",)):
            stack.append(("if", lineno))
            continue
        for kind, pattern in _OPENERS.items():
            match = pattern.match(code) if kind != "loop" else pattern.search(code)
            if not match:
                continue
            if kind == "loop" and re.match(r"^\s*end\b", code):
                break
            if kind == "entity":
                entities.add(match.group(1).lower())
            if kind == "architecture":
                target = match.group(2).lower()
                if entities and target not in entities:
                    findings.append(LintFinding(
                        path, lineno,
                        f"architecture of unknown entity {target!r}"))
            stack.append((kind, lineno))
            break

    for kind, lineno in stack:
        findings.append(LintFinding(
            path, lineno, f"unclosed {kind} block"))

    if re.search(r"^\s*architecture\b", text, re.IGNORECASE | re.MULTILINE):
        if "begin" not in text.lower():
            findings.append(LintFinding(
                path, 1, "architecture without a begin"))
    return findings
