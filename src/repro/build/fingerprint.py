"""Stable content fingerprints of everything a compilation reads.

A build is a pure function of ``(model, marks, rules, generator)``; this
module names that input with a SHA-256 over a *canonical* serialization,
so the same inputs hash identically across process restarts, dict
insertion orders, and equivalently-written mark files — and any single
mark flip or model edit changes the key.

The cache granularity the incremental compiler needs is finer than one
key per build, so the store keys each piece by its own dependencies:

* :func:`class_dependency_key` — one class's artifacts.  These depend on
  the whole model structure (actions reference other classes' events and
  associations), the class's resolved mapping target, and the effective
  marks *on that class only* — so moving a mark on class X leaves every
  other class's key, and therefore its cached artifacts, untouched.
* :func:`shared_dependency_key` — the runtime support files (types
  header, C kernel, VHDL runtime package), functions of the model alone.
* :func:`manifest_dependency_key` — the manifest + signal flows, tables
  built around the lowered IR, functions of the model alone that every
  retarget reuses.

:func:`model_fingerprint` is memoised per model object.  The memo keeps
the xUML revision (:mod:`repro.xuml.tracked`) it was computed at, and
every edit to any model element moves that revision: an attribute
assignment on an element, an ``add_*``/``set_*`` mutator or
``define_enum``.  A moved revision means serializing again, so the memo
can cost a recomputation but never serve a stale digest.  A lint pass,
whose every explorer run builds a simulation and so looks the
fingerprint up, serializes each model once.

Mapping-rule predicates are code and cannot be hashed by value; a rule's
identity is its ordered ``(name, target)`` pair, and any change to a
predicate's *meaning* must bump :data:`GENERATOR_VERSION` (the same
escape hatch as changing an emitter's output).
"""

from __future__ import annotations

import hashlib
import json
from weakref import WeakKeyDictionary

from repro.marks.model import STANDARD_MARKS, MarkSet
from repro.mda.rules import RuleSet
from repro.xuml.model import Model
from repro.xuml.serialize import model_to_dict
from repro.xuml.tracked import revision

_MARK_NAMES = sorted(d.name for d in STANDARD_MARKS)

#: Bump whenever an emitter's output or a rule predicate's meaning
#: changes — it invalidates every cached artifact at once.
GENERATOR_VERSION = "e30.1"


def canonical_json(data) -> str:
    """JSON with sorted keys and fixed separators — insertion-order-proof."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def digest(*parts: str) -> str:
    """SHA-256 over the parts, each length-framed so parts cannot bleed."""
    h = hashlib.sha256()
    for part in parts:
        raw = part.encode("utf-8")
        h.update(str(len(raw)).encode("ascii"))
        h.update(b":")
        h.update(raw)
    return h.hexdigest()


#: model -> (revision, fingerprint) of its last serialization
_fingerprints: WeakKeyDictionary[Model, tuple[int, str]] = WeakKeyDictionary()


def model_fingerprint(model: Model) -> str:
    """Hash of the whole model through its canonical serialization,
    memoised until the next model edit (see the module docstring)."""
    now = revision()
    memo = _fingerprints.get(model)
    if memo is not None and memo[0] == now:
        return memo[1]
    fingerprint = digest("model", canonical_json(model_to_dict(model)))
    _fingerprints[model] = (now, fingerprint)
    return fingerprint


def rules_fingerprint(rules: RuleSet) -> str:
    """Hash of the ordered rule identities (see module docstring)."""
    return digest(
        "rules",
        canonical_json([[r.name, r.target] for r in rules.rules]),
        GENERATOR_VERSION,
    )


def effective_class_marks(
    marks: MarkSet, component_name: str, class_key: str
) -> list[list[str]]:
    """The effective (post-default) mark values on one class path."""
    path = f"{component_name}.{class_key}"
    return [[name, str(marks.get(path, name))] for name in _MARK_NAMES]


def class_dependency_key(
    model_fp: str, rules_fp: str, component_name: str, class_key: str,
    target: str, marks: MarkSet,
) -> str:
    """Cache key for one class's artifacts under one mapping target."""
    return digest(
        "class",
        model_fp,
        rules_fp,
        component_name,
        class_key,
        target,
        canonical_json(effective_class_marks(marks, component_name,
                                             class_key)),
        GENERATOR_VERSION,
    )


def shared_dependency_key(
    model_fp: str, component_name: str, kind: str
) -> str:
    """Cache key for a runtime-support artifact bundle.

    *kind* is one of ``"c-types"``, ``"c-runtime"``, ``"vhdl-runtime"``
    — each a function of the manifest alone, independent of the marks.
    """
    return digest("shared", model_fp, component_name, kind,
                  GENERATOR_VERSION)


def manifest_dependency_key(model_fp: str, component_name: str) -> str:
    """Cache key for the lowered manifest + signal flows of a component."""
    return digest("manifest", model_fp, component_name, GENERATOR_VERSION)


def artifacts_digest(artifacts: dict[str, str]) -> str:
    """Content hash of a whole artifact set (byte-identity checks)."""
    return digest(
        "artifacts",
        canonical_json(sorted(artifacts.items())),
    )
