"""The emitted text of the whole catalog, pinned by SHA-256.

Every artifact of the 25 ``catalog_matrix()`` builds (all-software,
each single-class hardware retarget, all-hardware), plus every artifact
of each model built with all its classes mapped to SystemC: 379 files.
A change to how the emitters work out what to print (types, owners,
includes) must leave every byte where it was.

Regenerate the digests only for a deliberate change of the emitted
text: ``PYTHONPATH=src python tests/mda/test_emitted_text_pin.py``.
"""

import hashlib
import json
import pathlib

from repro.build.scheduler import catalog_matrix
from repro.marks import MarkSet, marks_for_partition
from repro.mda import SYSTEMC_RULE, ModelCompiler, RuleSet
from repro.models import CATALOG, all_models

PINNED = pathlib.Path(__file__).with_name("emitted_text_digests.json")


def emitted_digests() -> dict[str, str]:
    """``"<model>/<build>/<artifact>"`` -> SHA-256 of its text."""
    models = all_models()
    builds = []
    for job in catalog_matrix():
        model = models[job.model]
        marks = marks_for_partition(model.components[0], job.hardware)
        builds.append((job.model, job.label, ModelCompiler(model), marks))
    rules = RuleSet.standard().prepend(SYSTEMC_RULE)
    for entry in CATALOG:
        model = models[entry.name]
        component = model.components[0]
        marks = MarkSet()
        for key in component.class_keys:
            marks.set(f"{component.name}.{key}", "processor", "systemc")
        builds.append((entry.name, "systemc-all",
                       ModelCompiler(model, rules=rules), marks))
    digests = {}
    for model_name, label, compiler, marks in builds:
        for path, text in compiler.compile(marks).artifacts.items():
            digests[f"{model_name}/{label}/{path}"] = hashlib.sha256(
                text.encode()).hexdigest()
    return digests


def test_every_artifact_matches_its_pinned_digest():
    pinned = json.loads(PINNED.read_text())
    digests = emitted_digests()
    assert len(pinned) == 379
    assert sorted(digests) == sorted(pinned)
    changed = sorted(path for path in pinned if digests[path] != pinned[path])
    assert changed == []


if __name__ == "__main__":
    PINNED.write_text(json.dumps(emitted_digests(), indent=1, sort_keys=True)
                      + "\n")
