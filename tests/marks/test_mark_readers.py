"""Every mark in the vocabulary selects something.

Paper section 3: a mark "selects which mapping rule applies".  A mark
that no mapping reads passes validation and changes nothing but the
``marks.mks`` snapshot, so each definition in :data:`STANDARD_MARKS`
must change a generated artifact, the rule a class maps under, or the
partition, when set to a non-default value on one catalog class.
"""

import pytest

from repro.marks import STANDARD_MARKS, marks_for_partition
from repro.mda import ModelCompiler
from repro.mda.rules import RuleSet
from repro.mda.syscgen import SYSTEMC_RULE
from repro.models import build_microwave_model

#: name -> (class it is set on, non-default value); a new mark needs an
#: entry.  PT is the hardware side of the base partition and receives
#: boundary messages from MO.
NON_DEFAULT = {
    "isHardware": ("MO", True),
    "clock_mhz": ("PT", 250),
    "processor": ("MO", "systemc"),
    "crc": ("PT", "crc8"),
    "maxRetries": ("PT", 2),
    "retryBackoffNs": ("PT", 5_000),
    "isCritical": ("PT", True),
}

#: marks that act only on framed messages, so their class also gets crc
NEEDS_CRC = {"maxRetries", "retryBackoffNs", "isCritical"}


def observable(build):
    """What a mark may change: artifacts, mapped rules, partition."""
    artifacts = {name: text for name, text in build.artifacts.items()
                 if name != "marks.mks"}
    return (artifacts, dict(build.rules_applied),
            build.partition.hardware_classes)


@pytest.mark.parametrize("definition", STANDARD_MARKS,
                         ids=lambda d: d.name)
def test_every_mark_is_read_by_a_mapping(definition):
    model = build_microwave_model()
    component = model.components[0]
    compiler = ModelCompiler(
        model, rules=RuleSet.standard().prepend(SYSTEMC_RULE))
    base = marks_for_partition(component, ("PT",))
    if definition.name in NEEDS_CRC:
        base.set(f"{component.name}.PT", "crc", "crc16")

    klass, value = NON_DEFAULT[definition.name]
    assert value != definition.default
    marked = base.copy()
    marked.set(f"{component.name}.{klass}", definition.name, value)

    assert observable(compiler.compile(marked)) != \
        observable(compiler.compile(base)), definition.name
