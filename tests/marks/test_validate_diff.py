"""Unit tests for mark validation and mark-set diffing."""

import pytest

from repro.marks import (
    ChangeKind,
    MarkError,
    MarkSet,
    STANDARD_MARKS,
    diff_marks,
    partition_change_cost,
    validate_marks,
)
from repro.models import build_microwave_model


@pytest.fixture(scope="module")
def model():
    return build_microwave_model()


class TestValidation:
    def test_valid_marks_pass(self, model):
        marks = MarkSet()
        marks.set("control.MO", "isHardware", True)
        marks.set("control.MO", "clock_mhz", 200)
        assert validate_marks(marks, model) == []

    def test_unknown_element_reported(self, model):
        marks = MarkSet()
        marks.set("control.GHOST", "isHardware", True)
        violations = validate_marks(marks, model)
        assert any("does not exist" in str(v) for v in violations)

    def test_clock_range_checked(self, model):
        marks = MarkSet()
        marks.set("control.MO", "isHardware", True)
        marks.set("control.MO", "clock_mhz", 0)
        violations = validate_marks(marks, model)
        assert any("outside" in str(v) for v in violations)

    def test_clock_on_software_class_reported(self, model):
        marks = MarkSet()
        marks.set("control.MO", "clock_mhz", 100)   # but not isHardware
        violations = validate_marks(marks, model)
        assert any("only applies" in str(v) for v in violations)

    def test_component_processor_mark_reported(self, model):
        # No mapping reads a component path, so this would select nothing.
        marks = MarkSet()
        marks.set("control", "processor", "systemc")
        violations = validate_marks(marks, model)
        assert [(v.element_path, v.mark_name) for v in violations] == \
            [("control", "processor")]
        assert "targets a class" in violations[0].message

    def test_strict_raises(self, model):
        marks = MarkSet()
        marks.set("nowhere.XX", "isHardware", True)
        with pytest.raises(MarkError):
            validate_marks(marks, model, strict=True)


class TestComponentLevelMarks:
    """Marks attach to classes.  No mapping reads a component path, so a
    mark there would be accepted and do nothing; it is reported."""

    def test_class_only_mark_on_component_reported(self, model):
        marks = MarkSet()
        marks.set("control", "isHardware", True)  # moves nothing to HW
        violations = validate_marks(marks, model)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.element_path == "control"
        assert violation.mark_name == "isHardware"
        assert "targets a class" in violation.message

    @pytest.mark.parametrize("name,value", [
        ("isHardware", True),
        ("clock_mhz", 200),
        ("crc", "crc16"),
        ("maxRetries", 3),
        ("retryBackoffNs", 1000),
        ("isCritical", True),
    ])
    def test_every_class_only_mark_is_rejected_at_component_level(
            self, model, name, value):
        marks = MarkSet()
        marks.set("control", name, value)
        violations = validate_marks(marks, model)
        assert any(v.mark_name == name and "targets a class" in v.message
                   for v in violations)

    def test_every_mark_on_a_component_is_reported(self, model):
        marks = MarkSet()
        for definition in STANDARD_MARKS:
            marks.set("control", definition.name, definition.default)
        violations = validate_marks(marks, model)
        assert sorted(v.mark_name for v in violations) == \
            sorted(d.name for d in STANDARD_MARKS)
        assert all(v.element_path == "control"
                   and "targets a class" in v.message for v in violations)

    def test_same_mark_on_a_class_is_still_fine(self, model):
        marks = MarkSet()
        marks.set("control.MO", "isHardware", True)
        assert validate_marks(marks, model) == []

    def test_strict_mode_raises_on_component_misplacement(self, model):
        marks = MarkSet()
        marks.set("control", "crc", "crc8")
        with pytest.raises(MarkError, match="targets a class"):
            validate_marks(marks, model, strict=True)


class TestReliabilityValidation:
    """The protection vocabulary (crc / maxRetries / ...) stays honest."""

    def test_valid_reliability_marks_pass(self, model):
        marks = MarkSet()
        marks.set("control.PT", "crc", "crc16")
        marks.set("control.PT", "maxRetries", 3)
        marks.set("control.PT", "retryBackoffNs", 2000)
        marks.set("control.PT", "isCritical", True)
        assert validate_marks(marks, model) == []

    def test_unknown_crc_kind_reported(self, model):
        marks = MarkSet()
        marks.set("control.PT", "crc", "parity")
        violations = validate_marks(marks, model)
        assert any("not one of" in str(v) for v in violations)

    def test_retry_budget_range_checked(self, model):
        marks = MarkSet()
        marks.set("control.PT", "crc", "crc8")
        marks.set("control.PT", "maxRetries", 17)
        violations = validate_marks(marks, model)
        assert any("outside 0..16" in str(v) for v in violations)

    def test_retries_without_crc_reported(self, model):
        marks = MarkSet()
        marks.set("control.PT", "maxRetries", 2)   # but crc defaults "none"
        violations = validate_marks(marks, model)
        assert any("requires a crc" in str(v) for v in violations)

    def test_backoff_must_be_positive(self, model):
        marks = MarkSet()
        marks.set("control.PT", "crc", "crc16")
        marks.set("control.PT", "retryBackoffNs", 0)
        violations = validate_marks(marks, model)
        assert any("at least 1 ns" in str(v) for v in violations)

    def test_critical_without_crc_reported(self, model):
        marks = MarkSet()
        marks.set("control.PT", "isCritical", True)
        violations = validate_marks(marks, model)
        assert any("needs a crc" in str(v) for v in violations)

    def test_zero_retries_with_crc_is_fine(self, model):
        # detect-only protection: CRC rejects, nothing retransmits
        marks = MarkSet()
        marks.set("control.PT", "crc", "crc8")
        marks.set("control.PT", "maxRetries", 0)
        assert validate_marks(marks, model) == []


class TestDiff:
    def test_added_removed_changed(self):
        old = MarkSet()
        old.set("c.A", "isHardware", True)
        old.set("c.B", "clock_mhz", 100)
        new = MarkSet()
        new.set("c.A", "isHardware", False)       # changed
        new.set("c.C", "isHardware", True)        # added
        changes = diff_marks(old, new)            # B's mark removed
        kinds = {(c.element_path, c.kind) for c in changes}
        assert ("c.A", ChangeKind.CHANGED) in kinds
        assert ("c.B", ChangeKind.REMOVED) in kinds
        assert ("c.C", ChangeKind.ADDED) in kinds

    def test_identical_sets_diff_empty(self):
        marks = MarkSet()
        marks.set("c.A", "isHardware", True)
        assert diff_marks(marks, marks.copy()) == []

    def test_partition_change_cost_counts_only_is_hardware(self):
        old = MarkSet()
        old.set("c.A", "isHardware", False)
        old.set("c.A", "clock_mhz", 100)
        new = MarkSet()
        new.set("c.A", "isHardware", True)
        new.set("c.A", "clock_mhz", 400)
        assert partition_change_cost(old, new) == 1

    def test_change_rendering(self):
        old = MarkSet()
        new = MarkSet()
        new.set("c.A", "isHardware", True)
        change = diff_marks(old, new)[0]
        assert str(change).startswith("+ c.A isHardware")
