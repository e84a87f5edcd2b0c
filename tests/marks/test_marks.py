"""Unit tests for the marking model (sticky notes)."""

import pytest

from repro.marks import Mark, MarkError, MarkSet, STANDARD_MARKS


class TestMarkSet:
    def test_defaults_from_vocabulary(self):
        marks = MarkSet()
        assert marks.get("c.MO", "isHardware") is False
        assert marks.get("c.MO", "clock_mhz") == 100
        assert marks.get("c.MO", "processor") == "cpu0"

    def test_set_and_get(self):
        marks = MarkSet()
        marks.set("c.MO", "isHardware", True)
        assert marks.get("c.MO", "isHardware") is True
        # only the mark set is explicit; c.PT reads the default
        assert marks.marks == (Mark("c.MO", "isHardware", True),)
        assert marks.get("c.PT", "isHardware") is False

    def test_unknown_mark_name_rejected(self):
        with pytest.raises(MarkError):
            MarkSet().set("c.MO", "mystery", 1)
        with pytest.raises(MarkError):
            MarkSet().get("c.MO", "mystery")

    def test_wrong_value_type_rejected(self):
        marks = MarkSet()
        with pytest.raises(MarkError):
            marks.set("c.MO", "isHardware", "yes")
        with pytest.raises(MarkError):
            marks.set("c.MO", "clock_mhz", "fast")

    def test_one_value_per_element_and_name(self):
        marks = MarkSet()
        marks.set("c.MO", "clock_mhz", 100)
        marks.set("c.MO", "clock_mhz", 200)
        assert marks.get("c.MO", "clock_mhz") == 200
        assert len(marks) == 1

    def test_clear(self):
        marks = MarkSet()
        marks.set("c.MO", "isHardware", True)
        assert marks.clear("c.MO", "isHardware") is True
        assert marks.get("c.MO", "isHardware") is False
        assert marks.clear("c.MO", "isHardware") is False

    def test_copy_is_independent(self):
        marks = MarkSet()
        marks.set("c.MO", "isHardware", True)
        duplicate = marks.copy()
        duplicate.set("c.MO", "isHardware", False)
        assert marks.get("c.MO", "isHardware") is True


class TestMarkingFiles:
    def test_roundtrip(self):
        marks = MarkSet()
        marks.set("c.MO", "isHardware", True)
        marks.set("c.MO", "clock_mhz", 250)
        marks.set("c.PT", "processor", "dsp1")
        text = marks.dumps()
        reloaded = MarkSet.loads(text)
        assert reloaded.marks == marks.marks

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a marking file
        c.MO isHardware = true

        c.PT clock_mhz = 75
        """
        marks = MarkSet.loads(text)
        assert marks.get("c.MO", "isHardware") is True
        assert marks.get("c.PT", "clock_mhz") == 75

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("false", False), ("1", True), ("no", False),
    ])
    def test_boolean_spellings(self, raw, expected):
        marks = MarkSet.loads(f"c.MO isHardware = {raw}")
        assert marks.get("c.MO", "isHardware") is expected

    def test_bad_boolean_rejected(self):
        with pytest.raises(MarkError, match=r"^line 1: mark isHardware: "
                                            r"'maybe' is not a boolean$"):
            MarkSet.loads("c.MO isHardware = maybe")

    def test_bad_integer_rejected(self):
        with pytest.raises(MarkError, match=r"^line 1: mark clock_mhz: "
                                            r"'fast' is not an integer$"):
            MarkSet.loads("c.MO clock_mhz = fast")

    def test_unknown_mark_name_names_its_line(self):
        with pytest.raises(MarkError,
                           match=r"^line 3: unknown mark name 'isHardwar'$"):
            MarkSet.loads("# partition\n\nc.MO isHardwar = true\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(MarkError, match=r"^line 1: expected"):
            MarkSet.loads("c.MO isHardware true")
        with pytest.raises(MarkError):
            MarkSet.loads("c.MO extra words isHardware = true")

    def test_vocabulary_is_documented(self):
        assert any(d.name == "isHardware" for d in STANDARD_MARKS)
        for definition in STANDARD_MARKS:
            assert definition.description

    def test_mark_str(self):
        assert str(Mark("c.MO", "isHardware", True)) == "c.MO isHardware = True"
