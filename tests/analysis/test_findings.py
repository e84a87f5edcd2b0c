"""Unit tests for the shared findings model and its legacy facades."""

import json
from dataclasses import replace

from repro.analysis.findings import (
    Finding,
    LintFinding,
    MarkViolation,
    Severity,
    Violation,
    sorted_findings,
)


class TestSeverity:
    def test_rank_orders_badness(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank

    def test_value_round_trips(self):
        for severity in Severity:
            assert Severity(severity.value) is severity


class TestFinding:
    def test_str_rendering(self):
        finding = Finding(Severity.WARNING, "c.MO", "signal dropped")
        assert str(finding) == "[warning] c.MO: signal dropped"

    def test_baseline_key_excludes_severity(self):
        info = Finding(Severity.INFO, "c.MO", "dropped", rule="lost-signal")
        warn = replace(info, severity=Severity.WARNING, witness="w")
        assert info.baseline_key == warn.baseline_key
        assert info.baseline_key == "lost-signal|c.MO|dropped"

    def test_witness_excluded_from_equality(self):
        plain = Finding(Severity.ERROR, "c.MO", "m", rule="r")
        witnessed = Finding(Severity.ERROR, "c.MO", "m", rule="r",
                            witness=object())
        assert plain == witnessed

    def test_json_round_trip(self):
        finding = Finding(Severity.ERROR, "gen/main.c", "bad include",
                          rule="structural", line=12)
        payload = json.loads(json.dumps(finding.to_json()))
        assert payload == {"severity": "error", "element": "gen/main.c",
                           "message": "bad include", "rule": "structural",
                           "line": 12}

    def test_json_omits_absent_extras(self):
        payload = Finding(Severity.INFO, "e", "m").to_json()
        assert "line" not in payload and "witness" not in payload


class TestSortedFindings:
    def test_worst_first_then_stable_key(self):
        findings = [
            Finding(Severity.INFO, "a", "z"),
            Finding(Severity.ERROR, "z", "a"),
            Finding(Severity.WARNING, "b", "b"),
            Finding(Severity.ERROR, "a", "b"),
        ]
        ordered = sorted_findings(findings)
        assert [f.severity for f in ordered] == [
            Severity.ERROR, Severity.ERROR, Severity.WARNING, Severity.INFO]
        assert [f.element for f in ordered] == ["a", "z", "b", "a"]

    def test_deterministic_under_shuffle(self):
        findings = [Finding(Severity.WARNING, e, m)
                    for e in "abc" for m in "xy"]
        assert sorted_findings(findings) == sorted_findings(reversed(findings))


class TestViolationCompat:
    def test_positional_signature(self):
        violation = Violation(Severity.WARNING, "c.W", "state unreachable")
        assert violation.severity is Severity.WARNING
        assert violation.element == "c.W"
        assert str(violation) == "[warning] c.W: state unreachable"

    def test_is_a_finding(self):
        assert isinstance(Violation(Severity.ERROR, "e", "m"), Finding)

    def test_reexported_from_wellformed(self):
        from repro.xuml.wellformed import Violation as Legacy
        assert Legacy is Violation


class TestLintFindingCompat:
    def test_legacy_signature_and_rendering(self):
        finding = LintFinding("gen/top.vhd", 4, "missing entity")
        assert finding.path == "gen/top.vhd"
        assert finding.line == 4
        assert finding.severity is Severity.ERROR
        assert finding.rule == "structural"
        assert str(finding) == "gen/top.vhd:4: missing entity"

    def test_is_a_finding_with_json(self):
        finding = LintFinding("a.c", 1, "m")
        assert isinstance(finding, Finding)
        assert finding.to_json()["line"] == 1


class TestMarkViolationCompat:
    def test_legacy_signature_and_rendering(self):
        violation = MarkViolation("control.MO", "crc", "bad kind")
        assert violation.element_path == "control.MO"
        assert violation.mark_name == "crc"
        assert violation.severity is Severity.ERROR
        assert violation.rule == "marks.crc"
        assert str(violation) == "control.MO crc: bad kind"

    def test_is_a_finding(self):
        assert isinstance(MarkViolation("e", "m", "x"), Finding)

    def test_reexported_from_validate(self):
        from repro.marks.validate import MarkViolation as Legacy
        assert Legacy is MarkViolation


class TestLazyPackageExports:
    def test_every_export_resolves(self):
        import repro.analysis as analysis
        for name in analysis.__all__:
            assert getattr(analysis, name) is not None
