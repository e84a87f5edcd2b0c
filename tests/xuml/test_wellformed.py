"""Unit tests for well-formedness checking."""

import pytest

from repro.xuml import ModelBuilder, Severity, WellFormednessError, check_model


def violations_of(builder):
    model = builder.build(check=False)
    return check_model(model)


def base_builder():
    builder = ModelBuilder("M")
    component = builder.component("c")
    return builder, component


class TestIdentifierRules:
    def test_identifier_with_unknown_attribute(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("a", "integer")
        klass.identifier(1, "a", "ghost")
        found = violations_of(builder)
        assert any("ghost" in str(v) for v in found)

    def test_clean_identifier_passes(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("a", "integer")
        klass.identifier(1, "a")
        assert violations_of(builder) == []


class TestReferentialRules:
    def test_unknown_association(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("other_id", "integer", referential="R9")
        found = violations_of(builder)
        assert any("R9" in str(v) for v in found)

    def test_non_participant_formalization(self):
        builder, component = base_builder()
        component.klass("A", "A").attr("x", "integer", referential="R1")
        component.klass("B", "B")
        component.klass("C", "C")
        component.assoc("R1", ("B", "left", "1"), ("C", "right", "1"))
        found = violations_of(builder)
        assert any("does not participate" in str(v) for v in found)


class TestStateMachineRules:
    def test_transition_to_unknown_state(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1)
        klass.trans("A", "W1", "Ghost")
        found = violations_of(builder)
        assert any("Ghost" in str(v) for v in found)

    def test_transition_on_undeclared_event(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1).state("B", 2)
        klass.trans("A", "W9", "B")
        found = violations_of(builder)
        assert any("W9" in str(v) for v in found)

    def test_creation_event_on_normal_transition(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W0", creation=True)
        klass.state("A", 1).state("B", 2)
        klass.trans("A", "W0", "B")
        found = violations_of(builder)
        assert any("creation event" in str(v) for v in found)

    def test_creation_transition_on_normal_event(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1)
        klass.creation("W1", "A")
        found = violations_of(builder)
        assert any("not declared creation" in str(v) for v in found)

    def test_unreachable_state_is_warning_only(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1).state("Island", 2)
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        warnings = [v for v in found if v.severity is Severity.WARNING]
        assert any("unreachable" in str(v) for v in warnings)
        # strict mode must NOT raise on warnings
        model = builder._model
        check_model(model, strict=True)

    def test_unhandled_event_is_warning(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.event("W_UNUSED")
        klass.state("A", 1)
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        assert any("never handled" in str(v) for v in found)

    def test_events_without_machine_is_error(self):
        builder, component = base_builder()
        component.klass("Widget", "W").event("W1")
        found = violations_of(builder)
        assert any("no state machine" in str(v) for v in found)


class TestAssociationRules:
    def test_end_references_unknown_class(self):
        builder, component = base_builder()
        component.klass("A", "A")
        component.assoc("R1", ("A", "x", "1"), ("GHOST", "y", "1"))
        found = violations_of(builder)
        assert any("GHOST" in str(v) for v in found)

    def test_reflexive_same_phrase_rejected(self):
        builder, component = base_builder()
        component.klass("A", "A")
        component.assoc("R1", ("A", "same", "*"), ("A", "same", "0..1"))
        found = violations_of(builder)
        assert any("distinct phrases" in str(v) for v in found)


class TestActionRules:
    def test_syntax_error_in_activity(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1, activity="this is not OAL")
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        assert any("does not parse" in str(v) for v in found)

    def test_type_error_in_activity(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("n", "integer")
        klass.event("W1")
        klass.state("A", 1, activity='self.n = "text";')
        klass.trans("A", "W1", "A")
        found = violations_of(builder)
        assert any("ill-typed" in str(v) for v in found)

    def test_non_decimal_digit_is_a_syntax_error(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1, activity="x = 2\u00b2;")
        klass.trans("A", "W1", "A")
        found = [(v.severity, v.element, v.message)
                 for v in violations_of(builder)]
        assert found == [(
            Severity.ERROR, "c.W.A",
            "activity does not parse: unexpected character '\u00b2' "
            "(line 1, column 6)")]

    @pytest.mark.parametrize("expression,finding", [
        ("self.a + ", "derived attribute does not parse"),
        ("self.nosuch + 1", "derived attribute is ill-typed"),
        ('"text" + 1', "derived attribute is ill-typed"),
    ])
    def test_bad_derived_attribute_is_an_error(self, expression, finding):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("a", "integer")
        klass.attr("twice", "integer", derived=expression)
        errors = [v for v in violations_of(builder)
                  if v.severity is Severity.ERROR]
        assert [v.element for v in errors] == ["c.W.twice"]
        assert finding in errors[0].message
        with pytest.raises(WellFormednessError):
            builder.build()

    def test_good_derived_attribute_passes(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.attr("a", "integer")
        klass.attr("twice", "integer", derived="self.a * 2")
        assert violations_of(builder) == []

    def test_strict_raises_with_all_errors_listed(self):
        builder, component = base_builder()
        klass = component.klass("Widget", "W")
        klass.event("W1")
        klass.state("A", 1, activity="nonsense")
        klass.trans("A", "W1", "Ghost")
        model = builder.build(check=False)
        with pytest.raises(WellFormednessError) as excinfo:
            check_model(model, strict=True)
        assert len(excinfo.value.violations) >= 2


def multi_failure_builder():
    """Two classes whose bodies fail in every way ``check_model`` knows:
    an activity that does not parse, an ill-typed operation and an
    ill-typed derived attribute."""
    builder, component = base_builder()
    first = component.klass("First", "F")
    first.event("F1")
    first.state("Idle", 1, activity="this is not OAL")
    first.state("Done", 2, activity="x = 1;")
    first.trans("Idle", "F1", "Done")
    second = component.klass("Second", "S")
    second.attr("n", "integer")
    second.attr("half", "integer", derived='"text" + 1')
    second.operation("bump", 'self.n = "text";')
    second.operation("fine", "self.n = self.n + 1;")
    return builder


class TestEveryFailingBody:
    def test_each_failing_body_is_reported_in_model_order(self):
        found = [(v.severity, v.element, v.message)
                 for v in violations_of(multi_failure_builder())]
        assert found == [
            (Severity.ERROR, "c.F.Idle",
             "activity does not parse: expected '=', found 'is' "
             "(line 1, column 6)"),
            (Severity.ERROR, "c.S::bump",
             "operation is ill-typed: cannot assign string to integer "
             "(line 1, column 1)"),
            (Severity.ERROR, "c.S.half",
             "derived attribute is ill-typed: arithmetic '+' needs numbers, "
             "got string, integer (line 1, column 15)"),
        ]
