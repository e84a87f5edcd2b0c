"""Unit tests for the one instance-and-link store.

Every executor keeps its instances and links in the shared
:class:`~repro.runtime.dispatcher.Dispatcher`, so these tests drive the
store through the executors' public calls.  Each class runs on the
abstract runtime; its ``OnCsim`` subclass reruns it on the C simulator,
whose tables come from the build manifest instead of the model.
"""

import pytest

from repro.mda import ArchError, CSoftwareMachine, build_manifest
from repro.runtime import MultiplicityError, Simulation, SimulationError
from repro.xuml import ModelBuilder


def build_model():
    builder = ModelBuilder("M")
    c = builder.component("c")
    widget = c.klass("Widget", "W")
    widget.attr("w_id", "unique_id")
    widget.attr("count", "integer", default=5)
    c.klass("Gadget", "G").attr("g_id", "unique_id")
    c.klass("Person", "P").attr("p_id", "unique_id")
    c.assoc("R1", ("W", "owns", "1"), ("G", "is owned by", "*"))
    c.assoc("R2", ("P", "manages", "0..1"), ("P", "is managed by", "*"))
    return builder.build(check=False)


class OnAbstractRuntime:
    """Runs a test class on the abstract runtime."""

    error = SimulationError
    multiplicity_error = MultiplicityError

    def setup_method(self):
        self.host = self.executor(build_model())

    @staticmethod
    def executor(model):
        return Simulation(model)


class OnCsim:
    """Reruns a test class on the C simulator."""

    error = multiplicity_error = ArchError

    @staticmethod
    def executor(model):
        return CSoftwareMachine(build_manifest(model, model.component("c")))


class TestPopulation(OnAbstractRuntime):
    def test_create_applies_defaults(self):
        handle = self.host.create_instance("W")
        assert self.host.read_attribute(handle, "w_id") == 0
        assert self.host.read_attribute(handle, "count") == 5
        assert self.host.state_of(handle) is None    # passive class

    def test_get_and_has(self):
        handle = self.host.create_instance("W")
        assert self.host.instance(handle).handle == handle
        assert self.host.class_of(handle) == "W"
        assert self.host.instances_of("W") == (handle,)
        with pytest.raises(self.error):
            self.host.class_of(handle + 1)

    def test_delete_marks_dead(self):
        handle = self.host.create_instance("W")
        self.host.delete_instance(handle)
        assert self.host.instances_of("W") == ()
        with pytest.raises(self.error):
            self.host.read_attribute(handle, "count")
        with pytest.raises(self.error):
            self.host.write_attribute(handle, "count", 1)
        with pytest.raises(self.error):
            self.host.state_of(handle)

    def test_double_delete_raises(self):
        handle = self.host.create_instance("W")
        self.host.delete_instance(handle)
        with pytest.raises(self.error):
            self.host.delete_instance(handle)

    def test_unknown_attribute_access(self):
        handle = self.host.create_instance("W")
        with pytest.raises(self.error):
            self.host.read_attribute(handle, "ghost")
        with pytest.raises(self.error):
            self.host.write_attribute(handle, "ghost", 1)

    def test_instances_of_is_sorted(self):
        first, second, third = (self.host.create_instance("W")
                                for _ in range(3))
        self.host.delete_instance(second)
        fourth = self.host.create_instance("W")
        assert self.host.instances_of("W") == (first, third, fourth)
        assert first < third < fourth


class TestLinkStore(OnAbstractRuntime):
    def setup_method(self):
        super().setup_method()
        create = self.host.create_instance
        self.w1, self.w2 = create("W"), create("W")
        self.g1, self.g2 = create("G"), create("G")
        self.p1, self.p2, self.p3 = create("P"), create("P"), create("P")

    def test_relate_and_navigate_both_directions(self):
        self.host.relate(self.w1, self.g1, "R1")
        assert self.host.navigate(self.w1, "R1", "G") == (self.g1,)
        assert self.host.navigate(self.g1, "R1", "W") == (self.w1,)

    def test_one_end_multiplicity_enforced(self):
        # each G sees exactly 1 W: relating a second W to the same G fails
        self.host.relate(self.w1, self.g1, "R1")
        with pytest.raises(self.multiplicity_error):
            self.host.relate(self.w2, self.g1, "R1")

    def test_many_end_accepts_several(self):
        self.host.relate(self.w1, self.g1, "R1")
        self.host.relate(self.w1, self.g2, "R1")
        assert self.host.navigate(self.w1, "R1", "G") == (self.g1, self.g2)

    def test_relate_is_idempotent(self):
        self.host.relate(self.w1, self.g1, "R1")
        self.host.relate(self.w1, self.g1, "R1")
        assert self.host.navigate(self.w1, "R1", "G") == (self.g1,)
        self.host.unrelate(self.w1, self.g1, "R1")   # one link to remove
        assert self.host.navigate(self.g1, "R1", "W") == ()

    def test_unrelate(self):
        self.host.relate(self.w1, self.g1, "R1")
        self.host.unrelate(self.w1, self.g1, "R1")
        assert self.host.navigate(self.w1, "R1", "G") == ()

    def test_unrelate_missing_link_raises(self):
        with pytest.raises(self.error):
            self.host.unrelate(self.w1, self.g1, "R1")

    def test_reflexive_needs_phrase(self):
        with pytest.raises(self.error):
            self.host.relate(self.p1, self.p2, "R2")
        with pytest.raises(self.error):
            self.host.navigate(self.p1, "R2", "P")
        self.host.relate(self.p1, self.p2, "R2", phrase="is managed by")

    def test_reflexive_navigation_by_phrase(self):
        # p1 manages p2: "p2 is managed by p1"
        self.host.relate(self.p1, self.p2, "R2", phrase="is managed by")
        assert self.host.navigate(
            self.p1, "R2", "P", phrase="is managed by") == (self.p2,)
        assert self.host.navigate(
            self.p2, "R2", "P", phrase="manages") == (self.p1,)

    def test_reflexive_upper_bound(self):
        # a person has at most one manager (manages end is 0..1)
        self.host.relate(self.p1, self.p3, "R2", phrase="is managed by")
        with pytest.raises(self.multiplicity_error):
            self.host.relate(self.p2, self.p3, "R2", phrase="is managed by")

    def test_drop_instance_clears_all_links(self):
        self.host.relate(self.w1, self.g1, "R1")
        self.host.relate(self.w1, self.g2, "R1")
        self.host.delete_instance(self.w1)
        assert self.host.navigate(self.g1, "R1", "W") == ()
        assert self.host.navigate(self.g2, "R1", "W") == ()

    def test_integrity_violations_for_unconditional_end(self):
        # every G must have a W (the W end is mult 1)
        self.host.delete_instance(self.g2)
        violations = self.host.referential_violations()
        assert any(f"G#{self.g1}" in v for v in violations)
        self.host.relate(self.w1, self.g1, "R1")
        assert self.host.referential_violations() == []


class TestPopulationOnCsim(OnCsim, TestPopulation):
    pass


class TestLinkStoreOnCsim(OnCsim, TestLinkStore):
    pass
