"""Unit tests for the whole-model signal-flow graph."""

import pytest

from repro.analysis.signalflow import build_graph
from repro.marks import signal_flows
from repro.models import all_models, build_microwave_model, build_model
from repro.xuml import ModelBuilder
from repro.xuml.statemachine import EventResponse


@pytest.fixture(scope="module")
def microwave():
    model = build_microwave_model()
    return model, model.components[0]


@pytest.fixture(scope="module")
def graph(microwave):
    model, component = microwave
    return build_graph(model, component)


class TestEdgeDiscovery:
    def test_every_send_site_found(self, graph):
        labels = {e.event_label for e in graph.edges}
        assert labels == {"MO4", "MO5", "MO6", "PT1", "PT2"}

    def test_delayed_self_tick(self, graph):
        (edge,) = [e for e in graph.edges if e.event_label == "MO4"]
        assert edge.sender_class == "MO"
        assert edge.sender_state == "Cooking"
        assert edge.to_self and edge.delayed
        assert edge.conditional  # sits under the remaining-seconds if

    def test_cross_class_send(self, graph):
        edges = graph.edges_to("PT", "PT1")
        assert len(edges) == 1
        assert edges[0].sender_class == "MO"
        assert not edges[0].to_self and not edges[0].delayed

    def test_senders_are_sorted_pairs(self, graph):
        assert graph.senders("PT", "PT2") == [
            ("MO", "Complete"), ("MO", "Idle"), ("MO", "Paused")]

    def test_edges_are_deterministically_ordered(self, microwave):
        model, component = microwave
        again = build_graph(model, component)
        assert again.edges == build_graph(model, component).edges


class TestSelfOnlyPinning:
    def test_immediate_self_send_is_pinned(self, graph):
        assert graph.self_only("MO", "MO5")
        assert graph.self_only("MO", "MO6")

    def test_delayed_self_send_is_not_pinned(self, graph):
        assert not graph.self_only("MO", "MO4")

    def test_cross_class_send_is_not_pinned(self, graph):
        assert not graph.self_only("PT", "PT1")

    def test_stimulus_breaks_the_pin(self, microwave):
        model, component = microwave
        stimulated = build_graph(model, component,
                                 stimuli={"MO": frozenset({"MO5"})})
        assert not stimulated.self_only("MO", "MO5")

    def test_arrival_states_for_pinned_event(self, microwave, graph):
        _, component = microwave
        assert graph.arrival_states(component, "MO", "MO5") == {"Preparing"}
        assert graph.arrival_states(component, "MO", "MO6") == {"Cooking"}

    def test_arrival_states_for_unpinned_event(self, microwave, graph):
        _, component = microwave
        everywhere = graph.arrival_states(component, "MO", "MO4")
        assert everywhere == {"Idle", "Preparing", "Cooking", "Paused",
                              "Complete"}


class TestAvailability:
    def test_generated_vs_available(self, microwave):
        model, component = microwave
        graph = build_graph(model, component,
                            stimuli={"MO": frozenset({"MO1", "MO2"})})
        assert "MO1" not in graph.generated_labels("MO")
        assert "MO1" in graph.available_labels("MO")
        assert graph.available_labels("PT") == {"PT1", "PT2"}


class TestDropSites:
    def test_pinning_prunes_false_sites(self, microwave, graph):
        _, component = microwave
        sites = graph.drop_sites(component)
        # MO5/MO6 are pinned to their generating states, where they
        # transition — so no drop site may mention them.
        assert not [s for s in sites if s[1] in ("MO5", "MO6")]

    def test_delayed_tick_hits_ignore_rows(self, microwave, graph):
        _, component = microwave
        sites = set(graph.drop_sites(component))
        assert ("MO", "MO4", "Idle", EventResponse.IGNORE) in sites
        assert ("MO", "MO4", "Paused", EventResponse.IGNORE) in sites

    def test_stimuli_widen_the_sites(self, microwave):
        model, component = microwave
        graph = build_graph(model, component,
                            stimuli={"MO": frozenset({"MO2"})})
        sites = set(graph.drop_sites(component))
        assert ("MO", "MO2", "Idle", EventResponse.IGNORE) in sites


class TestOperationAndLoopEdges:
    def test_operation_send_and_loop_flags(self):
        builder = ModelBuilder("M")
        component = builder.component("c")
        a = component.klass("Alpha", "A")
        a.event("A1")
        a.state("Run", 1, activity="""
            select many peers from instances of B;
            for each peer in peers
                generate B1:B() to peer;
            end for;
        """)
        a.trans("Run", "A1", "Run")
        a.operation("kick", body="generate A1:A() to self;")
        b = component.klass("Beta", "B")
        b.event("B1")
        b.state("Wait", 1).state("Done", 2)
        b.trans("Wait", "B1", "Done")
        model = builder.build(check=False)
        graph = build_graph(model, model.components[0])

        (loop_edge,) = graph.edges_to("B", "B1")
        assert loop_edge.in_loop and loop_edge.conditional

        (op_edge,) = graph.edges_to("A", "A1")
        assert op_edge.sender_state == "::kick"
        assert op_edge.from_operation
        # operation bodies run outside any run-to-completion chain
        assert not graph.self_only("A", "A1")


@pytest.mark.parametrize("name", sorted(all_models()))
def test_partition_flows_match_the_graph_state_edges(name):
    """Two views of one component's sends agree: the partition's flows
    are the graph's state-activity edges, projected."""
    model = build_model(name)
    component = model.components[0]
    graph = build_graph(model, component)
    projected = {
        (edge.sender_class, edge.receiver_class, edge.event_label)
        for edge in graph.edges if not edge.from_operation
    }
    flows = signal_flows(model, component)
    assert [(f.sender_class, f.receiver_class, f.event_label)
            for f in flows] == sorted(projected)
