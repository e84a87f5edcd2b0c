"""The whole-model signal-flow graph.

:func:`repro.marks.partition.signal_flows` answers "which class signals
which class" — enough to place a bus, not enough to reason about
concurrency.  The detectors need to know *which state's activity* sends
each signal, whether the send targets ``self``, whether it is delayed,
whether it sits inside a loop, and which events the environment injects.
:func:`build_graph` derives all of that from the *lowered action IR*
(:mod:`repro.exec`) — literally the same lowered bodies the abstract
runtime and the architecture simulators execute, served from the same
fingerprint-keyed lowering cache, so the graph cannot drift from what
actually executes.

The central semantic fact encoded here is :meth:`SignalFlowGraph.\
arrival_states`: under run-to-completion with self-directed events
dispatched first, a *self-only, non-delayed* event can only ever be
consumed while the instance still sits in the state whose activity
generated it.  Cross-instance and delayed sends enjoy no such
protection — the scheduler is free to park them until the receiver has
wandered anywhere reachable.  Getting this right is the difference
between a lint that flags every ``ignore`` row and one whose findings
survive the interleaving explorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import lower_component, walk_ir_generates
from repro.xuml.component import Component
from repro.xuml.model import Model
from repro.xuml.statemachine import EventResponse


@dataclass(frozen=True)
class SignalEdge:
    """One statically discovered send site.

    ``sender_state`` is the state whose activity contains the
    ``generate``, or ``::name`` for an operation body.  ``conditional``
    is true when the send sits under an ``if``/loop — it may not fire on
    every visit to the state.
    """

    sender_class: str
    sender_state: str
    event_label: str
    receiver_class: str
    to_self: bool
    is_creation: bool
    delayed: bool
    in_loop: bool
    conditional: bool
    line: int

    @property
    def from_operation(self) -> bool:
        return self.sender_state.startswith("::")

    def __str__(self) -> str:
        where = f"{self.sender_class}.{self.sender_state}"
        target = "self" if self.to_self else self.receiver_class
        extra = " (delayed)" if self.delayed else ""
        return f"{where} --{self.event_label}--> {target}{extra}"


@dataclass(frozen=True)
class SignalFlowGraph:
    """Every send site in one component, plus the environment's stimuli.

    ``stimuli`` maps receiver class key to the event labels the outside
    world injects (discovered from the model's verify suite, or supplied
    by the caller); these arrive with no sender state and no self-first
    protection.
    """

    component_name: str
    edges: tuple[SignalEdge, ...]
    stimuli: dict[str, frozenset[str]] = field(default_factory=dict)

    def edges_to(self, receiver_class: str, label: str | None = None):
        """All edges delivering to *receiver_class* (optionally one label)."""
        return tuple(
            e for e in self.edges
            if e.receiver_class == receiver_class
            and (label is None or e.event_label == label)
        )

    def senders(self, receiver_class: str, label: str):
        """Distinct (sender class, sender state) pairs for one signal."""
        return sorted({
            (e.sender_class, e.sender_state)
            for e in self.edges_to(receiver_class, label)
        })

    def generated_labels(self, receiver_class: str) -> frozenset[str]:
        """Labels some activity in the model actually sends to this class."""
        return frozenset(
            e.event_label for e in self.edges if e.receiver_class == receiver_class
        )

    def available_labels(self, receiver_class: str) -> frozenset[str]:
        """Labels that can ever reach this class: generated or injected."""
        return self.generated_labels(receiver_class) | self.stimuli.get(
            receiver_class, frozenset()
        )

    def self_only(self, receiver_class: str, label: str) -> bool:
        """True when every delivery of *label* is an immediate self-send.

        Such events are pinned by self-first dispatch + run-to-completion:
        no scheduler can deliver them outside the generating state.  An
        environment stimulus, a delayed send, a creation event or any
        cross-instance sender breaks the pin.
        """
        if label in self.stimuli.get(receiver_class, frozenset()):
            return False
        edges = self.edges_to(receiver_class, label)
        return bool(edges) and all(
            e.to_self and not e.delayed and not e.is_creation
            and not e.from_operation
            for e in edges
        )

    def arrival_states(self, component: Component, receiver_class: str,
                       label: str) -> frozenset[str]:
        """States the receiver can occupy when *label* arrives.

        Self-only non-delayed events arrive exactly in their generating
        states; anything else can arrive in any reachable state.
        """
        machine = component.klass(receiver_class).statemachine
        reachable = frozenset(machine.reachable_states())
        if self.self_only(receiver_class, label):
            return frozenset(
                e.sender_state for e in self.edges_to(receiver_class, label)
            ) & reachable
        return reachable

    def drop_sites(self, component: Component):
        """Every (receiver, label, state, response) where a reachable
        arrival meets an IGNORE or CANT_HAPPEN table row."""
        sites = []
        for klass in component.classes:
            machine = klass.statemachine
            if machine.is_empty():
                continue
            for label in sorted(self.available_labels(klass.key_letters)):
                if klass.has_event(label) and klass.event(label).creation:
                    continue
                for state in sorted(
                    self.arrival_states(component, klass.key_letters, label)
                ):
                    response = machine.response_to(state, label)
                    if response is not EventResponse.TRANSITION:
                        sites.append((klass.key_letters, label, state, response))
        return tuple(sites)


def _edges_from_ir(sender_class: str, source: str, block: list) -> list[SignalEdge]:
    """SignalEdges for every ``generate`` in one lowered body.

    IR generate layout: ``["generate", label, class_key, args,
    target|None, delay|None, line]`` — a ``None`` target is a creation
    event, a ``["self"]`` target is a self-send, and the trailing
    element is the source line the lowering preserved for exactly this
    walk.
    """
    edges = []
    for stmt, in_loop, conditional in walk_ir_generates(block):
        edges.append(SignalEdge(
            sender_class=sender_class,
            sender_state=source,
            event_label=stmt[1],
            receiver_class=stmt[2],
            to_self=stmt[4] == ["self"],
            is_creation=stmt[4] is None,
            delayed=stmt[5] is not None,
            in_loop=in_loop,
            conditional=conditional,
            line=stmt[6],
        ))
    return edges


def build_graph(
    model: Model,
    component: Component,
    stimuli: dict[str, frozenset[str]] | None = None,
) -> SignalFlowGraph:
    """Derive the component's signal-flow graph from its lowered IR."""
    lowered = lower_component(model, component)
    edges: list[SignalEdge] = []
    for (class_key, state_name), block in lowered.activities.items():
        edges.extend(_edges_from_ir(class_key, state_name, block))
    for (class_key, op_name), block in lowered.operations.items():
        edges.extend(_edges_from_ir(class_key, f"::{op_name}", block))
    edges.sort(key=lambda e: (
        e.sender_class, e.sender_state, e.event_label, e.receiver_class, e.line))
    return SignalFlowGraph(
        component_name=component.name,
        edges=tuple(edges),
        stimuli=dict(stimuli or {}),
    )
