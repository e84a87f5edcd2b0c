"""Instance state machines.

The execution rules come straight from the paper (section 2):

* each object has a concurrently executing state machine;
* on receipt of a signal the machine transitions and executes the actions
  of the destination state, which run to completion before the next signal
  is processed;
* the state/event table may also mark an event as *ignored* (dropped
  silently) or *can't happen* (a modelling error if it arrives).

States own an *activity*: a block of action-language text executed on
entry.  Transitions carry no actions of their own — this is the classic
Moore-style xtUML formulation, which is what makes hardware mapping (one
FSM process per class) straightforward.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DefinitionError, DuplicateElementError, UnknownElementError
from .tracked import Tracked, bump


class EventResponse(enum.Enum):
    """What a state does with an incoming event."""

    TRANSITION = "transition"
    IGNORE = "ignore"
    CANT_HAPPEN = "cant_happen"


@dataclass
class State(Tracked):
    """One state: a name, a number, and an entry activity in OAL text."""

    name: str
    number: int
    activity: str = ""
    final: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"state name {self.name!r} is not an identifier")
        if self.number < 1:
            raise ValueError("state numbers start at 1")


@dataclass(frozen=True)
class Transition:
    """A (state, event) -> state entry of the state transition table."""

    from_state: str
    event_label: str
    to_state: str


@dataclass(frozen=True)
class CreationTransition:
    """A creation event -> initial state entry (instance born by event)."""

    event_label: str
    to_state: str


class StateMachine(Tracked):
    """The lifecycle of one class, as a state transition table.

    The table is total: for every (state, event) pair the machine answers
    :class:`EventResponse.TRANSITION`, ``IGNORE`` or ``CANT_HAPPEN``.
    Unlisted pairs default to ``CANT_HAPPEN``, xtUML's safe default —
    the well-formedness checker reports them so the modeller decides.
    """

    def __init__(self, initial_state: str | None = None):
        self._states: dict[str, State] = {}
        self._transitions: dict[tuple[str, str], Transition] = {}
        self._creations: dict[str, CreationTransition] = {}
        self._responses: dict[tuple[str, str], EventResponse] = {}
        self.initial_state = initial_state

    # -- construction ------------------------------------------------------

    def add_state(self, state: State) -> State:
        if state.name in self._states:
            raise DuplicateElementError(f"state {state.name!r} already defined")
        for existing in self._states.values():
            if existing.number == state.number:
                raise DuplicateElementError(
                    f"state number {state.number} already used by {existing.name!r}"
                )
        bump()
        self._states[state.name] = state
        if self.initial_state is None and not state.final:
            self.initial_state = state.name
        return state

    def add_transition(self, from_state: str, event_label: str, to_state: str) -> Transition:
        key = (from_state, event_label)
        if key in self._responses:
            raise DuplicateElementError(
                f"state {from_state!r} already answers event {event_label!r}"
            )
        bump()
        tr = Transition(from_state, event_label, to_state)
        self._transitions[key] = tr
        self._responses[key] = EventResponse.TRANSITION
        return tr

    def add_creation_transition(self, event_label: str, to_state: str) -> CreationTransition:
        if event_label in self._creations:
            raise DuplicateElementError(
                f"creation event {event_label!r} already defined"
            )
        bump()
        ct = CreationTransition(event_label, to_state)
        self._creations[event_label] = ct
        return ct

    def set_ignored(self, state: str, event_label: str) -> None:
        key = (state, event_label)
        if self._responses.get(key) is EventResponse.TRANSITION:
            raise DefinitionError(
                f"({state}, {event_label}) already transitions; cannot ignore"
            )
        bump()
        self._responses[key] = EventResponse.IGNORE

    def set_cant_happen(self, state: str, event_label: str) -> None:
        key = (state, event_label)
        if self._responses.get(key) is EventResponse.TRANSITION:
            raise DefinitionError(
                f"({state}, {event_label}) already transitions; cannot mark can't-happen"
            )
        bump()
        self._responses[key] = EventResponse.CANT_HAPPEN

    # -- queries -----------------------------------------------------------

    @property
    def states(self) -> tuple[State, ...]:
        return tuple(self._states.values())

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(self._states)

    @property
    def transitions(self) -> tuple[Transition, ...]:
        return tuple(self._transitions.values())

    @property
    def creation_transitions(self) -> tuple[CreationTransition, ...]:
        return tuple(self._creations.values())

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise UnknownElementError(f"no state named {name!r}") from None

    def has_state(self, name: str) -> bool:
        return name in self._states

    def response_to(self, state: str, event_label: str) -> EventResponse:
        """The table entry for (state, event); CANT_HAPPEN when unlisted."""
        return self._responses.get((state, event_label), EventResponse.CANT_HAPPEN)

    def transition_for(self, state: str, event_label: str) -> Transition | None:
        return self._transitions.get((state, event_label))

    def creation_transition_for(self, event_label: str) -> CreationTransition | None:
        return self._creations.get(event_label)

    def events_handled(self) -> frozenset[str]:
        """All event labels the table mentions (any response kind)."""
        labels = {ev for (_, ev) in self._responses}
        labels.update(self._creations)
        return frozenset(labels)

    def is_empty(self) -> bool:
        return not self._states

    def reachable_states(self) -> frozenset[str]:
        """States reachable from the initial state and creation transitions."""
        frontier: list[str] = []
        if self.initial_state is not None:
            frontier.append(self.initial_state)
        frontier.extend(ct.to_state for ct in self._creations.values())
        seen: set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen or current not in self._states:
                continue
            seen.add(current)
            for tr in self._transitions.values():
                if tr.from_state == current:
                    frontier.append(tr.to_state)
        return frozenset(seen)
