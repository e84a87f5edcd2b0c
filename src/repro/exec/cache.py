"""The lowering cache — parse/analyze/lower each component once.

This is the only place that parses, analyzes and lowers OAL.
:func:`oal_bodies` walks a component's bodies once per caller: the
lowering raises the first body that fails, and
:func:`repro.xuml.wellformed.check_model` reports every one.  Each body
text is parsed once (the AST is frozen; each analysis keeps its own
side tables).
Lowering is a pure function of the model's content, so the cache is
content-addressed with the *build layer's* fingerprint
(:func:`repro.build.fingerprint.model_fingerprint`): two structurally
identical models — e.g. a catalog model rebuilt for every verification
case — share one lowered form, while any model edit changes the key and
misses.  The fingerprint is memoised per model object until the next
edit to any model element, so looking a lowering up serializes the model
only the first time after an edit.

A :class:`LoweredComponent` is the one copy of the component's dispatch
tables and IR.  The abstract runtime loads it at model-load; the build
manifest carries it (``ComponentManifest.lowered``), so csim, vsim and
the co-sim load the same object and the C, SystemC and VHDL emitters
print from it; the partition's signal flows and the signal-flow
analyzer walk its blocks.  The tables and blocks are shared, so nothing
may mutate them.

Hit/miss counters are kept module-level and read through
:func:`lowering_cache_stats` (``repro metrics`` reports them as
``exec.lower_cache.hits`` / ``exec.lower_cache.misses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.oal.analyzer import analyze_activity
from repro.oal.ast import Block
from repro.oal.errors import AnalysisError, OALSyntaxError
from repro.oal.parser import parse_activity
from repro.xuml.component import Component
from repro.xuml.datatypes import dtype_tag
from repro.xuml.klass import derived_operation
from repro.xuml.model import Model

from .codegen import clear_compiled_blocks
from .ir import lower_block


@dataclass(frozen=True)
class LoweredComponent:
    """One component's dispatch tables and lowered bodies.

    Keys mirror what the executors look up: ``activities`` by
    ``(class_key, state_name)``, ``operations`` by ``(class_key, name)``,
    ``derived`` by ``(class_key, attribute_name)``.  ``event_parameters``
    holds, per activity, the ``(name, type tag)`` pairs of the event
    parameters its analysis declared visible (those every entering event
    carries with one type); the C and SystemC printers declare an entry
    action's parameter view from them.  ``classes`` maps each class to
    its attribute defaults and initial state (None when passive),
    ``associations`` holds the component's associations, and the state
    tables are ``responses`` ((class, state, label) -> destination state
    or the :class:`~repro.xuml.statemachine.EventResponse` that drops
    the signal), ``creations`` ((class, label) -> created state) and
    ``accepts`` ((class, label) -> creates?).  Every executor loads this
    one object (:meth:`repro.runtime.dispatcher.Dispatcher._load_tables`).
    """

    fingerprint: str
    component_name: str
    associations: tuple = ()
    activities: dict[tuple[str, str], list] = field(default_factory=dict)
    event_parameters: dict[tuple[str, str], tuple[tuple[str, str], ...]] = (
        field(default_factory=dict))
    operations: dict[tuple[str, str], list] = field(default_factory=dict)
    derived: dict[tuple[str, str], list] = field(default_factory=dict)
    classes: dict[str, tuple[dict, str | None]] = field(default_factory=dict)
    responses: dict[tuple[str, str, str], object] = field(default_factory=dict)
    creations: dict[tuple[str, str], str] = field(default_factory=dict)
    accepts: dict[tuple[str, str], bool] = field(default_factory=dict)


#: (model fingerprint, component name) -> LoweredComponent
_cache: dict[tuple[str, str], LoweredComponent] = {}
_hits = 0
_misses = 0
#: OAL body text -> its parsed Block; dropped whole past _PARSED_LIMIT
_parsed: dict[str, Block] = {}
_PARSED_LIMIT = 4096


def lowering_cache_stats() -> dict[str, int]:
    """Snapshot of the cache: entries held, hits and misses so far."""
    return {"entries": len(_cache), "hits": _hits, "misses": _misses}


def clear_lowering_cache() -> None:
    """Drop every cached lowering, parse and compiled block; reset counters."""
    global _hits, _misses
    _cache.clear()
    _parsed.clear()
    clear_compiled_blocks()
    _hits = 0
    _misses = 0


def oal_bodies(model: Model, component: Component):
    """Parse and analyze every OAL body of *component*, in model order.

    Per class: each state activity, each operation, then each derived
    attribute's :func:`~repro.xuml.klass.derived_operation`.  Yields
    ``(kind, key, where, outcome)``: *kind* is ``"activity"``,
    ``"operation"`` or ``"derived attribute"``, *key* is (class key
    letters, state, operation or attribute name), *where* is the element
    a well-formedness violation names, and *outcome* is ``(block,
    analysis)`` or the :class:`~repro.oal.errors.OALSyntaxError` or
    :class:`~repro.oal.errors.AnalysisError` the body raised.  The
    lowering raises the first error; ``check_model`` reports each one.
    """
    for klass in component.classes:
        prefix = f"{component.name}.{klass.key_letters}"
        for kind, name, where, state, operation in (
            *(("activity", s.name, f"{prefix}.{s.name}", s, None)
              for s in klass.statemachine.states),
            *(("operation", o.name, f"{prefix}::{o.name}", None, o)
              for o in klass.operations),
            *(("derived attribute", a.name, f"{prefix}.{a.name}", None,
               derived_operation(a))
              for a in klass.attributes if a.derived is not None),
        ):
            body = operation.body if state is None else state.activity
            try:
                block = _parse(body)
                outcome = block, analyze_activity(
                    block, model, component, klass, state,
                    operation=operation)
            except (OALSyntaxError, AnalysisError) as exc:
                outcome = exc
            yield kind, (klass.key_letters, name), where, outcome


def _parse(body: str) -> Block:
    """*body* parsed once per process; a syntax error is never kept."""
    if body not in _parsed:
        if len(_parsed) >= _PARSED_LIMIT:
            _parsed.clear()
        _parsed[body] = parse_activity(body)
    return _parsed[body]


def _lower_component_uncached(
    model: Model, component: Component, fingerprint: str
) -> LoweredComponent:
    lowered = LoweredComponent(fingerprint, component.name,
                               tuple(component.associations))
    for klass in component.classes:
        key = klass.key_letters
        machine = klass.statemachine
        lowered.classes[key] = (
            {a.name: a.initial_value for a in klass.attributes
             if a.derived is None},
            machine.initial_state if klass.is_active else None)
        lowered.responses.update(
            ((key, state, e.label), machine.response_to(state, e.label))
            for state in machine.state_names for e in klass.events)
        lowered.responses.update(((key, t.from_state, t.event_label),
                                  t.to_state) for t in machine.transitions)
        lowered.accepts.update(((key, e.label), e.creation)
                               for e in klass.events)
        lowered.creations.update(((key, c.event_label), c.to_state)
                                 for c in machine.creation_transitions)
    tables = {"activity": lowered.activities,
              "operation": lowered.operations,
              "derived attribute": lowered.derived}
    for kind, key, _, outcome in oal_bodies(model, component):
        if not isinstance(outcome, tuple):
            raise outcome
        block, analysis = outcome
        tables[kind][key] = lower_block(block, analysis, component)
        if kind == "activity":
            lowered.event_parameters[key] = tuple(
                (name, dtype_tag(dtype))
                for name, dtype in analysis.event_parameters.items())
    return lowered


def lower_component(model: Model, component: Component) -> LoweredComponent:
    """The component's lowered form, served from the fingerprint cache."""
    # Imported lazily: the build layer sits above exec in the package
    # graph, and only this entry point reaches up for the fingerprint.
    from repro.build.fingerprint import model_fingerprint

    global _hits, _misses
    key = (model_fingerprint(model), component.name)
    cached = _cache.get(key)
    if cached is not None:
        _hits += 1
        return cached
    _misses += 1
    lowered = _lower_component_uncached(model, component, key[0])
    _cache[key] = lowered
    return lowered
