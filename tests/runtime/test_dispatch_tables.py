"""Differential tests: the dispatcher's state tables answer as the model does.

Every executor hands the dispatcher its state tables as data -- the
response map, the creation map and the accept map -- and a dispatch
reads them with one dict lookup: a (class, state, label) the response
map does not list can't happen, a creation the creation map lacks raises
the executor's error, and a send the accept map lacks goes to the
executor's own check.  For every (class, state, label) of the five
catalog models and of randomly generated models, the tables must answer
as the model does (``StateMachine.response_to`` / ``transition_for`` /
``creation_transition_for``) on the abstract runtime, csim and vsim,
which load the very same table objects.  Unknown classes and labels must
fail with the error type and message each executor always raised.
"""

import pytest
from hypothesis import given, settings

from repro.mda import CSoftwareMachine, VHardwareMachine, build_manifest
from repro.mda.archrt import ArchError
from repro.models import all_models
from repro.runtime import SimulationError, Simulation
from repro.xuml import ModelBuilder
from repro.xuml.errors import UnknownElementError
from repro.xuml.statemachine import EventResponse

from tests.xuml.test_serialize_random import random_models


def response(executor, class_key, state, label):
    """The response-map answer, read as a dispatch reads it."""
    return executor._responses.get((class_key, state, label),
                                   EventResponse.CANT_HAPPEN)


def _labels(component):
    """Every label any class declares, plus one no class declares."""
    return sorted({event.label for klass in component.classes
                   for event in klass.events} | {"NO_SUCH_LABEL"})


def check_tables(executor, component):
    """*executor*'s tables answer every (class, state, label) as the
    component's state machines do."""
    labels = _labels(component)
    assert executor._accepts == {
        (klass.key_letters, event.label): event.creation
        for klass in component.classes for event in klass.events}
    for klass in component.classes:
        key, machine = klass.key_letters, klass.statemachine
        for state in (*machine.state_names, None, "NoSuchState"):
            for label in labels:
                expected = machine.response_to(state, label)
                if expected is EventResponse.TRANSITION:
                    expected = machine.transition_for(state, label).to_state
                assert response(executor, key, state, label) == expected
        for label in labels:
            creation = machine.creation_transition_for(label)
            assert executor._creations.get((key, label)) == (
                None if creation is None else creation.to_state)


def check_simulation(model):
    check_tables(Simulation(model), model.components[0])


def check_machines(model):
    component = model.components[0]
    manifest = build_manifest(model, component)
    for machine in (CSoftwareMachine(manifest), VHardwareMachine(manifest)):
        check_tables(machine, component)


@pytest.mark.parametrize("name", sorted(all_models()))
def test_catalog_tables_answer_as_the_model(name):
    model = all_models()[name]
    check_simulation(model)
    check_machines(model)


@settings(max_examples=40, deadline=None)
@given(random_models())
def test_random_model_tables_answer_as_the_model(model):
    check_simulation(model)
    check_machines(model)


def test_the_checksum_creation_event_is_listed():
    model = all_models()["checksum"]
    assert Simulation(model)._creations == {("J", "J0"): "Submitted"}
    manifest = build_manifest(model, model.components[0])
    assert CSoftwareMachine(manifest)._creations == {("J", "J0"): "Submitted"}


def test_lowerings_share_one_set_of_tables():
    model = all_models()["microwave"]
    first, second = Simulation(model), Simulation(all_models()["microwave"])
    assert first._responses is second._responses
    assert first._accepts is second._accepts


@pytest.mark.parametrize("name", sorted(all_models()))
def test_every_executor_loads_one_set_of_tables(name):
    """csim, vsim and the abstract runtime load the very same tables."""
    model = all_models()[name]
    simulation = Simulation(model)
    manifest = build_manifest(model, model.components[0])
    for machine in (CSoftwareMachine(manifest), VHardwareMachine(manifest)):
        for table in ("_classes", "_activities", "_derived", "_operations",
                      "_responses", "_creations", "_accepts"):
            assert getattr(machine, table) is getattr(simulation, table)


def test_creation_event_without_creation_transition():
    """Sent (the event is declared creation), then refused at dispatch
    with the executor's own error -- csim and vsim leaked a raw KeyError
    here before the tables."""
    builder = ModelBuilder("M")
    component = builder.component("c")
    spawner = component.klass("Spawner", "SP")
    spawner.event("SP0", "spawn", creation=True)
    spawner.state("Alive", 1)
    model = builder.build()
    simulation = Simulation(model)
    simulation.send_creation("SP", "SP0")
    with pytest.raises(SimulationError,
                       match=r"^no creation transition for SP\.SP0$"):
        simulation.run_to_quiescence()
    machine = CSoftwareMachine(build_manifest(model, model.components[0]))
    machine.send_creation("SP", "SP0")
    with pytest.raises(ArchError,
                       match=r"^no creation transition for SP\.SP0$"):
        machine.run_to_quiescence()


# -- what the tables do not list fails as it always did -----------------------

def _failure(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)
    return None


def _executors():
    model = all_models()["microwave"]
    manifest = build_manifest(model, model.components[0])
    return {"abstract": Simulation(model),
            "csim": CSoftwareMachine(manifest),
            "vsim": VHardwareMachine(manifest)}


#: case -> the (error type, message) each executor raised before the
#: tables existed; None where the send was accepted
ABSTRACT_SEND_FAILURES = {
    "unknown class":
        (UnknownElementError, "component control has no class 'ZZ'"),
    "unknown label": (UnknownElementError, "MO has no event 'NOPE'"),
    "creation of unknown class":
        (UnknownElementError, "component control has no class 'ZZ'"),
    "creation of unknown label":
        (UnknownElementError, "MO has no event 'NOPE'"),
    "creation of a plain event":
        (SimulationError, "MO.MO1 is not a creation event"),
}
#: the generated runtimes check nothing at a plain send ...
GENERATED_SEND_FAILURES = {
    "unknown class": None,
    "unknown label": None,
    "creation of unknown class": (ArchError, "manifest has no class 'ZZ'"),
    "creation of unknown label": (KeyError, "'NOPE'"),
    "creation of a plain event":
        (ArchError, "MO.MO1 is not a creation event"),
}
SEND_FAILURES = {
    **{("abstract", case): failure
       for case, failure in ABSTRACT_SEND_FAILURES.items()},
    **{(executor, case): failure
       for executor in ("csim", "vsim")
       for case, failure in GENERATED_SEND_FAILURES.items()},
}

SENDS = {
    "unknown class": lambda ex, h: ex.send_signal(h, "ZZ", "MO1"),
    "unknown label": lambda ex, h: ex.send_signal(h, "MO", "NOPE"),
    "creation of unknown class": lambda ex, h: ex.send_creation("ZZ", "MO1"),
    "creation of unknown label": lambda ex, h: ex.send_creation("MO", "NOPE"),
    "creation of a plain event": lambda ex, h: ex.send_creation("MO", "MO1"),
}

#: ... and fail when the signal dispatches
DISPATCH_FAILURES = {
    "unknown class": (ArchError, "signal ZZ.MO1 addressed to #1, a live MO"),
    "unknown label":
        (ArchError, "event NOPE can't happen in state Idle of MO#1"),
}


@pytest.mark.parametrize("executor,case", sorted(SEND_FAILURES))
def test_unlisted_send_fails_as_before(executor, case):
    machine = _executors()[executor]
    handle = machine.create_instance("MO")
    assert _failure(lambda: SENDS[case](machine, handle)) \
        == SEND_FAILURES[executor, case]
    if SEND_FAILURES[executor, case] is None:
        assert _failure(machine.run_to_quiescence) == DISPATCH_FAILURES[case]
