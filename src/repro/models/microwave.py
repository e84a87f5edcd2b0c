"""The microwave oven — the canonical Executable UML teaching model.

Two active classes: the oven lifecycle (idle / preparing / cooking /
paused / complete, driven by button and door signals plus a one-second
self-tick) and the power tube it energizes across R1.  The model uses
self-directed events, delayed events, event parameters, association
navigation and a LOG bridge — one of everything the profile offers.
"""

from __future__ import annotations

from repro.xuml import Model, ModelBuilder

#: One simulated second, in simulation time units (microseconds).
SECOND = 1_000_000


def build_microwave_model(check: bool = True) -> Model:
    """Build and well-formedness-check the microwave model."""
    builder = ModelBuilder("Microwave", "canonical oven + power tube model")
    control = builder.component("control", "oven control domain")

    control.ext("LOG").bridge("info", params=[("message", "string")])

    oven = control.klass("MicrowaveOven", "MO", number=1)
    oven.attr("oven_id", "unique_id")
    oven.attr("remaining_seconds", "integer")
    oven.attr("cycles_run", "integer")
    oven.attr("light_on", "boolean")
    oven.identifier(1, "oven_id")
    oven.event("MO1", "cook button pressed", params=[("seconds", "integer")])
    oven.event("MO2", "door opened")
    oven.event("MO3", "door closed")
    oven.event("MO4", "one second passed")
    oven.event("MO5", "preparation complete")
    oven.event("MO6", "cooking finished")

    oven.state("Idle", 1, activity="""
        self.remaining_seconds = 0;
        self.light_on = false;
        select one tube related by self->PT[R1];
        if (not_empty tube)
            generate PT2:PT() to tube;
        end if;
    """)
    oven.state("Preparing", 2, activity="""
        self.remaining_seconds = param.seconds;
        self.cycles_run = self.cycles_run + 1;
        generate MO5:MO() to self;
    """)
    oven.state("Cooking", 3, activity="""
        self.light_on = true;
        select one tube related by self->PT[R1];
        if (not_empty tube)
            generate PT1:PT() to tube;
        end if;
        if (self.remaining_seconds > 0)
            self.remaining_seconds = self.remaining_seconds - 1;
            generate MO4:MO() to self delay 1000000;
        else
            generate MO6:MO() to self;
        end if;
    """)
    oven.state("Paused", 4, activity="""
        select one tube related by self->PT[R1];
        if (not_empty tube)
            generate PT2:PT() to tube;
        end if;
    """)
    oven.state("Complete", 5, activity="""
        self.light_on = false;
        select one tube related by self->PT[R1];
        if (not_empty tube)
            generate PT2:PT() to tube;
        end if;
        LOG::info(message: "ding");
    """)

    oven.trans("Idle", "MO1", "Preparing")
    oven.trans("Preparing", "MO5", "Cooking")
    oven.trans("Cooking", "MO4", "Cooking")
    oven.trans("Cooking", "MO6", "Complete")
    oven.trans("Cooking", "MO2", "Paused")
    oven.trans("Paused", "MO3", "Cooking")
    oven.trans("Complete", "MO1", "Preparing")
    oven.trans("Complete", "MO2", "Idle")

    for state, event in [
        ("Idle", "MO2"), ("Idle", "MO3"), ("Idle", "MO4"), ("Idle", "MO6"),
        ("Preparing", "MO2"), ("Preparing", "MO3"),
        ("Cooking", "MO1"), ("Cooking", "MO3"),
        ("Paused", "MO1"), ("Paused", "MO2"), ("Paused", "MO4"),
        ("Complete", "MO3"), ("Complete", "MO4"), ("Complete", "MO6"),
    ]:
        oven.ignore(state, event)

    tube = control.klass("PowerTube", "PT", number=2)
    tube.attr("tube_id", "unique_id")
    tube.attr("watts", "integer", default=900)
    tube.attr("energize_count", "integer")
    tube.identifier(1, "tube_id")
    tube.event("PT1", "energize")
    tube.event("PT2", "deenergize")
    tube.state("Off", 1, activity="")
    tube.state("Energized", 2, activity="""
        self.energize_count = self.energize_count + 1;
    """)
    tube.trans("Off", "PT1", "Energized")
    tube.trans("Energized", "PT2", "Off")
    tube.ignore("Off", "PT2")
    tube.ignore("Energized", "PT1")

    control.assoc(
        "R1",
        ("MO", "is powered by", "1"),
        ("PT", "energizes", "1"),
    )

    return builder.build(check)


def populate(simulation) -> tuple[int, int]:
    """Create one oven + tube pair, related across R1.

    Returns ``(oven_handle, tube_handle)``.
    """
    oven = simulation.create_instance("MO", oven_id=1)
    tube = simulation.create_instance("PT", tube_id=1)
    simulation.relate(oven, tube, "R1")
    return oven, tube
