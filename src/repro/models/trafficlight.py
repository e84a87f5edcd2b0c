"""Traffic-light intersection controller.

A two-class model: the intersection controller cycling through its phases
on delayed self-ticks, and a debounced pedestrian button that can cut a
green phase short.  Exercises timers-as-delayed-events, cross-class
signals, and ignore entries for stale ticks.
"""

from __future__ import annotations

from repro.xuml import Model, ModelBuilder

#: Phase durations in simulation time units.
GREEN_TIME = 30_000_000
YELLOW_TIME = 5_000_000
ALL_RED_TIME = 2_000_000
BUTTON_REFRACTORY = 10_000_000


def build_trafficlight_model(check: bool = True) -> Model:
    """Build and check the intersection model."""
    builder = ModelBuilder("TrafficLight", "intersection controller")
    control = builder.component("intersection")

    control.ext("LOG").bridge("info", params=[("message", "string")])
    tim = control.ext("TIM")
    tim.bridge("timer_start", params=[("duration", "integer"),
                                      ("event", "string")],
               returns="integer")
    tim.bridge("timer_cancel", params=[("event", "string")],
               returns="integer")

    controller = control.klass("Controller", "TC", number=1)
    controller.attr("controller_id", "unique_id")
    controller.attr("cycles", "integer")
    controller.attr("ped_services", "integer")
    controller.identifier(1, "controller_id")
    controller.event("T1", "phase timer expired")
    controller.event("T2", "pedestrian requested crossing")

    controller.state("Off", 8, activity="")
    controller.initial("Off")
    controller.state("NSGreen", 1, activity="""
        self.cycles = self.cycles + 1;
        generate T1:TC() to self delay 30000000;
    """)
    controller.state("NSYellow", 2, activity="""
        cancelled = TIM::timer_cancel(event: "T1");
        started = TIM::timer_start(duration: 5000000, event: "T1");
    """)
    controller.state("AllRedToEW", 3, activity="""
        generate T1:TC() to self delay 2000000;
    """)
    controller.state("EWGreen", 4, activity="""
        generate T1:TC() to self delay 30000000;
    """)
    controller.state("EWYellow", 5, activity="""
        cancelled = TIM::timer_cancel(event: "T1");
        started = TIM::timer_start(duration: 5000000, event: "T1");
    """)
    controller.state("AllRedToNS", 6, activity="""
        generate T1:TC() to self delay 2000000;
    """)
    controller.state("NSGreenCut", 7, activity="""
        self.ped_services = self.ped_services + 1;
        cancelled = TIM::timer_cancel(event: "T1");
        started = TIM::timer_start(duration: 1000000, event: "T1");
    """)

    controller.trans("Off", "T1", "NSGreen")
    controller.ignore("Off", "T2")
    controller.trans("NSGreen", "T1", "NSYellow")
    controller.trans("NSGreen", "T2", "NSGreenCut")
    controller.trans("NSGreenCut", "T1", "NSYellow")
    controller.trans("NSYellow", "T1", "AllRedToEW")
    controller.trans("AllRedToEW", "T1", "EWGreen")
    controller.trans("EWGreen", "T1", "EWYellow")
    controller.trans("EWGreen", "T2", "EWYellow")
    controller.trans("EWYellow", "T1", "AllRedToNS")
    controller.trans("AllRedToNS", "T1", "NSGreen")

    # stale ticks (the one armed by the cut-short green) and repeat
    # pedestrian requests are dropped
    for state in ("NSYellow", "AllRedToEW", "EWYellow", "AllRedToNS", "NSGreenCut"):
        controller.ignore(state, "T2")

    button = control.klass("PedButton", "PB", number=2)
    button.attr("button_id", "unique_id")
    button.attr("presses", "integer")
    button.attr("requests_sent", "integer")
    button.identifier(1, "button_id")
    button.event("PB1", "button pressed")
    button.event("PB2", "refractory period over")

    button.state("Ready", 1, activity="")
    button.state("Latched", 2, activity="""
        self.presses = self.presses + 1;
        self.requests_sent = self.requests_sent + 1;
        select one tc related by self->TC[R1];
        generate T2:TC() to tc;
        generate PB2:PB() to self delay 10000000;
    """)
    button.trans("Ready", "PB1", "Latched")
    button.trans("Latched", "PB2", "Ready")
    button.ignore("Latched", "PB1")
    button.ignore("Ready", "PB2")

    control.assoc(
        "R1",
        ("TC", "requests crossing from", "1"),
        ("PB", "is served by", "*"),
    )

    return builder.build(check)


def populate(simulation, buttons: int = 1) -> tuple[int, list[int]]:
    """One controller plus *buttons* pedestrian buttons related across R1."""
    controller = simulation.create_instance("TC", controller_id=1)
    handles = []
    for index in range(buttons):
        button = simulation.create_instance("PB", button_id=index + 1)
        simulation.relate(button, controller, "R1")
        handles.append(button)
    return controller, handles


def start(simulation, controller: int) -> None:
    """Kick the phase cycle off (the initial state arms no timer itself)."""
    simulation.inject(controller, "T1")
