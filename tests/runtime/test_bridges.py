"""Unit tests for the bridges table and the standard services."""

import pytest

from repro.runtime import BridgeError, Simulation
from repro.xuml import ModelBuilder


def build_timer_model():
    builder = ModelBuilder("M")
    component = builder.component("c")
    tim = component.ext("TIM")
    tim.bridge("current_time", returns="timestamp")
    tim.bridge("timer_start", params=[("duration", "integer"),
                                      ("event", "string")],
               returns="integer")
    tim.bridge("timer_cancel", params=[("event", "string")],
               returns="integer")
    component.ext("LOG").bridge("metric", params=[("name", "string"),
                                                  ("value", "real")])

    widget = component.klass("Widget", "W")
    widget.attr("w_id", "unique_id")
    widget.attr("stamp", "timestamp")
    widget.attr("fired", "integer")
    widget.event("GO")
    widget.event("TICK")
    widget.event("STOP")
    widget.state("Idle", 1)
    widget.state("Armed", 2, activity="""
        self.stamp = TIM::current_time();
        started = TIM::timer_start(duration: 500, event: "TICK");
        LOG::metric(name: "armed", value: 1.0);
    """)
    widget.state("Fired", 3, activity="""
        self.fired = self.fired + 1;
    """)
    widget.state("Cancelled", 4, activity="""
        cancelled = TIM::timer_cancel(event: "TICK");
    """)
    widget.trans("Idle", "GO", "Armed")
    widget.trans("Armed", "TICK", "Fired")
    widget.trans("Armed", "STOP", "Cancelled")
    widget.ignore("Cancelled", "TICK")
    widget.ignore("Fired", "GO")
    return builder.build()


class TestTimService:
    def test_current_time_reads_simulated_clock(self):
        sim = Simulation(build_timer_model())
        widget = sim.create_instance("W", w_id=1)
        sim.inject(widget, "GO", delay=250)
        sim.run_until(250)
        assert sim.read_attribute(widget, "stamp") == 250

    def test_timer_fires_after_duration(self):
        sim = Simulation(build_timer_model())
        widget = sim.create_instance("W", w_id=1)
        sim.inject(widget, "GO")
        sim.run_until(499)
        assert sim.state_of(widget) == "Armed"
        sim.run_until(500)
        assert sim.state_of(widget) == "Fired"
        assert sim.read_attribute(widget, "fired") == 1

    def test_timer_cancel_prevents_firing(self):
        sim = Simulation(build_timer_model())
        widget = sim.create_instance("W", w_id=1)
        sim.inject(widget, "GO")
        sim.inject(widget, "STOP", delay=100)
        sim.run_until(1_000)
        assert sim.state_of(widget) == "Cancelled"

    def test_metrics_collected(self):
        sim = Simulation(build_timer_model())
        widget = sim.create_instance("W", w_id=1)
        sim.inject(widget, "GO")
        sim.run_to_quiescence()
        assert sim.metrics["armed"] == [(0, 1.0)]


class TestRegistry:
    def test_unregistered_bridge_raises(self):
        builder = ModelBuilder("M")
        component = builder.component("c")
        component.ext("HW").bridge("poke")
        widget = component.klass("Widget", "W")
        widget.attr("w_id", "unique_id")
        widget.event("GO")
        widget.state("Idle", 1)
        widget.state("Poked", 2, activity="HW::poke();")
        widget.trans("Idle", "GO", "Poked")
        sim = Simulation(builder.build())
        handle = sim.create_instance("W", w_id=1)
        sim.inject(handle, "GO")
        with pytest.raises(BridgeError):
            sim.run_to_quiescence()

    def test_registration_overrides(self):
        sim = Simulation(build_timer_model())
        calls = []
        sim.bridges["LOG", "metric"] = (
            lambda executor, self_handle, name, value:
            calls.append((name, value)))
        widget = sim.create_instance("W", w_id=1)
        sim.inject(widget, "GO")
        sim.run_to_quiescence()
        assert calls == [("armed", 1.0)]
        assert sim.metrics == {}     # default impl replaced

    def test_has(self):
        sim = Simulation(build_timer_model())
        assert ("TIM", "current_time") in sim.bridges
        assert ("TIM", "warp_time") not in sim.bridges
