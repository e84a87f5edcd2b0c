#!/usr/bin/env python3
"""Quickstart: model -> execute -> mark -> translate, in ~80 lines.

Builds a two-class blinker system in Executable UML, runs it on the
abstract runtime, then marks the pulse generator as hardware and lets
the model compiler emit the C half, the VHDL half and the generated
interface that guarantees they fit together.

Run:  python examples/quickstart.py
"""

from repro.marks import MarkSet, derive_partition
from repro.mda import InterfaceCodec, ModelCompiler
from repro.runtime import Simulation, check_trace
from repro.xuml import ModelBuilder


def build_blinker():
    """An LED driven by a free-running pulse generator."""
    builder = ModelBuilder("Blinker")
    board = builder.component("board")

    pulse = board.klass("PulseGen", "PG")
    pulse.attr("pg_id", "unique_id")
    pulse.attr("edges", "integer")
    pulse.identifier(1, "pg_id")
    pulse.event("PG1", "start")
    pulse.event("PG2", "period elapsed")
    pulse.state("Stopped", 1, activity="")
    pulse.state("Running", 2, activity="""
        self.edges = self.edges + 1;
        select one led related by self->LED[R1];
        generate L1:LED() to led;
        generate PG2:PG() to self delay 500000;    // half a second
    """)
    pulse.trans("Stopped", "PG1", "Running")
    pulse.trans("Running", "PG2", "Running")
    pulse.ignore("Stopped", "PG2")
    pulse.ignore("Running", "PG1")

    led = board.klass("Led", "LED")
    led.attr("led_id", "unique_id")
    led.attr("lit", "boolean")
    led.attr("toggles", "integer")
    led.identifier(1, "led_id")
    led.event("L1", "toggle")
    led.state("Dark", 1, activity="""
        self.lit = false;
    """)
    led.state("Lit", 2, activity="""
        self.lit = true;
        self.toggles = self.toggles + 1;
    """)
    led.trans("Dark", "L1", "Lit")
    led.trans("Lit", "L1", "Dark")

    board.assoc("R1", ("PG", "is clocked by", "1"), ("LED", "drives", "1"))
    return builder.build()          # well-formedness checked here


def main() -> None:
    model = build_blinker()
    print(f"model {model.name} built: {model.stats()}")

    # 1. execute the model — no design detail, no code, just semantics
    simulation = Simulation(model)
    pg = simulation.create_instance("PG", pg_id=1)
    led = simulation.create_instance("LED", led_id=1)
    simulation.relate(pg, led, "R1")
    simulation.inject(pg, "PG1")
    simulation.run_until(3_000_000)                 # three seconds
    print(f"after 3 s: edges={simulation.read_attribute(pg, 'edges')}, "
          f"LED toggles={simulation.read_attribute(led, 'toggles')}, "
          f"lit={simulation.read_attribute(led, 'lit')}")
    violations = check_trace(simulation.trace)
    print(f"causality violations: {len(violations)} (must be 0)")

    # 2. mark: the pulse generator becomes hardware — a sticky note,
    #    not a model change
    marks = MarkSet()
    marks.set("board.PG", "isHardware", True)
    marks.set("board.PG", "clock_mhz", 200)
    partition = derive_partition(model, model.component("board"), marks)
    print()
    print(partition.describe())

    # 3. translate: one spec in, two consistent halves out
    build = ModelCompiler(model).compile(marks)
    print()
    print("generated artifacts:")
    for path in sorted(build.artifacts):
        lines = build.artifacts[path].count("\n")
        print(f"  {path:32s} {lines:4d} lines")
    findings = build.lint()
    print(f"lint findings (gcc for C, structural for VHDL): "
          f"{len(findings)} (must be 0)")

    # 4. the halves fit together because the interface was generated:
    c_codec = InterfaceCodec.from_artifact(build.artifacts["board_interface.h"])
    v_codec = InterfaceCodec.from_artifact(
        build.artifacts["board_interface_pkg.vhd"])
    message = c_codec.message_names()[0]
    payload = c_codec.pack(message, {"target_instance": 2})
    assert v_codec.unpack(message, payload) == c_codec.unpack(message, payload)
    print(f"interface round-trip through both generated halves: OK "
          f"({message}, {len(payload)} bytes)")


if __name__ == "__main__":
    main()
