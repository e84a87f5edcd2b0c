"""Every profile data type across the generated interface boundary.

The catalog models' boundary events carry integers and booleans; this
purpose-built model pushes an enum, a real, a string and a boolean
through one cross-partition message, proving the whole chain — spec
derivation, both emitted halves, byte codecs, and the co-simulated bus —
handles the full type system.
"""

import pytest

from repro.cosim import CoSimMachine, FaultPlan, FaultRates
from repro.marks import MarkSet
from repro.mda import InterfaceCodec, InterfaceError, ModelCompiler
from repro.xuml import ModelBuilder

SEVERITIES = ("INFO", "WARN", "ALARM")


def build_telemetry_model():
    builder = ModelBuilder("Telemetry")
    node = builder.component("telem")
    node.enum("Severity", ["INFO", "WARN", "ALARM"])

    sensor = node.klass("Sensor", "SE")
    sensor.attr("se_id", "unique_id")
    sensor.attr("sent", "integer")
    sensor.event("SE1", "report requested", params=[
        ("level", "Severity"), ("value", "real"),
        ("tag", "string"), ("latched", "boolean")])
    sensor.state("Idle", 1)
    sensor.state("Reporting", 2, activity="""
        self.sent = self.sent + 1;
        select one sink related by self->SK[R1];
        generate SK1:SK(level: param.level, value: param.value,
                        tag: param.tag, latched: param.latched) to sink;
    """)
    sensor.trans("Idle", "SE1", "Reporting")
    sensor.trans("Reporting", "SE1", "Reporting")

    sink = node.klass("Sink", "SK")
    sink.attr("sk_id", "unique_id")
    sink.attr("alarms", "integer")
    sink.attr("last_value", "real")
    sink.attr("last_tag", "string")
    sink.attr("last_latched", "boolean")
    sink.attr("last_level", "Severity")
    sink.event("SK1", "telemetry", params=[
        ("level", "Severity"), ("value", "real"),
        ("tag", "string"), ("latched", "boolean")])
    sink.state("Ready", 1)
    sink.state("Recording", 2, activity="""
        self.last_level = param.level;
        self.last_value = param.value;
        self.last_tag = param.tag;
        self.last_latched = param.latched;
        if (param.level == Severity::ALARM)
            self.alarms = self.alarms + 1;
        end if;
    """)
    sink.trans("Ready", "SK1", "Recording")
    sink.trans("Recording", "SK1", "Recording")

    node.assoc("R1", ("SE", "reports to", "1"), ("SK", "collects from", "1"))
    return builder.build()


@pytest.fixture(scope="module")
def build():
    model = build_telemetry_model()
    marks = MarkSet()
    marks.set("telem.SK", "isHardware", True)
    return ModelCompiler(model).compile(marks)


class TestSpecCoversAllTypes:
    def test_field_tags(self, build):
        message = build.interface.message_for("SK", "SK1")
        tags = {f.name: f.dtype_tag for f in message.fields}
        assert tags["level"] == "enum:Severity"
        assert tags["value"] == "real"
        assert tags["tag"] == "string"
        assert tags["latched"] == "boolean"

    def test_widths_by_type(self, build):
        message = build.interface.message_for("SK", "SK1")
        widths = {f.name: f.width_bits for f in message.fields}
        assert widths["value"] == 64          # IEEE double
        assert widths["tag"] == 256           # fixed 32-byte string
        assert widths["latched"] == 8         # byte-aligned boolean
        assert widths["level"] == 8           # 3 enumerators -> 1 byte

    def test_both_halves_lint_and_agree(self, build):
        assert build.lint() == []
        c_codec = InterfaceCodec.from_artifact(
            build.interface.emit_c_header())
        v_codec = InterfaceCodec.from_artifact(
            build.interface.emit_vhdl_package())
        assert c_codec.layouts == v_codec.layouts

    def test_byte_roundtrip_of_every_type(self, build):
        codec = InterfaceCodec.from_artifact(build.interface.emit_c_header())
        values = {"target_instance": 2, "level": 2, "value": -273.15,
                  "tag": "sensor-α", "latched": True}
        unpacked = codec.unpack("sk_sk1", codec.pack("sk_sk1", values))
        assert unpacked == values


class TestOnTheCoSimulatedBus:
    def test_values_survive_the_bus(self, build):
        machine = CoSimMachine(build)
        sensor = machine.create_instance("SE", se_id=1)
        sink = machine.create_instance("SK", sk_id=1)
        machine.relate(sensor, sink, "R1")
        machine.inject(sensor, "SE1", {
            "level": "ALARM", "value": 42.5, "tag": "boiler",
            "latched": True})
        machine.inject(sensor, "SE1", {
            "level": "INFO", "value": 7.25, "tag": "pump",
            "latched": False}, delay=10)
        machine.run()
        assert machine.bus.stats.messages == 2
        assert machine.read_attribute(sink, "alarms") == 1
        assert machine.read_attribute(sink, "last_level") == "INFO"
        assert machine.read_attribute(sink, "last_value") == 7.25
        assert machine.read_attribute(sink, "last_tag") == "pump"
        assert machine.read_attribute(sink, "last_latched") is False

    # chosen for their flips: the level byte goes out of range on 2
    # (seed 1) and 3 (seed 29) of the 40 frames
    @pytest.mark.parametrize("seed", [1, 29])
    def test_corrupted_enums_never_reach_the_receiver(self, build, seed):
        """Unprotected, every frame altered: each frame the receiver
        cannot trust (among them every level byte that names no literal)
        is detected and lost, the rest are delivered altered, and every
        level the sink records is a declared one."""

        class RecordingPlan(FaultPlan):
            def corrupt_payload(self, payload, *key):
                altered.append(super().corrupt_payload(payload, *key))
                return altered[-1]

        altered: list[bytes] = []
        plan = RecordingPlan(seed, FaultRates(corrupt=1.0))
        machine = CoSimMachine(build, fault_plan=plan)
        sensor = machine.create_instance("SE", se_id=1)
        sink = machine.create_instance("SK", sk_id=1)
        machine.relate(sensor, sink, "R1")
        frames = 40
        for index in range(frames):
            machine.inject(sensor, "SE1", {
                "level": SEVERITIES[index % 3], "value": index / 2,
                "tag": f"t{index}", "latched": index % 2 == 0},
                delay=index * 1_000)
        for index in range(frames):   # at most one delivery per window
            machine.run(horizon_us=index * 1_000 + 999)
            assert machine.read_attribute(sink, "last_level") in SEVERITIES
        machine.run()

        codec = InterfaceCodec.from_artifact(build.interface.emit_c_header())
        level_byte = next(offset // 8 for name, _t, offset, _w
                          in codec.layouts["sk_sk1"][2] if name == "level")

        def trusted(payload):
            try:
                values = codec.unpack("sk_sk1", payload)
            except InterfaceError:
                return False
            return values["target_instance"] == sink \
                and values["level"] < len(SEVERITIES)

        assert len(altered) == frames
        out_of_range = [p for p in altered
                        if p[level_byte] >= len(SEVERITIES)]
        assert out_of_range and not any(map(trusted, out_of_range))
        stats = machine.fault_stats
        assert stats.delivered_corrupted == sum(map(trusted, altered)) > 0
        assert stats.detected == stats.lost \
            == frames - stats.delivered_corrupted
