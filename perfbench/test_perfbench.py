"""Checks of the benchmark's own code: span arithmetic, inputs, layer map.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import population  # noqa: E402
from spans import Boundary, SpanRecorder, summarise  # noqa: E402


def _clock(*ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_self_time_is_duration_minus_child_spans():
    # outer runs 0..10 and calls inner twice, at 1..3 and at 4..7
    recorder = SpanRecorder(clock=_clock(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))
    inner = recorder.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    recorder.wrap(body, "outer")()
    summary = recorder.summary()
    assert list(recorder.parent) == [-1, 0, 0]
    assert summary["outer"] == {"calls": 1, "self_s": 5.0, "inclusive_s": 10.0}
    assert summary["inner"] == {"calls": 2, "self_s": 5.0, "inclusive_s": 5.0}
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0


def test_recursive_span_counts_its_outermost_call_once():
    # f runs 0..10 and calls f at 1..4, which calls g at 2..3
    summary = summarise(["f", "g"], [0, 0, 1], [0.0, 1.0, 2.0],
                        [10.0, 4.0, 3.0], [-1, 0, 1])
    assert summary["f"] == {"calls": 2, "self_s": 9.0, "inclusive_s": 10.0}
    assert summary["g"] == {"calls": 1, "self_s": 1.0, "inclusive_s": 1.0}


def test_installed_boundaries_are_restored():
    original = json.dumps
    recorder = SpanRecorder()
    with recorder.installed([Boundary("json:dumps", "json.dumps")]):
        assert json.dumps([1]) == "[1]"
        assert json.dumps is not original
    assert json.dumps is original
    assert recorder.summary()["json.dumps"]["calls"] == 1


def test_same_seed_gives_byte_identical_stimulus():
    def stimulus(seed):
        return population.stimulus_bytes(
            population.make_stimulus(seed, 20, 4, 2.0))

    assert stimulus(5) == stimulus(5)
    assert stimulus(5) != stimulus(6)


def test_layer_map_is_the_per_layer_list_of_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    assert spec["per_layer"] == [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in layers.LAYER_MAP]
    timed = {metric.name[:-2] for metric in layers.LAYER_MAP
             if metric.unit == "s" and not metric.name.startswith("bench.")}
    assert timed == {boundary.span for boundary in layers.BOUNDARIES}
