"""The speed-record script: its checker, seeds, command and summary."""

import argparse
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _record_module():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "benchmarks" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _document():
    run = {"command": ["python3", "perfbench/run.py"], "rev": "abc",
           "result": {"correct": True}}
    return {
        "workload": "population",
        "command": ["python3", "perfbench/run.py", "--seed", "<seed>"],
        "parent": {"rev": "abc"}, "change": {"rev": "def"},
        "seeds": [11],
        "runs": [{**run, "seed": 11, "side": "parent"},
                 {**run, "seed": 11, "side": "change"}],
    }


def test_a_complete_record_has_no_problems():
    assert _record_module()._problems(_document()) == []


def test_missing_fields_and_incorrect_runs_are_reported():
    record = _record_module()
    document = _document()
    del document["command"]
    document["change"] = {}
    document["runs"][1]["result"]["correct"] = False
    document["runs"].pop(0)
    assert record._problems(document) == [
        "names no command",
        "names no change rev",
        "has no parent run for seed 11",
        "run 0 is not correct: true",
    ]


def test_seeds_are_an_inclusive_range():
    record = _record_module()
    assert record._seeds("11-20") == list(range(11, 21))
    for text in ("1,4,9", "-3-5", "11"):
        with pytest.raises(argparse.ArgumentTypeError):
            record._seeds(text)


def test_run_length_comes_from_the_benchmark_spec():
    command = _record_module()._command(ROOT, "lint", 3)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert command[command.index("--seconds") + 1] == str(
        spec["run_seconds"])


def test_summary_counts_wins_per_pair():
    record = _record_module()

    def run(pair, side, pass_s):
        return {"pair": pair, "side": side,
                "result": {"metrics": {"pass_s": {"value": pass_s}}}}

    runs = [run(0, "parent", 1.0), run(0, "change", 0.5),
            run(1, "change", 0.7), run(1, "parent", 1.2),
            run(2, "parent", 0.9), run(2, "change", 1.0)]
    summary = record.summarize(runs, {"pass_s": "lower"})["pass_s"]
    assert summary["wins"] == 2 and summary["pairs"] == 3
    assert summary["parent"]["median"] == 1.0
    assert summary["change"]["median"] == 0.7
