"""Record a before/after speed comparison as a committed BENCH_*.json file.

    python3 benchmarks/record.py --parent ../parent --change . \\
        --workload population --seeds 11-20 -o BENCH_population.json
    python3 benchmarks/record.py --check BENCH_*.json

The first form runs the repo benchmark (``perfbench/run.py``, the
command ``BENCHMARK.json`` names) from the root of two source checkouts,
the parent and the change, once per seed each.  Pairs alternate which
side runs first, so a drift in the host's speed does not favour one
side.  Every run's JSON line is stored with the command, the checkout's
git rev and the seed; the file also keeps a summary (median and
quartiles per side, and how many pairs the change won) of each
end-to-end metric, which is printed too.

``--check`` validates committed files: each parses, names its command,
both revs and its seeds, has a parent and a change run for every seed,
and every run reported ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """``11-20``: every seed from the first to the last, inclusive."""
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"seeds must be a range like 11-20, not {text!r}")
    first, last = (int(group) for group in match.groups())
    return list(range(first, last + 1))


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _revision(checkout: Path) -> dict:
    return {"rev": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain"))}


def _command(checkout: Path, workload: str, seed):
    """The benchmark command and run length *checkout*'s BENCHMARK.json sets."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text("utf-8"))
    return [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]


def _run(checkout: Path, command: list[str]) -> dict:
    began = time.perf_counter()
    completed = subprocess.run(command, cwd=checkout, check=True,
                               capture_output=True, text=True)
    return {"wall_s": round(time.perf_counter() - began, 3),
            "result": json.loads(completed.stdout.strip().splitlines()[-1])}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's median/quartiles and the wins."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = (
            run["result"]["metrics"])
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    summary = {}
    for name, direction in better.items():
        values = {side: [pair[side][name]["value"] for pair in pairs]
                  for side in SIDES}
        sign = 1 if direction == "lower" else -1
        summary[name] = {
            **{side: _quartiles(values[side]) for side in SIDES},
            "wins": sum(sign * (change - parent) < 0 for parent, change
                        in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
        }
    return summary


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: metric, parent median [q1, q3], change median "
          f"[q1, q3], change wins")
    for name, row in summary.items():
        cells = [f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, "
                 f"{row[side]['q3']:.4g}]" for side in SIDES]
        print(f"  {name:18s} {cells[0]:32s} {cells[1]:32s} "
              f"{row['wins']}/{row['pairs']}")


def record(args) -> int:
    checkouts = {"parent": Path(args.parent).resolve(),
                 "change": Path(args.change).resolve()}
    seeds = args.seeds
    revisions = {side: _revision(path) for side, path in checkouts.items()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json")
                      .read_text("utf-8"))
    runs = []
    for pair, seed in enumerate(seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            command = _command(checkouts[side], args.workload, seed)
            outcome = _run(checkouts[side], command)
            runs.append({"pair": pair, "seed": seed, "side": side,
                         "position": position, **revisions[side],
                         "command": command, **outcome})
            pass_s = outcome["result"]["metrics"]["pass_s"]["value"]
            print(f"pair {pair} seed {seed} {side:6s} pass_s {pass_s:.4f} "
                  f"correct {outcome['result']['correct']}", flush=True)
    better = {metric["name"]: metric["better"]
              for metric in spec["end_to_end"]}
    summary = summarize(runs, better)
    document = {
        "workload": args.workload,
        "command": _command(checkouts["change"], args.workload, "<seed>"),
        "how": "each command runs from the root of its side's checkout; "
               "pairs alternate which side runs first",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "system": platform.system()},
        "seeds": seeds,
        **revisions,
        "runs": runs,
        "summary": summary,
    }
    Path(args.output).write_text(json.dumps(document, indent=1) + "\n",
                                 encoding="utf-8")
    print_summary(args.workload, summary)
    return 0


def check(paths: list[str]) -> int:
    problems = []
    for path in paths:
        try:
            document = json.loads(Path(path).read_text("utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: does not parse ({exc})")
            continue
        problems.extend(f"{path}: {problem}"
                        for problem in _problems(document))
    for problem in problems:
        print(problem)
    if not paths:
        print("no BENCH files given")
        return 1
    if not problems:
        print(f"{len(paths)} BENCH file(s) complete and correct")
    return 1 if problems else 0


def _problems(document) -> list[str]:
    problems = []
    if not isinstance(document, dict):
        return ["is not a JSON object"]
    if not document.get("workload"):
        problems.append("names no workload")
    if not document.get("command"):
        problems.append("names no command")
    for side in SIDES:
        if not (document.get(side) or {}).get("rev"):
            problems.append(f"names no {side} rev")
    seeds = document.get("seeds")
    if not seeds or not all(isinstance(seed, int) for seed in seeds):
        problems.append("names no seeds")
        seeds = []
    runs = document.get("runs") or []
    if not runs:
        problems.append("has no runs")
    for seed in seeds:
        for side in SIDES:
            if not any(run.get("seed") == seed and run.get("side") == side
                       for run in runs):
                problems.append(f"has no {side} run for seed {seed}")
    for index, run in enumerate(runs):
        for key in ("command", "rev", "seed"):
            if key not in run:
                problems.append(f"run {index} names no {key}")
        if (run.get("result") or {}).get("correct") is not True:
            problems.append(f"run {index} is not correct: true")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="*", metavar="BENCH_FILE",
                        help="validate committed BENCH files and exit")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=_seeds, help="a range, e.g. 11-20")
    parser.add_argument("-o", "--output", help="BENCH file to write")
    args = parser.parse_args(argv)
    if args.check is not None:
        return check(args.check)
    missing = [name for name in ("parent", "change", "workload", "seeds",
                                 "output") if getattr(args, name) is None]
    if missing:
        parser.error("recording needs --" + ", --".join(missing))
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
