"""Seconds-long self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the ``tiny`` size (Simon 4 rounds, Speck 3
rounds, 4 service jobs, 10 free key bits), untraced and traced, and
checks that each run prints a well-formed, correct result with every
metric named in ``BENCHMARK.json``.  It also checks the trace
summariser's self-time rule on a hand-made trace.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_summary() -> None:
    sys.path.insert(0, HERE)
    from summary import summarize

    # A parent [0, 10] with two overlapping children [1, 5] and [3, 7]
    # (parallel workers) and one child outside the window: self time is
    # 10 minus the covered union [1, 7] = 4, never 10 - 8 = 2.
    spans = [
        {"id": "p", "parent": None, "name": "race", "t0": 0.0, "dur": 10.0,
         "attrs": {}},
        {"id": "a", "parent": "p", "name": "leg", "t0": 1.0, "dur": 4.0,
         "attrs": {"conflicts": 3}},
        {"id": "b", "parent": "p", "name": "leg", "t0": 3.0, "dur": 4.0,
         "attrs": {"conflicts": 5, "cancelled": True}},
    ]
    rows = summarize(spans)
    assert abs(rows["race"]["self_s"] - 4.0) < 1e-9, rows
    assert rows["leg"]["count"] == 2 and rows["leg"]["self_s"] == 8.0, rows
    assert rows["leg"]["attrs"] == {"conflicts": 8}, rows


def run_workload(name: str, trace: int, expected: dict) -> None:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", name, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (name, proc.stdout)
    assert result["attempted"] >= 1, result
    assert set(result["metrics"]) == set(expected), (name, result["metrics"])
    for metric, unit in expected.items():
        value = result["metrics"][metric]
        assert value["unit"] == unit, (metric, value)
        assert isinstance(value["value"], (int, float)), (metric, value)
    print("ok  {:<17} trace={}  attempted={}".format(
        name, trace, result["attempted"]))


def main() -> int:
    check_summary()
    print("ok  summary self time")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in bench["workloads"]:
        run_workload(workload["name"], 0, end_to_end)
        run_workload(workload["name"], 1, per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
