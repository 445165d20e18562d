"""Spread of the end-to-end metrics over seeds; records the baseline.

    python3 perfbench/spread.py --seeds 11-20
    python3 perfbench/spread.py --seeds 11-20 --workload simon-solve
    python3 perfbench/spread.py --seeds 11-20 --against perfbench/baseline.json
    python3 perfbench/spread.py --seeds 11-20 --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed and workload (every workload in
``BENCHMARK.json`` unless ``--workload`` names some) and prints, per
end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
beside the metric's bound.  The benchmark is steady when each spread but
``setup_s``'s is within its bound.  ``--against FILE`` compares each
median with the one recorded in FILE: two sets of runs of the same code
should differ by less than the bound.  ``--out FILE`` adds one
``--trace 1`` run per workload (on the first seed) and writes it all to
FILE in the format of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int):
    """One ``run.py`` result and the environment stamp it printed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("{} seed {} failed:\n{}".format(
            workload, seed, proc.stderr[-2000:]))
    return json.loads(lines[-1]), json.loads(lines[0].partition(": ")[2])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="a seed or a range such as 11-20")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--against", metavar="FILE")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["workloads"]

    ok = True
    report = {}
    for name in names:
        results = []
        for seed in args.seeds:
            result, env = run(name, seed, args.seconds, 0)
            ok = ok and result["correct"] and not result["failed"]
            results.append(result)
            print("{} seed {}: {}".format(name, seed, " ".join(
                "{}={:.4g}".format(k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            key = metric["name"]
            values = [r["metrics"][key]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][key] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "unit": metric["unit"],
            }
            line = "  {:<12} median {:<10.4g} q1 {:<10.4g} q3 {:<10.4g} " \
                   "spread {:.3f} (bound {})".format(
                       key, median, q1, q3, (q3 - q1) / median,
                       metric["bound"])
            before = earlier.get(name, {}).get("end_to_end", {}).get(key)
            if before:
                change = median / before["median"] - 1.0
                if metric["better"] == "higher":
                    change = -change
                line += "; worse than {} by {:+.3f}".format(
                    args.against, change)
            print(line, flush=True)
        if args.out:
            traced, _ = run(name, args.seeds[0], args.seconds, 1)
            ok = ok and traced["correct"] and not traced["failed"]
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        report[name] = entry

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "about": "End-to-end medians, quartiles and spreads over "
                         "seeds {}-{} (--seconds {}, --trace 0); per-layer "
                         "values from one --trace 1 run on seed {}.".format(
                             args.seeds[0], args.seeds[-1], args.seconds,
                             args.seeds[0]),
                "stamp": env,
                "workloads": report,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
