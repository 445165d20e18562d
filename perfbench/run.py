"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload simon-solve --seed 3 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the repetitions run untraced and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are reported, read off a
``repro.obs.Tracer`` passed to the public ``tracer=`` arguments (see
``perfbench/README.md`` for the layer -> metric -> workload map).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it give the environment stamp and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median, over the host slowdown.
SETUP_REPEATS = 5
#: Untraced repetitions measured at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: With ``--trace 1``: untraced and traced repetitions, at least this
#: many of each.
MIN_TRACED_REPS = 2

#: Iterations of the reference loop, runs of it per host probe, and the
#: loop's time on a quiet host: a 2-vCPU VM with Python 3.11, the host
#: of ``baseline.json``.  Times are reported in seconds of that host.
REFERENCE_ITERS = 50_000
PROBE_SAMPLES = 9
REFERENCE_S = 0.0120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sat.propagations": "count",
    "sat.decisions": "count",
    "sat.props_per_s": "1/s",
    "satlearn.self_s": "s",
    "satlearn.conflicts": "count",
    "final_solve.self_s": "s",
    "final_solve.conflicts": "count",
    "elimlin.self_s": "s",
    "elimlin.facts": "count",
    "xl.self_s": "s",
    "xl.facts": "count",
    "propagation.self_s": "s",
    "propagation.calls": "count",
    "bosphorus.iterations": "count",
    "bosphorus.self_s": "s",
    "anf_to_cnf.self_s": "s",
    "anf_to_cnf.clauses": "count",
    "anf_to_cnf.karnaugh_hit_ratio": "ratio",
    "cnf_to_anf.self_s": "s",
    "server.exec_s": "s",
    "server.queue_wait_s": "s",
    "server.conversion_disk_hits": "count",
    "cube.split_s": "s",
    "cube.conquer_s": "s",
    "cube.conflicts": "count",
    "portfolio.race_s": "s",
    "portfolio.overhead_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.coverage": "ratio",
    "host.slowdown": "ratio",
}

#: Per-layer self times whose sum is checked against the wall time.
NAMED_SELF_TIMES = (
    "satlearn.self_s", "final_solve.self_s", "elimlin.self_s", "xl.self_s",
    "propagation.self_s", "bosphorus.self_s", "anf_to_cnf.self_s",
    "cnf_to_anf.self_s", "cube.split_s", "cube.conquer_s", "portfolio.race_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the self-test size")
    return parser.parse_args(argv)


def git_sha():
    """HEAD's commit, read from ``.git`` (None outside a git checkout).

    Read rather than asked of ``git``: a child process would count in
    ``peak_rss_mb``.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def stamp() -> dict:
    """Where and on what the numbers were taken."""
    import numpy

    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Peak RSS of the largest process: this one or a reaped worker.

    The largest, not the sum: forked workers share their parent's pages,
    so a sum would count those twice.  Workers still running when this is
    read are not counted; that leaves out the service's solver workers,
    so on ``service-mixed`` this is the client and server front end.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of dict and integer work, the
    kind of work the program does; it does not call the program."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(REFERENCE_ITERS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        acc ^= (i * 2654435761) & 0xFFFFFFFF
    return time.perf_counter() - t0


def host_sample() -> float:
    """How slow the host runs now: the reference loop's time over
    ``REFERENCE_S``."""
    return reference_loop() / REFERENCE_S


def host_probe() -> float:
    """``host_sample`` as the median of ``PROBE_SAMPLES`` runs."""
    return statistics.median(host_sample() for _ in range(PROBE_SAMPLES))


def normalised(reps, clients: int):
    """``(wall_s, job_p50_s)`` of the fixed work, in seconds of the
    reference host.

    The host is shared, and its speed drifts by tens of percent over
    minutes: in one run of 14 identical ``simon-solve`` repetitions (same
    conflict counts) the walls ranged 3.7-6.3 s, while their ratio to the
    reference loop's time, sampled before each job, stayed within
    4.8-5.5.  So each job's latency is divided by its repetition's
    slowdown, and per job the median over the repetitions is taken.
    ``wall_s`` is the sum over a repetition's jobs, divided by the number
    of clients that keep jobs running at once (1 but for the service's
    closed loop); ``job_p50_s`` is the median job.
    """
    scaled = [[t / r.slowdown for t in r.latencies] for r in reps]
    per_job = [statistics.median(times) for times in zip(*scaled)]
    return sum(per_job) / clients, statistics.median(per_job)


def run_rep(workload, tracer, probe):
    """One repetition, checked, with the host's slowdown during it: the
    mean of the samples taken before each job, which, spread over the
    repetition, meet the host's slow spells in the share the jobs do."""
    samples = []
    t0 = time.perf_counter()
    with tracer.span("bench.rep", workload=workload.name):
        rep = workload.rep(tracer, probe,
                           lambda: samples.append(host_sample()))
    rep.wall_s = time.perf_counter() - t0
    rep.slowdown = statistics.mean(samples)
    workload.check(rep)
    rep.outputs = None
    return rep


def traced_rep(workload):
    from repro.obs import Tracer
    from workloads import SolverProbe

    tracer = Tracer()
    probe = SolverProbe()
    probe.install()
    try:
        rep = run_rep(workload, tracer, probe)
    finally:
        probe.uninstall()
    return rep, tracer.spans() + rep.spans, probe


def layer_metrics(rows, rep, probe, wall_s):
    """Every per-layer metric of one traced repetition (0 where a layer
    does not run in this workload); ``wall_s`` is the untraced one."""
    from summary import attr, count, self_s, total_s

    solve_s = probe.totals["solve_s"]
    hits = attr(rows, "anf_to_cnf.convert", "karnaugh_cache_hits")
    misses = attr(rows, "anf_to_cnf.convert", "karnaugh_cache_misses")
    m = {
        "sat.propagations": probe.totals["propagations"],
        "sat.decisions": probe.totals["decisions"],
        "sat.props_per_s": probe.totals["propagations"] / solve_s
        if solve_s else 0.0,
        "satlearn.self_s": self_s(rows, "sat", "sat.solve"),
        "satlearn.conflicts": attr(rows, "sat.solve", "conflicts"),
        "final_solve.self_s": self_s(rows, "final.solve", "job.solve"),
        "final_solve.conflicts": attr(rows, "final.solve", "conflicts")
        + attr(rows, "job.solve", "conflicts"),
        "elimlin.self_s": self_s(rows, "elimlin"),
        "elimlin.facts": attr(rows, "elimlin", "facts"),
        "xl.self_s": self_s(rows, "xl"),
        "xl.facts": attr(rows, "xl", "facts"),
        "propagation.self_s": self_s(rows, "propagation", "propagation.initial"),
        "propagation.calls": count(rows, "propagation", "propagation.initial"),
        "bosphorus.iterations": attr(rows, "bosphorus.preprocess", "iterations"),
        "bosphorus.self_s": self_s(rows, "bosphorus.preprocess",
                                   "satlearn.iteration", "conversion.final",
                                   "bosphorus.augment_cnf"),
        "anf_to_cnf.self_s": self_s(rows, "anf_to_cnf.convert"),
        "anf_to_cnf.clauses": attr(rows, "anf_to_cnf.convert", "clauses"),
        "anf_to_cnf.karnaugh_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        # A DIMACS job's preprocess stage is the CNF->ANF conversion plus
        # the Bosphorus spans, so its self time is the conversion.
        "cnf_to_anf.self_s": self_s(rows, "job.preprocess"),
        "cube.split_s": total_s(rows, "cube.split"),
        "cube.conquer_s": total_s(rows, "cube.conquer")
        - total_s(rows, "cube.split"),
        "portfolio.race_s": total_s(rows, "portfolio.race"),
    }
    for key in ("server.exec_s", "server.queue_wait_s",
                "server.conversion_disk_hits", "cube.conflicts",
                "portfolio.overhead_s"):
        m[key] = rep.layers.get(key, 0)
    if "server.exec_s" in rep.layers:
        # Service time is spent in worker processes: latency splits into
        # the worker's own seconds and the rest (queue, transport), so
        # this reads 1 by construction.
        m["obs.coverage"] = (m["server.exec_s"] + m["server.queue_wait_s"]) \
            / sum(rep.latencies)
    else:
        m["obs.coverage"] = sum(m[k] for k in NAMED_SELF_TIMES) \
            / rep.slowdown / wall_s
    m["host.slowdown"] = rep.slowdown
    return m


def measure(workload, seconds, trace):
    """Repetitions for ``seconds``: untraced ones, and with ``trace``
    traced ones in between.  Stops before a repetition would overrun."""
    from repro.obs import NULL_TRACER

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_rep(workload, NULL_TRACER, None))
        if trace:
            traced.append(traced_rep(workload))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        if rounds >= (MIN_TRACED_REPS if trace else MIN_REPS) and \
                elapsed + elapsed / rounds > seconds:
            break
    return plain, traced


def run(args, workdir):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit("unknown workload {!r} (choices: {})".format(
            args.workload, ", ".join(WORKLOADS)))
    cls = WORKLOADS[args.workload]
    setup_times = []
    before = host_probe()
    for i in range(SETUP_REPEATS):
        workload = cls(args.seed, args.size, workdir)
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            workload.close()
    setup_s = statistics.median(setup_times) / statistics.mean(
        [before, host_probe()])
    try:
        workload.warmup()
        plain, traced = measure(workload, args.seconds, args.trace)
    finally:
        workload.close()

    reps = plain + [rep for rep, _, _ in traced]
    failures = [f for r in reps for f in r.failures]
    fingerprints = {json.dumps(r.fingerprint, sort_keys=True) for r in reps}
    if len(fingerprints) > 1:
        failures.append("outputs differ between repetitions: {}".format(
            sorted(fingerprints)))
    attempted = sum(r.attempted for r in reps)
    failed = min(attempted, sum(len(r.failures) for r in reps)
                 + (len(fingerprints) > 1))
    for line in failures[:20]:
        print("FAILED: " + line)

    wall_s, job_p50_s = normalised(plain, workload.concurrency)
    print("perfbench {} seed {}: {} repetitions of {} jobs, walls {}, "
          "host slowdowns {}; normalised wall {:.3f}".format(
              args.workload, args.seed, len(plain), plain[0].attempted,
              " ".join("{:.3f}".format(r.wall_s) for r in plain[:12]),
              " ".join("{:.2f}".format(r.slowdown) for r in plain[:12]),
              wall_s))
    if args.trace:
        from summary import format_table, summarize

        traced_wall, _ = normalised([r for r, _, _ in traced],
                                    workload.concurrency)
        layers = []
        for rep, spans, probe in traced:
            rows = summarize(spans)
            m = layer_metrics(rows, rep, probe, wall_s)
            m["obs.trace_overhead"] = traced_wall / wall_s - 1.0
            layers.append(m)
        print(format_table(rows))
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "job_p50_s": job_p50_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program to measure: {} is missing".format(
            os.path.join(SRC, "repro")), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    from workloads import make_workdir, remove_workdir

    workdir = make_workdir(ROOT)
    # Worker pools put their sockets in the temp directory; keep them in
    # the run's own directory unless its path is too long for a socket
    # name (108 bytes, with ~40 added below it).
    if len(workdir) <= 60:
        tempfile.tempdir = workdir
        os.environ["TMPDIR"] = workdir
    try:
        print("perfbench env: " + json.dumps(stamp(), sort_keys=True))
        result = run(args, workdir)
    finally:
        remove_workdir(workdir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
