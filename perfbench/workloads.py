"""The benchmark workloads: inputs from a seed, one repetition, its checks.

Each workload drives the public APIs from outside the program, the way a
user would: ``Bosphorus`` and ``CdclBackend`` in-process,
``CubeConqueror`` / ``PortfolioRunner`` over their worker pools, and
``SolverServer`` / ``ServerClient`` over TCP.  A workload is

* ``setup()`` — build the inputs from the seed (and, for the service,
  start the server); timed by the harness as ``setup_s``;
* ``warmup()`` — untimed work a user pays once (the service's cache);
* ``rep(tracer, probe, between)`` — one repetition of the workload's
  fixed work, returning a :class:`Rep` with per-job latencies, failed
  checks and a fingerprint that must be identical across repetitions of
  one run;
* ``close()``.

Why several small instances per repetition instead of one big one: the
harness runs every workload on many seeds, and the CDCL cost of a single
Simon instance varies several-fold from seed to seed (a 6-round,
2-plaintext full-key instance takes 2 s on one seed and 23 s on
another).  Summing a batch of instances keeps the work per repetition
nearly seed-independent, so a change in wall time means a change in the
program.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.anf import write_anf
from repro.anf.parser import parse_system
from repro.anf.polynomial import Poly
from repro.anf.system import AnfSystem
from repro.ciphers import simon, speck
from repro.core.anf_to_cnf import AnfToCnf
from repro.core.bosphorus import Bosphorus
from repro.core.config import Config
from repro.core.solution import Solution, solution_from_model
from repro.obs import NULL_TRACER
from repro.cube import CubeConqueror
from repro.portfolio import CdclBackend, PortfolioRunner
from repro.sat.dimacs import parse_dimacs, write_dimacs
from repro.sat.solver import Solver
from repro.satcomp.suite import build_suite
from repro.server.app import ServerClient, SolverServer

#: The Bosphorus overrides of the repository's Table II benches
#: (``benchmarks/conftest.py::fast_config``), sent with every service job.
FAST_CONFIG = {
    "xl_sample_bits": 12,
    "elimlin_sample_bits": 12,
    "sat_conflict_start": 1000,
    "sat_conflict_step": 1000,
    "sat_conflict_max": 5000,
    "max_iterations": 4,
}


#: Workload parameters.  ``full`` is what the benchmark measures;
#: ``tiny`` is the seconds-long self-test size (perfbench/selftest.py).
SIZES = {
    "simon-solve": {
        "full": dict(rounds=6, plaintexts=2, free_key_bits=24, instances=32),
        "tiny": dict(rounds=4, plaintexts=1, free_key_bits=10, instances=2),
    },
    "service-mixed": {
        # (rounds, plaintexts, instance seed) per cipher job.
        "full": dict(suite_scale=1.0, simon=((4, 1, 9), (5, 2, 1)),
                     speck=((3, 2, 0),), repeat=2, clients=2, workers=2),
        "tiny": dict(suite_scale=0.3, simon=((4, 1, 9),),
                     speck=((3, 1, 0),), repeat=1, clients=2, workers=2,
                     suite_limit=2),
    },
    "fanout-unsat": {
        "full": dict(rounds=7, free_key_bits=14, instances=8, cube_depth=4,
                     jobs=2),
        "tiny": dict(rounds=4, free_key_bits=10, instances=1, cube_depth=2,
                     jobs=2),
    },
}


@dataclass
class Rep:
    """One repetition's outcome."""

    wall_s: float = 0.0
    #: How slow the host ran during this repetition (1 = the reference
    #: host of ``run.REFERENCE_S``).
    slowdown: float = 1.0
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Must be identical across every repetition of one run (conflict
    #: counts, CNF hashes, verdicts): determinism is checked, not assumed.
    fingerprint: list = field(default_factory=list)
    #: Spans recorded in worker processes (service jobs), summarised
    #: together with the harness tracer's spans.
    spans: List[dict] = field(default_factory=list)
    #: Per-layer values the workload measures itself.
    layers: Dict[str, float] = field(default_factory=dict)
    #: What ``check`` judges, kept out of the timed repetition.
    outputs: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class SolverProbe:
    """CDCL work counters for traced runs, read from ``Solver``'s public
    ``num_*`` fields by a wrapper around ``Solver.solve``.

    The wrapper exists only while installed (traced repetitions).  Pools
    fork their workers from this process, so the wrapper runs there too;
    a wrapper around ``CdclBackend.solve`` tags each worker-side result
    with that call's counter deltas, and :meth:`absorb` adds them up
    parent-side.
    """

    KEYS = ("propagations", "decisions", "conflicts", "solve_s")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.KEYS, 0)
        self._saved = None

    def install(self) -> None:
        probe = self
        solve, backend_solve = Solver.solve, CdclBackend.solve

        def counted_solve(solver, *args, **kwargs):
            before = (solver.num_propagations, solver.num_decisions,
                      solver.num_conflicts)
            t0 = time.perf_counter()
            try:
                return solve(solver, *args, **kwargs)
            finally:
                t = probe.totals
                t["solve_s"] += time.perf_counter() - t0
                t["propagations"] += solver.num_propagations - before[0]
                t["decisions"] += solver.num_decisions - before[1]
                t["conflicts"] += solver.num_conflicts - before[2]

        def tagged_backend_solve(backend, *args, **kwargs):
            before = dict(probe.totals)
            result = backend_solve(backend, *args, **kwargs)
            result.bench_counters = (
                os.getpid(),
                {k: probe.totals[k] - before[k] for k in probe.KEYS},
            )
            return result

        self._saved = (solve, backend_solve)
        Solver.solve = counted_solve
        CdclBackend.solve = tagged_backend_solve

    def uninstall(self) -> None:
        if self._saved is not None:
            Solver.solve, CdclBackend.solve = self._saved
            self._saved = None

    def absorb(self, results) -> None:
        """Add the counters of results solved in other processes."""
        for res in results:
            pid, delta = getattr(res, "bench_counters", (None, None))
            if delta is None or pid == os.getpid():
                continue
            for k in self.KEYS:
                self.totals[k] += delta[k]


def _pin_key(inst, free_key_bits: int, flip: bool = False) -> List[Poly]:
    """The instance's equations with all but ``free_key_bits`` key bits
    pinned to the true key; ``flip`` negates one ciphertext bit."""
    polys = list(inst.polynomials)
    if flip:
        polys[-1] = polys[-1] + Poly.one()
    for v in inst.key_vars[free_key_bits:]:
        polys.append(Poly.variable(v) + Poly.constant(inst.witness[v]))
    return polys


def _np_simon_encrypt(plaintext, key_words, rounds):
    """Simon32/64 over numpy arrays of key words (one lane per key)."""
    mask = np.uint32(0xFFFF)

    def rotl(x, k):
        k %= 16
        return ((x << np.uint32(k)) | (x >> np.uint32(16 - k))) & mask

    ks = [np.asarray(w, dtype=np.uint32) for w in key_words]
    for i in range(simon.KEY_WORDS, rounds):
        tmp = rotl(ks[i - 1], -3) ^ ks[i - 3]
        tmp ^= rotl(tmp, -1)
        const = np.uint32(simon.Z0[(i - simon.KEY_WORDS) % 62] ^ 3)
        ks.append((~ks[i - 4] & mask) ^ tmp ^ const)
    x = np.full_like(ks[0], plaintext[0])
    y = np.full_like(ks[0], plaintext[1])
    for i in range(rounds):
        x, y = y ^ (rotl(x, 1) & rotl(x, 8)) ^ rotl(x, 2) ^ ks[i], x
    return x, y


def refutation_is_known(inst, free_key_bits: int) -> bool:
    """Exhaustive check that a one-ciphertext-bit flip is UNSAT.

    Encrypts the plaintext under every key of the free subspace (the low
    ``free_key_bits`` bits of key word 0) and confirms that no key other
    than the true one lands within Hamming distance 1 of the true
    ciphertext — so no key reaches the flipped ciphertext.
    """
    assert free_key_bits <= 16 and len(inst.plaintexts) == 1
    low = np.arange(1 << free_key_bits, dtype=np.uint32)
    k0 = (np.uint32(inst.key_words[0]) & ~np.uint32((1 << free_key_bits) - 1)
          & np.uint32(0xFFFF)) | low
    words = [k0] + [np.full_like(k0, w) for w in inst.key_words[1:]]
    x, y = _np_simon_encrypt(inst.plaintexts[0], words, inst.rounds)
    cx, cy = inst.ciphertexts[0]
    diff = (x ^ np.uint32(cx)) | ((y ^ np.uint32(cy)) << np.uint32(16))
    distance = np.unpackbits(diff.view(np.uint8)).reshape(len(diff), 32).sum(1)
    true_key = inst.key_words[0] & ((1 << free_key_bits) - 1)
    near = np.flatnonzero(distance <= 1)
    return distance[true_key] == 0 and list(near) == [true_key]


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.workdir = workdir
        #: Jobs kept running at once (the service's closed-loop clients).
        self.concurrency = self.params.get("clients", 1)

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def rep(self, tracer, probe: Optional[SolverProbe], between) -> Rep:
        """One repetition; ``between()`` is called before each job starts
        (untimed), where the harness samples the host's speed."""
        raise NotImplementedError

    def check(self, rep: Rep) -> None:
        """Fill ``rep.failures`` and ``rep.fingerprint`` (untimed)."""

    def close(self) -> None:
        pass


class SimonSolve(Workload):
    name = "simon-solve"

    def setup(self) -> None:
        p = self.params
        self.instances = []
        for i in range(p["instances"]):
            inst = simon.generate_instance(
                p["plaintexts"], p["rounds"], self.seed * 1000 + i
            )
            self.instances.append(
                (inst.ring, _pin_key(inst, p["free_key_bits"]))
            )

    def rep(self, tracer, probe, between) -> Rep:
        rep = Rep()
        for ring, polys in self.instances:
            between()
            t0 = time.perf_counter()
            res = Bosphorus(Config(), tracer=tracer).preprocess_anf(ring, polys)
            final = None
            if res.solution is None and not res.is_unsat:
                # The final solve the CLI runs for --solve (cms default).
                # At the full size the loop recovers every key itself, so
                # this runs only if a change leaves a key unfound.
                with tracer.span("final.solve", backend="cms") as span:
                    final = CdclBackend("cms").solve(res.cnf)
                    span.set("conflicts", final.conflicts)
            rep.latencies.append(time.perf_counter() - t0)
            rep.outputs.append((polys, res, final))
        return rep

    def check(self, rep: Rep) -> None:
        for polys, res, final in rep.outputs:
            values = None
            if res.solution is not None:
                values = res.solution.values
            elif final is not None and final.status is True and final.model:
                values = solution_from_model(res.conversion, final.model).values
            if values is None:
                rep.failures.append("simon: no key found (status {})".format(
                    res.status))
            elif not Solution(list(values)).satisfies(polys):
                rep.failures.append("simon: recovered key fails the ANF")
            buf = io.StringIO()
            write_dimacs(buf, res.cnf)
            rep.fingerprint.append((
                sum(t.get("sat_conflicts", 0) for t in res.stats["techniques"]),
                final.conflicts if final is not None else 0,
                len(res.facts),
                hashlib.sha256(buf.getvalue().encode()).hexdigest(),
            ))


class ServiceMixed(Workload):
    name = "service-mixed"

    def setup(self) -> None:
        # A fixed job mix; the seed only shuffles the submission order.
        # Instance costs swing with their generator seeds (a Tseitin job
        # 20x, a 3-job Simon/Speck mix 3x), which would swamp the pool
        # and cache costs this workload is for.  Random 3-SAT is left
        # out: its answer is not known, so UNSAT could not be checked.
        p = self.params
        suite = [s for s in build_suite(scale=p["suite_scale"], per_family=1)
                 if s.expected is not None][: p.get("suite_limit")]
        mix = []
        for inst in suite:
            buf = io.StringIO()
            write_dimacs(buf, inst.formula)
            mix.append(("dimacs", buf.getvalue(), inst.expected, inst.name))
        for rounds, pts, seed in p["simon"]:
            inst = simon.generate_instance(pts, rounds, seed)
            mix.append(("anf", _anf_text(inst.polynomials), True,
                        "simon_r{}_p{}_s{}".format(rounds, pts, seed)))
        for rounds, pts, seed in p["speck"]:
            inst = speck.generate_instance(pts, rounds, seed)
            mix.append(("anf", _anf_text(inst.polynomials), True,
                        "speck_r{}_p{}_s{}".format(rounds, pts, seed)))
        mix = mix * p["repeat"]
        random.Random(self.seed).shuffle(mix)
        # The checks read the submitted text back, so they judge exactly
        # what the server was given.
        self.jobs = []
        for fmt, text, expected, label in mix:
            original = (parse_system(text)[1] if fmt == "anf"
                        else parse_dimacs(text))
            self.jobs.append((fmt, text, expected, label, original))
        self.cache_dir = os.path.join(self.workdir, "cache")
        self.loop = asyncio.new_event_loop()
        self.server = SolverServer(jobs=p["workers"], cache_dir=self.cache_dir)
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        await self.server.start()
        self.clients = [
            await ServerClient.connect(self.server.host, self.server.port)
            for _ in range(self.params["clients"])
        ]
        for client in self.clients:
            await client.ping()

    def warmup(self) -> None:
        self.rep(NULL_TRACER, None, lambda: None)

    def rep(self, tracer, probe, between) -> Rep:
        rep = Rep()
        with tracer.span("bench.service_pass", jobs=len(self.jobs)):
            rep.outputs = self.loop.run_until_complete(
                self._pass(tracer.enabled, between))
        exec_s = wait_s = 0.0
        disk_hits = 0
        for latency, res in rep.outputs:
            rep.latencies.append(latency)
            seconds = float(res.get("seconds", 0.0))
            exec_s += seconds
            wait_s += latency - seconds
            disk_hits += int((res.get("stats") or {}).get(
                "conversion_disk_hits", 0))
            rep.spans.extend(res.get("spans") or [])
        rep.layers = {
            "server.exec_s": exec_s,
            "server.queue_wait_s": wait_s,
            "server.conversion_disk_hits": disk_hits,
        }
        return rep

    def check(self, rep: Rep) -> None:
        for (fmt, _, expected, label, original), (_, res) in zip(
            self.jobs, rep.outputs
        ):
            rep.fingerprint.append(
                (label, res.get("verdict"), res.get("cnf_sha256")))
            failure = _check_job(fmt, expected, original, res)
            if failure:
                rep.failures.append("{}: {}".format(label, failure))

    async def _pass(self, traced: bool, between):
        """Each client submits its next job when its previous result
        arrives (closed loop); returns ``(latency, result)`` per job.

        ``between()`` blocks the event loop, which serves the other
        client's events too: it can hold back that client's result by up
        to one host sample (about 12 ms), while its worker runs on.
        """
        outcomes = [None] * len(self.jobs)
        cursor = iter(range(len(self.jobs)))

        async def client_loop(client):
            for index in cursor:
                between()
                fmt, text = self.jobs[index][:2]
                t0 = time.perf_counter()
                job = await client.submit(
                    fmt, text, backend="minisat", config=FAST_CONFIG,
                    trace=traced,
                )
                res = await client.wait_result(job, timeout=120)
                outcomes[index] = (time.perf_counter() - t0, res)

        await asyncio.gather(*(client_loop(c) for c in self.clients))
        return outcomes

    def close(self) -> None:
        async def stop():
            for client in self.clients:
                await client.close()
            await self.server.close()

        try:
            self.loop.run_until_complete(stop())
        finally:
            self.loop.close()


def _anf_text(polynomials) -> str:
    buf = io.StringIO()
    write_anf(buf, polynomials)
    return buf.getvalue()


def _check_job(fmt, expected, original, res) -> Optional[str]:
    """Why a service result is wrong, or None when it checks out."""
    verdict = res.get("verdict")
    if verdict == "unsat":
        return None if expected is False else "UNSAT on a satisfiable instance"
    if verdict != "sat":
        return "verdict {!r} ({})".format(verdict, res.get("error", ""))
    if expected is False:
        return "SAT on an unsatisfiable instance"
    model = res.get("model")
    if model is None:
        return "SAT without a model"
    if fmt == "anf":
        ok = Solution(list(model)).satisfies(original)
    else:
        def bit(var):
            return model[var] if var < len(model) else 0

        ok = all(
            any(bit(lit >> 1) != (lit & 1) for lit in clause)
            for clause in original.clauses
        ) and all(
            sum(bit(v) for v in variables) % 2 == rhs
            for variables, rhs in original.xors
        )
    return None if ok else "model fails the original input"


class FanoutUnsat(Workload):
    name = "fanout-unsat"

    def setup(self) -> None:
        p = self.params
        self.formulas = []
        for i in range(p["instances"]):
            inst = simon.generate_instance(1, p["rounds"], self.seed * 1000 + i)
            if not refutation_is_known(inst, p["free_key_bits"]):
                raise RuntimeError("seed {} gives a satisfiable refutation "
                                   "instance".format(self.seed))
            system = AnfSystem(inst.ring, _pin_key(inst, p["free_key_bits"],
                                                   flip=True))
            self.formulas.append(AnfToCnf(Config()).convert(system).formula)

    def rep(self, tracer, probe, between) -> Rep:
        p = self.params
        rep = Rep()
        overhead = 0.0
        cube_conflicts = 0
        for k, formula in enumerate(self.formulas):
            # One job is one instance refuted both ways.
            between()
            t0 = time.perf_counter()
            outcome = CubeConqueror(
                [CdclBackend("minisat")], jobs=p["jobs"],
                depth=p["cube_depth"], tracer=tracer,
            ).run(formula)
            race = PortfolioRunner(
                [CdclBackend("minisat"), CdclBackend("cms")], jobs=p["jobs"],
                tracer=tracer,
            ).run(formula)
            rep.latencies.append(time.perf_counter() - t0)
            conflicts = sum(s.conflicts for s in outcome.stats)
            cube_conflicts += conflicts
            rep.fingerprint.append((outcome.n_cubes, conflicts))
            if outcome.verdict is not False:
                rep.failures.append("instance {}: cube verdict {!r}".format(
                    k, outcome.verdict))
            if race.verdict is not False:
                rep.failures.append("instance {}: portfolio verdict {!r}".format(
                    k, race.verdict))
            winner = [s.seconds for s in race.stats if s.won]
            overhead += race.wall_seconds - (winner[0] if winner else 0.0)
            if probe is not None:
                probe.absorb(r for r in outcome.results + race.results if r)
        rep.layers = {
            "cube.conflicts": cube_conflicts,
            "portfolio.overhead_s": overhead,
        }
        return rep


WORKLOADS = {w.name: w for w in (SimonSolve, ServiceMixed, FanoutUnsat)}


def make_workdir(root: str) -> str:
    """A private scratch directory inside the checkout."""
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
