"""Pluggable solver backends behind one protocol (paper Table II setup).

The paper races MiniSat, Lingeling and CryptoMiniSat5 over the same
instances; this module gives the reproduction the matching abstraction: a
:class:`SolverBackend` answers *one* CNF under a conflict budget and a
``stop`` predicate, and every consumer (the final-solver harness, the
portfolio engine, the server, the CLI) talks to the protocol instead of
a concrete solver.  ``stop`` is the one stop signal running code gets:
callers build it with :func:`stop_rule` from their deadline and cancel
token.  Three conforming families ship:

* :class:`CdclBackend` — the in-process CDCL personalities
  (minisat / lingeling / cms configurations from :mod:`repro.sat`);
* :class:`CdclBackend` with a ``seed`` — the *diversified* personality:
  :attr:`repro.sat.solver.SolverConfig.seed` randomises initial
  polarities and branch tie-breaking, deterministically per seed, so a
  portfolio can run many decorrelated copies of one personality;
* :class:`DimacsBackend` — any external SAT solver binary, fed strict
  DIMACS through a temp file and parsed from its competition-format
  output (``s SATISFIABLE`` / ``v`` lines), killed once ``stop``
  holds.  It is skipped gracefully (``available() == False``) when the
  binary is not installed.

Backends must be picklable: the portfolio engine ships them to worker
processes.  The registry maps names (``"minisat"``, ``"cms@7"``,
``"dimacs:kissat"``) to fresh backend instances via :func:`create_backend`.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sat import (
    SOLVER_COUNTERS,
    lingeling_config,
    minisat_config,
    solver_counters,
)
from ..sat.dimacs import CnfFormula, expand_xors, write_dimacs
from ..sat.preprocess import Preprocessor
from ..sat.solver import SAT, UNSAT, Solver, SolverConfig
from ..sat.types import TRUE, UNDEF
from ..sat.xorengine import XorEngine

#: Conflicts per slice of the interruptible solve loop.  A slice
#: boundary restarts the Luby sequence, so this is part of the search;
#: ``stop`` is asked after every conflict.
SLICE_CONFLICTS = 500


@dataclass
class BackendResult:
    """One backend's answer for one formula.

    ``status`` follows the solver convention: ``True`` SAT, ``False``
    UNSAT, ``None`` no verdict.  ``model`` is 0/1 bits over the *input*
    formula's variables (``None`` when unavailable — e.g. an external
    solver that does not print ``v`` lines).

    ``assumption_failure`` qualifies an UNSAT answer produced under
    non-empty ``assumptions``: when True the refutation may hinge on the
    assumed cube, so it must *not* be read as a global UNSAT.  When an
    in-process backend reports UNSAT with the flag False, the refutation
    is unconditional even though assumptions were supplied — the
    cube-and-conquer scheduler uses that as a whole-run shortcut.
    External DIMACS backends receive assumptions as appended unit
    clauses, so their UNSAT under a cube is always flagged
    (conservatively) as assumption-relative.
    """

    status: Optional[bool]
    model: Optional[List[int]] = None
    conflicts: int = 0
    cancelled: bool = False  # set by the fan-out engine, not a backend
    demoted: bool = False
    assumption_failure: bool = False
    error: Optional[str] = None
    #: In-process solves only: the solver's work counters at exit
    #: (:func:`repro.sat.solver_counters`), recorded on the caller's span
    #: (a fan-out's cube span, which the parent records from the window
    #: the worker measured, or a server job's ``job.solve``).
    counters: Optional[dict] = None


def stop_rule(deadline: Optional[float] = None,
              cancel=None) -> Optional[Callable[[], bool]]:
    """The one stop predicate: true once ``cancel`` (anything with
    ``is_set()``) is set or the ``time.monotonic()`` ``deadline`` has
    passed.  ``None`` when neither can fire, so an unbounded solve asks
    nothing after its conflicts."""
    if deadline is None and cancel is None:
        return None

    def stop() -> bool:
        return (cancel is not None and cancel.is_set()) or (
            deadline is not None and time.monotonic() >= deadline
        )

    return stop


def sliced_solve(
    solver: Solver,
    stop: Optional[Callable[[], bool]] = None,
    conflict_budget: Optional[int] = None,
    slice_conflicts: int = SLICE_CONFLICTS,
    assumptions: Sequence[int] = (),
) -> Optional[bool]:
    """Run CDCL in conflict slices until a verdict, budget exhaustion or
    ``stop()`` — whichever comes first.

    The one interruptible-solve policy, shared by every in-process
    backend: a ``stop`` that already holds never buys a conflict slice,
    and inside a slice the solver asks it after every conflict, so it
    stops the search within one conflict.  ``assumptions`` are re-applied
    on every slice; after an UNSAT verdict the caller reads
    ``solver.assumptions_failed`` to tell a cube-relative refutation from
    a global one.
    """
    budget_left = conflict_budget
    while True:
        if stop is not None and stop():
            return None
        slice_budget = slice_conflicts
        if budget_left is not None:
            if budget_left <= 0:
                return None
            slice_budget = min(slice_budget, budget_left)
        before = solver.num_conflicts
        verdict = solver.solve(
            assumptions=assumptions, conflict_budget=slice_budget, stop=stop
        )
        if budget_left is not None:
            budget_left -= solver.num_conflicts - before
        if verdict is not None:
            return verdict


class SolverBackend:
    """Protocol for portfolio members.  Subclasses implement
    :meth:`solve`; ``name`` identifies the backend in stats and the
    registry; ``available()`` lets a backend opt out at runtime (missing
    binary) without failing the portfolio.

    ``assumptions`` (encoded literals) restrict the solve to one cube of
    the search space.  In-process backends pass them to the CDCL solver
    natively; external ones receive them as appended unit clauses.  An
    UNSAT answer under assumptions carries
    :attr:`BackendResult.assumption_failure` so cube schedulers never
    mistake a refuted cube for a refuted formula.

    ``stop`` (:func:`stop_rule`) is the only stop signal a solve gets:
    the backend asks it and gives up without a verdict once it holds."""

    name: str = "backend"

    def available(self) -> bool:
        return True

    def solve(
        self,
        formula: CnfFormula,
        conflict_budget: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        assumptions: Sequence[int] = (),
    ) -> BackendResult:
        raise NotImplementedError

    def cube_solver(
        self, formula: CnfFormula, cubes: Sequence[Sequence[int]]
    ) -> Callable[..., BackendResult]:
        """A function solving ``formula`` under one cube of ``cubes`` per
        call, in order: ``fn(cube, conflict_budget=, stop=)``.  This
        default solves every cube from scratch through :meth:`solve` (the
        empty cube passes no ``assumptions``); an in-process backend
        loads the formula once and keeps its solver warm across the
        chain."""

        def solve_cube(cube, conflict_budget=None, stop=None) -> BackendResult:
            kwargs = {"assumptions": list(cube)} if cube else {}
            return self.solve(
                formula, conflict_budget=conflict_budget, stop=stop, **kwargs
            )

        return solve_cube


#: The in-process CDCL personalities and their solver configurations
#: (cms is minisat's CDCL plus XOR recovery and the engine).
_PERSONALITY_CONFIGS = {
    "minisat": minisat_config,
    "lingeling": lingeling_config,
    "cms": minisat_config,
}

#: The personality names :func:`create_backend`, the CLI's ``--solver``
#: and the Table II drivers accept.
PERSONALITIES = tuple(_PERSONALITY_CONFIGS)


@dataclass
class CdclBackend(SolverBackend):
    """An in-process CDCL personality, optionally seed-diversified.

    This is the one code path for all three personalities:

    * ``lingeling`` runs the SatELite-style :class:`Preprocessor` first
      (skipped when a cube assumes anything: BVE could eliminate an
      assumed variable);
    * ``cms`` recovers Tseitin-encoded XORs from plain CNF and attaches
      the native :class:`XorEngine`;
    * other personalities get XOR constraints *expanded* to plain
      clauses (:func:`repro.sat.dimacs.expand_xors`), so a formula with
      ``x`` lines is solved correctly by every member of a portfolio.

    :meth:`solve` is the one-cube case of :class:`CdclChain`, the warm
    chain :meth:`cube_solver` returns.
    """

    personality: str = "minisat"
    seed: Optional[int] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.seed is None:
            return self.personality
        return "{}@{}".format(self.personality, self.seed)

    def _config(self) -> SolverConfig:
        if self.personality not in _PERSONALITY_CONFIGS:
            raise ValueError("unknown personality: " + self.personality)
        cfg = _PERSONALITY_CONFIGS[self.personality]()
        if self.seed is not None:
            cfg = replace(cfg, seed=self.seed)
        return cfg

    def solve(
        self,
        formula: CnfFormula,
        conflict_budget: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        assumptions: Sequence[int] = (),
    ) -> BackendResult:
        # The one-cube chain: there is no second solving path.
        return self.cube_solver(formula, [assumptions])(
            assumptions, conflict_budget=conflict_budget, stop=stop
        )

    def cube_solver(
        self, formula: CnfFormula, cubes: Sequence[Sequence[int]]
    ) -> "CdclChain":
        return CdclChain(self, formula, cubes)


class CdclChain:
    """One formula loaded into one warm :class:`Solver`, solved cube by
    cube — :meth:`CdclBackend.cube_solver`.

    The load (XOR recovery or expansion, SatELite preprocessing, clause
    loading, the engine attach) happens once, on the first cube that
    reaches the solver.  Each cube then runs through
    :func:`sliced_solve` with its literals as assumptions.  Assumptions
    are decisions, so every clause the solver learns is a consequence
    of the formula alone; learnt clauses and activities carry from cube
    to cube.  A cube must never be added to the solver as a clause.

    A result's ``conflicts`` and ``counters`` are that cube's share of
    the solver's totals (the first cube pays the load's propagations),
    except ``learnts``, the learnt-DB size when the cube ends.  A cube
    that raises discards the solver: the next cube loads a fresh one.
    """

    def __init__(self, backend: CdclBackend, formula: CnfFormula,
                 cubes: Sequence[Sequence[int]]):
        self.backend = backend
        self.formula = formula
        # BVE may eliminate an assumed variable, silently dropping the
        # cube constraint: a chain that assumes anything runs
        # unpreprocessed.
        self.preprocess = backend.personality == "lingeling" and not any(cubes)
        self.n_assumed = 1 + max(
            (a >> 1 for cube in cubes for a in cube), default=-1
        )
        self.solver: Optional[Solver] = None
        self.preprocessor = None
        self.n_vars = 0
        self.refuted = False  # preprocessing refuted the formula
        self._spent = dict.fromkeys(SOLVER_COUNTERS, 0)

    def _load(self) -> None:
        formula = self.formula
        cms = self.backend.personality == "cms"
        if cms and not formula.xors:
            from ..sat.xorrecovery import formula_with_recovered_xors

            formula = formula_with_recovered_xors(formula)
        use_engine = cms and bool(formula.xors)
        if formula.xors and not use_engine:
            formula = expand_xors(formula)
        clauses = [list(c) for c in formula.clauses]
        self.n_vars = formula.n_vars
        if self.preprocess:
            self.preprocessor = Preprocessor(self.n_vars, clauses)
            pre = self.preprocessor.run()
            if not pre.status:
                self.refuted = True
                return
            clauses = pre.clauses
        solver = Solver(self.backend._config())
        solver.ensure_vars(max(self.n_vars, self.n_assumed))
        self.solver = solver
        if solver.add_clauses(clauses) and use_engine:
            engine = XorEngine()
            for variables, rhs in formula.xors:
                engine.add_xor(variables, rhs)
            solver.attach_xor_engine(engine)

    def __call__(
        self,
        cube: Sequence[int],
        conflict_budget: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> BackendResult:
        # ``stop`` is asked before the heavy setup too: a loser that
        # starts after the race is decided must not burn CPU on clause
        # loading or SatELite preprocessing.
        if stop is not None and stop():
            return BackendResult(None)
        try:
            return self._solve(cube, conflict_budget, stop)
        except Exception:
            self.solver = None
            self._spent = dict.fromkeys(SOLVER_COUNTERS, 0)
            raise

    def _solve(self, cube, conflict_budget, stop) -> BackendResult:
        if self.solver is None and not self.refuted:
            self._load()
        solver = self.solver
        if solver is None:
            return BackendResult(UNSAT)
        verdict = UNSAT if not solver.ok else sliced_solve(
            solver, stop, conflict_budget, assumptions=cube
        )
        result = BackendResult(
            verdict,
            # UNSAT with the flag still False is a *global* refutation
            # even though a cube was assumed — the search never needed
            # the assumptions to close the proof.
            assumption_failure=verdict is UNSAT and solver.ok
            and solver.assumptions_failed,
        )
        if verdict is SAT:
            raw = [
                solver.model[v] if v < len(solver.model) else UNDEF
                for v in range(self.n_vars)
            ]
            if self.preprocessor is not None:
                raw = self.preprocessor.extend_model(raw)
            result.model = [
                1 if x == TRUE else 0 for x in raw[:self.formula.n_vars]
            ]
        totals = solver_counters(solver)
        result.counters = dict(totals, **{
            name: totals[name] - self._spent[name] for name in SOLVER_COUNTERS
        })
        result.conflicts = result.counters["conflicts"]
        self._spent = totals
        return result


@dataclass
class DimacsBackend(SolverBackend):
    """Shell out to an external SAT solver binary over strict DIMACS.

    ``command`` is the argv prefix; ``{cnf}`` placeholders are replaced
    with the instance path (appended when absent).  XOR constraints are
    always expanded — external solvers speak plain DIMACS.  The verdict
    is parsed from SAT-competition output (``s SATISFIABLE`` /
    ``s UNSATISFIABLE``, bare MiniSat-style ``SATISFIABLE`` lines, or
    the 10/20 exit-code convention) and the model from ``v`` lines when
    present.  The process is killed once ``stop()`` holds; a conflict
    budget cannot reach a binary, so it is ignored.
    """

    command: Tuple[str, ...] = ()
    label: Optional[str] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.label or "dimacs:{}".format(
            os.path.basename(self.command[0]) if self.command else "?"
        )

    def available(self) -> bool:
        return bool(self.command) and shutil.which(self.command[0]) is not None

    def solve(
        self,
        formula: CnfFormula,
        conflict_budget: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
        assumptions: Sequence[int] = (),
    ) -> BackendResult:
        if not self.available():
            return BackendResult(
                None,
                error="binary not found: {}".format(
                    self.command[0] if self.command else "<empty command>"
                ),
            )
        stop = stop or (lambda: False)
        # Short-circuit before serialising the instance: a queued loser
        # whose race is already over must not write a temp CNF and exec
        # a binary only to kill it moments later.
        if stop():
            return BackendResult(None)
        n_report = formula.n_vars
        plain = expand_xors(formula)
        if assumptions:
            # External solvers take no assumption interface over DIMACS;
            # the cube rides along as unit clauses on a copy.  The
            # refutation then never distinguishes cube from formula, so
            # UNSAT below is flagged assumption-relative unconditionally.
            cubed = CnfFormula(max(plain.n_vars, 1 + max(a >> 1 for a in assumptions)))
            cubed.clauses = [list(c) for c in plain.clauses]
            cubed.clauses.extend([a] for a in assumptions)
            plain = cubed

        fd, path = tempfile.mkstemp(suffix=".cnf", text=True)
        try:
            with os.fdopen(fd, "w") as f:
                write_dimacs(f, plain, comments=["repro portfolio instance"])
            argv = [a.replace("{cnf}", path) for a in self.command]
            if not any("{cnf}" in a for a in self.command):
                argv.append(path)
            if stop():
                return BackendResult(None)
            try:
                proc = subprocess.Popen(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                    # Own process group: a timeout kill must take the
                    # solver's children too, or they keep the stdout
                    # pipe open and the reap below blocks on them.
                    start_new_session=True,
                )
            except OSError as exc:
                return BackendResult(None, error=str(exc))
            # Drain stdout on a thread: a solver printing more than a
            # pipe buffer (big "v" model lines) would otherwise block
            # writing while this loop only polls for exit — deadlock.
            chunks: List[str] = []
            reader = threading.Thread(
                target=lambda: chunks.append(proc.stdout.read()), daemon=True
            )
            reader.start()
            killed = False
            while proc.poll() is None:
                if stop():
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except OSError:
                        proc.kill()
                    killed = True
                    break
                time.sleep(0.02)
            proc.wait()
            # Bounded join: a grandchild that escaped the killed process
            # group could keep the pipe open; the daemon reader is then
            # abandoned rather than hanging this backend.
            reader.join(timeout=5.0)
            if not reader.is_alive():
                proc.stdout.close()
            stdout = "".join(chunks)
            if killed:
                return BackendResult(None)
            result = self._parse(stdout, proc.returncode, n_report)
            if assumptions and result.status is UNSAT:
                result.assumption_failure = True
            return result
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _parse(self, stdout: str, returncode: int, n_vars: int) -> BackendResult:
        status: Optional[bool] = None
        values: Dict[int, int] = {}
        saw_model = False
        for line in stdout.splitlines():
            line = line.strip()
            if line in ("s SATISFIABLE", "SATISFIABLE"):
                status = SAT
            elif line in ("s UNSATISFIABLE", "UNSATISFIABLE"):
                status = UNSAT
            elif line.startswith("v ") or line.startswith("V "):
                saw_model = True
                for tok in line.split()[1:]:
                    try:
                        n = int(tok)
                    except ValueError:
                        continue
                    if n == 0:
                        continue
                    values[abs(n) - 1] = 1 if n > 0 else 0
        if status is None:
            if returncode == 10:
                status = SAT
            elif returncode == 20:
                status = UNSAT
        model = None
        if status is SAT and saw_model:
            model = [values.get(v, 0) for v in range(n_vars)]
        return BackendResult(status, model=model)


# -- backend specs ----------------------------------------------------------


def create_backend(spec: str) -> SolverBackend:
    """Build a backend from a spec string.

    Accepted forms:

    * a personality — one of :data:`PERSONALITIES`;
    * ``"<personality>@<seed>"`` — the diversified CDCL personality,
      e.g. ``"cms@7"``;
    * ``"dimacs:<program>[ args...]"`` — an external solver binary run
      over strict DIMACS, e.g. ``"dimacs:kissat"`` or
      ``"dimacs:cryptominisat5 --verb=0"``.
    """
    personality, at, seed_text = spec.partition("@")
    if personality in PERSONALITIES:
        if not at:
            return CdclBackend(personality=personality)
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError("bad seed in backend spec: " + spec)
        return CdclBackend(personality=personality, seed=seed)
    if spec.startswith("dimacs:"):
        command = tuple(spec[len("dimacs:"):].split())
        if not command:
            raise ValueError("empty dimacs backend command: " + spec)
        return DimacsBackend(command=command)
    raise ValueError("unknown backend spec: " + spec)


def default_portfolio(seed: int = 0) -> List[SolverBackend]:
    """The stock portfolio: all three personalities plus a diversified
    CMS copy (decorrelated via ``SolverConfig.seed``)."""
    return [
        CdclBackend("minisat"),
        CdclBackend("lingeling"),
        CdclBackend("cms"),
        CdclBackend("cms", seed=seed + 1),
    ]
