"""The one worker pool behind every fan-out, and the batch map on it.

:class:`WorkerSlots` is the process substrate shared by the portfolio
race, cube conquest, ``run_family`` and the job server.  Each *slot* is
one worker process with its own duplex ``Pipe`` (work in, events out):
there is no shared queue, lock or feeder thread in either direction, so
a worker killed in the middle of a read or a write takes only its own
pipe with it.  A worker's first act is ``gc.freeze()``: everything it
inherited from the parent (under ``fork``, the parent's whole heap) is
then out of its collector's reach, so a collection walks only the
worker's own objects instead of touching, and copy-on-write faulting,
every inherited page.  The parent's collector is untouched.  Two shared
flags per slot carry the rest:

* the **started flag** — the id of the unit the slot is executing,
  written by the worker before the unit runs;
* the **cancel flag** — the id of the unit the slot should abandon,
  written by the parent; :class:`CancelToken` compares the two, so a
  stale flag can never cancel a later unit.

**One death rule.**  The parent waits on the pipes plus the process
sentinels.  When a slot dies, every event already in its pipe is
delivered first; then the unit dispatched to it, if any, is failed with
``worker-died`` when the started flag names it, and requeued when it was
dispatched but never started (at most :data:`MAX_DISPATCHES` times).
The slot respawns.  A death never touches a sibling slot.

:class:`BatchScheduler` maps a function over a work list on these
slots, driving them synchronously in the calling thread.  The function
and the work list reach the workers as ``Process`` arguments — inherited
copy-on-write under ``fork``, so large inputs are never re-pickled
— and only item indices and results cross the pipes.  An item that
raises (or whose worker dies) yields a :class:`BatchItemError` in its
slot; every sibling still runs and reports.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Flag value meaning "no unit" (unit ids are never 0).
IDLE = 0

#: How often one unit is handed to workers that die before starting it
#: before it is failed as ``worker-died`` instead of requeued again.
MAX_DISPATCHES = 3


def mp_context():
    """The package-wide multiprocessing context.

    Fork-preferred (cheap workers, inheritance-based work shipping) —
    but forking a multi-threaded parent is undefined behaviour waiting
    to happen (the child inherits locks mid-acquisition), and the async
    job server's parent *always* holds threads.  So:

    * ``REPRO_MP_START`` overrides everything (``fork`` / ``forkserver``
      / ``spawn``);
    * with threads active (``threading.active_count() > 1``) the context
      prefers ``forkserver`` — workers then fork from a clean
      single-threaded template process, at the cost of pickling the
      ``Process`` arguments;
    * the single-threaded batch path keeps plain ``fork``, so the
      determinism tests and the inheritance-based work shipping are
      unchanged.
    """
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_MP_START")
    if override:
        if override not in methods:
            raise ValueError(
                "REPRO_MP_START={!r} is not available here "
                "(choices: {})".format(override, ", ".join(methods))
            )
        return multiprocessing.get_context(override)
    if "fork" in methods:
        if threading.active_count() > 1 and "forkserver" in methods:
            return multiprocessing.get_context("forkserver")
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per *available*
    CPU.

    ``os.cpu_count()`` reports the machine; under a cgroup quota or
    ``taskset`` mask (the containerised deployments the job server
    targets) the scheduler affinity is the real allowance, so it wins
    when the platform exposes it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class CancelToken:
    """Worker-side cancel signal for one unit: set exactly when the
    parent wrote this unit's id into its slot's cancel flag.  Any object
    with ``is_set()`` satisfies the cooperative cancel protocol of
    :func:`repro.portfolio.backends.sliced_solve`, so a cancel lands
    within one conflict."""

    __slots__ = ("_flags", "_slot", "_unit_id")

    def __init__(self, flags, slot: int, unit_id: int):
        self._flags = flags
        self._slot = slot
        self._unit_id = unit_id

    def is_set(self) -> bool:
        return self._flags[self._slot] == self._unit_id


def _outcome(run, payload, cancel=None, progress=None):
    """Run one unit; exceptions become an ``("error", (kind, message))``
    outcome instead of escaping, so a raising unit never costs its
    worker."""
    try:
        return "result", run(payload, cancel=cancel, progress=progress)
    except Exception as exc:
        return "error", (type(exc).__name__, str(exc))


def _slot_main(slot, conn, started, cancel_flags, run):
    """Worker loop: receive ``(unit_id, payload)``, raise the started
    flag, run, send the outcome; ``None`` (or a closed pipe) stops it.
    The inherited heap is frozen first (see the module docstring)."""
    gc.freeze()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        unit_id, payload = message
        started[slot] = unit_id
        conn.send(("started", unit_id, None))

        def progress(*event, _uid=unit_id):
            conn.send(("progress", _uid, event))

        kind, value = _outcome(
            run, payload, CancelToken(cancel_flags, slot, unit_id), progress
        )
        try:
            conn.send((kind, unit_id, value))
        except Exception as exc:  # an unpicklable result fails its unit
            conn.send(("error", unit_id, (type(exc).__name__, str(exc))))


class WorkerSlots:
    """A fixed number of worker slots, driven from one parent thread.

    ``run(payload, cancel=, progress=)`` is the unit function every
    worker executes (``progress(*event)`` posts a progress event); it
    reaches the workers as a ``Process`` argument.
    :meth:`events` is the only place the parent reads worker traffic and
    applies the death rule; ``daemon`` workers (the long-lived service
    pool) die with their parent, non-daemon ones (batches) may fan out
    again themselves.
    """

    def __init__(self, n: int, run, daemon: bool = False):
        self._ctx = mp_context()
        self._run = run
        self._daemon = daemon
        self._started = self._ctx.Array("q", n, lock=False)
        self._cancel = self._ctx.Array("q", n, lock=False)
        self.busy: List[Optional[int]] = [None] * n
        self.procs: List = [None] * n
        self._conns: List = [None] * n
        self._dispatches = {}
        self.respawns = 0
        try:
            for slot in range(n):
                self._spawn(slot)
        except BaseException:  # e.g. fork failing: stop what did start
            self.close(0.0)
            raise

    def _spawn(self, slot: int) -> None:
        self._started[slot] = IDLE
        self._cancel[slot] = IDLE
        parent_end, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_slot_main,
            args=(slot, child_end, self._started, self._cancel, self._run),
            name="repro-worker-{}".format(slot),
            daemon=self._daemon,
        )
        proc.start()
        child_end.close()
        self.procs[slot] = proc
        self._conns[slot] = parent_end
        self.busy[slot] = None

    def idle(self) -> List[int]:
        return [s for s, unit in enumerate(self.busy) if unit is None]

    def running(self) -> bool:
        return any(unit is not None for unit in self.busy)

    def dispatch(self, slot: int, unit_id: int, payload) -> None:
        """Hand one unit to an idle slot.  A pipe broken by a worker that
        just died is left to the death rule in :meth:`events`."""
        self.busy[slot] = unit_id
        self._dispatches[unit_id] = self._dispatches.get(unit_id, 0) + 1
        try:
            self._conns[slot].send((unit_id, payload))
        except OSError:
            pass

    def cancel(self, slot: int, unit_id: int) -> None:
        """Ask the slot to abandon ``unit_id`` (a no-op once it moved on)."""
        self._cancel[slot] = unit_id

    def cancel_running(self) -> None:
        for slot, unit_id in enumerate(self.busy):
            if unit_id is not None:
                self._cancel[slot] = unit_id

    def events(self, timeout: Optional[float] = None, extra: Sequence = ()):
        """Wait up to ``timeout`` for worker traffic (or for one of the
        ``extra`` waitables) and return ``(kind, unit_id, payload)``
        events in arrival order.

        Kinds: ``started``, ``progress``, ``result``, ``error`` (payload
        ``(kind, message)``; ``worker-died`` for a death) and
        ``requeue`` (dispatched to a slot that died before starting it —
        the caller hands it out again).
        """
        by_sentinel = {p.sentinel: s for s, p in enumerate(self.procs)}
        by_conn = {c: s for s, c in enumerate(self._conns)}
        ready = wait(list(by_conn) + list(by_sentinel) + list(extra), timeout)
        out = []
        dead = set()
        for obj in ready:
            if obj in by_conn:
                slot = by_conn[obj]
                if not self._drain(slot, out):
                    dead.add(slot)
            elif obj in by_sentinel:
                dead.add(by_sentinel[obj])
        for slot in sorted(dead):
            self._drain(slot, out)
            unit_id = self.busy[slot]
            if unit_id is not None:
                if self._started[slot] == unit_id:
                    out.append(("error", unit_id, (
                        "worker-died", "worker process died running the unit"
                    )))
                    self._dispatches.pop(unit_id, None)
                elif self._dispatches.get(unit_id, 0) >= MAX_DISPATCHES:
                    out.append(("error", unit_id, (
                        "worker-died",
                        "{} workers died before starting the unit".format(
                            self._dispatches.pop(unit_id)),
                    )))
                else:
                    out.append(("requeue", unit_id, None))
            self._conns[slot].close()
            self.procs[slot].kill()  # a no-op for the dead; reaps below
            self.procs[slot].join()
            self._spawn(slot)
            self.respawns += 1
        return out

    def _drain(self, slot: int, out: list) -> bool:
        """Deliver every complete event waiting in one slot's pipe; False
        once the pipe reports its worker gone (EOF, or a message cut off
        mid-write)."""
        conn = self._conns[slot]
        try:
            while conn.poll():
                kind, unit_id, payload = conn.recv()
                if kind in ("result", "error") and self.busy[slot] == unit_id:
                    self.busy[slot] = None
                    self._dispatches.pop(unit_id, None)
                out.append((kind, unit_id, payload))
        except (EOFError, OSError):
            return False
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker: a polite ``None``, then terminate whatever
        is still running after ``timeout`` (running units are abandoned)."""
        conns = [c for c in self._conns if c is not None]
        for conn in conns:
            try:
                conn.send(None)
            except OSError:
                pass
        end = time.monotonic() + timeout
        for proc in filter(None, self.procs):
            proc.join(max(0.0, end - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for conn in conns:
            conn.close()


@dataclass
class BatchItemError:
    """A captured per-item failure, returned in the item's result slot.

    ``kind`` is the exception class name (``"ValueError"``,
    ``"worker-died"`` when the worker process itself was lost), ``error``
    the formatted message, ``seconds`` the wall time from dispatch until
    the failure arrived.  Consumers decide policy: degrade the item,
    re-raise, or report.
    """

    index: int
    kind: str
    error: str
    seconds: float = 0.0


#: The running item's cancel token, as seen by the item function.
_ITEM_CANCEL: ContextVar = ContextVar("batch_cancel", default=None)


def batch_cancel():
    """The cancel token of the item being run, as seen from the item
    function; ``None`` on the in-process path, where nothing runs
    concurrently that could ask for a cancel."""
    return _ITEM_CANCEL.get()


class _MapUnit:
    """The unit function of one batch: item index in, ``fn(item)`` out."""

    def __init__(self, fn, items):
        self.fn = fn
        self.items = items

    def __call__(self, index, cancel=None, progress=None):
        token = _ITEM_CANCEL.set(cancel)
        try:
            return self.fn(self.items[index])
        finally:
            _ITEM_CANCEL.reset(token)


class BatchScheduler:
    """Run ``fn`` over many items with at most ``jobs`` worker processes.

    ``jobs=1`` (or a single item) runs the items in-process, in order —
    bit-for-bit the sequential path, used by the determinism tests.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        stop_when: Optional[Callable[[R], bool]] = None,
    ) -> List[R]:
        """``[fn(item) for item in items]`` over the pool, in item order.

        A raising item (or one whose worker dies) yields a
        :class:`BatchItemError` in its slot instead of aborting the
        batch.  ``stop_when(result)`` is called once on every other
        result, in completion order; the first true return stops the
        batch: running items are cancelled through their slot flag
        (item functions see it via :func:`batch_cancel`) and items not
        yet started never run — their slots stay ``None``.
        """
        unit = _MapUnit(fn, list(items))
        results: List = [None] * len(unit.items)
        stopped = False

        def collect(index, kind, value, seconds=0.0) -> bool:
            """Store one outcome; True when it is the one that stops."""
            nonlocal stopped
            if kind == "error":
                results[index] = BatchItemError(index, *value, seconds=seconds)
                return False
            results[index] = value
            hit = bool(stop_when and stop_when(value)) and not stopped
            stopped = stopped or hit
            return hit

        if self.jobs == 1 or len(results) <= 1:
            for i in range(len(results)):
                if stopped:
                    break
                collect(i, *_outcome(unit, i))
            return results

        slots = WorkerSlots(min(self.jobs, len(results)), unit)
        pending = deque(range(len(results)))
        sent = [0.0] * len(results)
        try:
            while True:
                if stopped:
                    pending.clear()
                for slot in slots.idle():
                    if not pending:
                        break
                    i = pending.popleft()
                    sent[i] = time.monotonic()
                    slots.dispatch(slot, i + 1, i)
                if not slots.running():
                    break
                for kind, unit_id, payload in slots.events():
                    i = unit_id - 1
                    if kind == "requeue":
                        pending.appendleft(i)
                    elif kind in ("result", "error"):
                        if collect(i, kind, payload,
                                   time.monotonic() - sent[i]):
                            slots.cancel_running()
        finally:
            slots.close()
        return results
