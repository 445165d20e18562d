"""The long-lived worker pool behind the solver service.

:class:`WorkerPool` runs server jobs on the same
:class:`~repro.portfolio.batch.WorkerSlots` as every other fan-out —
one process per slot with its own duplex pipe, a started flag and a
cancel flag — and adds what a service needs on top:

* **submission by message** — jobs arrive over time, so whole
  (picklable) :class:`~repro.server.jobs.JobSpec` objects go down the
  pipe of the next idle slot; nothing is shipped at fork time;
* **per-job cooperative cancellation** — :meth:`WorkerPool.cancel`
  writes the job's id into its slot's cancel flag; the worker-side
  :class:`~repro.portfolio.batch.CancelToken` plugs into the
  solver's per-conflict cancel check, so a cancel lands within one
  conflict;
* **per-job deadlines** — measured from job *start*; a job that outlives
  ``timeout_s`` is cancelled the same way and reported as ``timeout``;
* **the one death rule** of the slots — a job whose worker dies mid-run
  fails with ``worker-died``, one dispatched to a dying worker but never
  started is requeued, the slot respawns and keeps serving.

One parent thread drives the slots: it waits on the pipes, the process
sentinels and a wake-up pipe (poked by :meth:`submit` and
:meth:`close`), dispatches, sweeps deadlines and calls the per-job
``on_event`` callbacks — the asyncio front end (:mod:`repro.server.app`)
bridges those onto the event loop.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, Optional

from ..obs import MetricsRegistry
from ..portfolio.batch import WorkerSlots, default_jobs
from .jobs import JobSpec, execute_job

#: Deadline sweep period (deadline resolution), seconds.
SWEEP_INTERVAL_S = 0.05


@dataclass
class _JobState:
    """Parent-side bookkeeping for one submitted job.

    ``state`` walks ``queued`` (waiting for a free slot) →
    ``dispatched`` (sent to a slot, not yet picked up) → ``running`` →
    ``done``."""

    spec: JobSpec
    on_event: Optional[Callable[[str, object], None]] = None
    state: str = "queued"
    worker: Optional[int] = None
    deadline: Optional[float] = None
    cancel_requested: bool = False
    timed_out: bool = False
    result: Optional[Dict[str, object]] = None
    done: threading.Event = field(default_factory=threading.Event)


class WorkerPool:
    """A persistent pool of daemon solver workers.

    ``jobs`` is the worker count (defaults to the CPU affinity mask via
    :func:`repro.portfolio.batch.default_jobs`); ``cache_dir`` is handed
    to every worker so all jobs share one persistent conversion cache.
    The start method follows :func:`repro.portfolio.batch.mp_context`,
    including its ``REPRO_MP_START`` override.

    Use as a context manager, or call :meth:`close` — workers are
    daemonic either way, so a dying parent never leaks them.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ):
        self.n_workers = jobs if jobs is not None else default_jobs()
        if self.n_workers < 1:
            raise ValueError("need at least one worker")
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._jobs: Dict[int, _JobState] = {}
        self._pending: Deque[int] = deque()
        self._next_id = 1
        self._closed = False
        self._completed = 0
        self._failed = 0
        # Service-wide metrics: every finished job's worker-side
        # registry snapshot (riding the result dict across the pickle
        # boundary, like the rest of its payload) merges here — the
        # standing fork-boundary pattern.  Instance-threaded, guarded by
        # the pool lock.
        self.metrics = MetricsRegistry()
        self._slots = WorkerSlots(
            self.n_workers, partial(execute_job, cache_dir=cache_dir),
            daemon=True,
        )
        self._wake_r, self._wake_w = os.pipe()
        for fd in (self._wake_r, self._wake_w):
            os.set_blocking(fd, False)
        self._thread = threading.Thread(
            target=self._serve, name="pool-serve", daemon=True
        )
        self._thread.start()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs, stop the serving thread, shut workers down.

        Jobs still running are abandoned (their workers are terminated
        after ``timeout``); waiters on them stay unresolved, so drain
        the pool first if their results matter.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake()
        self._thread.join(timeout=timeout)
        self._slots.close(timeout)
        os.close(self._wake_r)
        os.close(self._wake_w)

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:  # already poked, not yet drained
            pass

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        on_event: Optional[Callable[[str, object], None]] = None,
    ) -> int:
        """Queue a job; returns its (pool-assigned, non-zero) job id.

        ``on_event(kind, payload)`` — called from the pool's serving
        thread — receives ``("progress", dict)`` events then one terminal
        ``("result", dict)`` or ``("error", str)``.
        """
        spec.validate()
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            job_id = self._next_id
            self._next_id += 1
            spec.job_id = job_id
            self._jobs[job_id] = _JobState(spec=spec, on_event=on_event)
            self._pending.append(job_id)
        self._wake()
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Request cooperative cancellation of a job.

        Running jobs get their slot's cancel flag set and stop within one
        conflict; jobs still waiting for a worker resolve to a
        ``cancelled`` verdict immediately.  Returns False for
        unknown/finished jobs.
        """
        with self._lock:
            st = self._jobs.get(job_id)
            if st is None or st.state == "done":
                return False
            st.cancel_requested = True
            if st.state != "queued":
                self._slots.cancel(st.worker, job_id)
                return True
            self._pending.remove(job_id)
        self._finish(
            st,
            {"job_id": job_id, "verdict": "cancelled", "model": None,
             "stats": {}, "seconds": 0.0},
        )
        return True

    def wait(
        self, job_id: int, timeout: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """Block until the job finishes; returns its result dict (an
        ``error`` verdict dict for failed jobs), or None on timeout."""
        with self._lock:
            st = self._jobs.get(job_id)
        if st is None:
            raise KeyError("unknown job id {}".format(job_id))
        if not st.done.wait(timeout=timeout):
            return None
        return st.result

    def stats(self) -> Dict[str, object]:
        with self._lock:
            states = [st.state for st in self._jobs.values()]
            return {
                "workers": self.n_workers,
                "alive": sum(1 for p in self._slots.procs if p.is_alive()),
                "respawns": self._slots.respawns,
                "queued": states.count("queued"),
                "dispatched": states.count("dispatched"),
                "running": states.count("running"),
                "done": states.count("done"),
                "completed": self._completed,
                "failed": self._failed,
                "metrics": self.metrics.snapshot(),
            }

    # -- the serving thread ---------------------------------------------------

    def _serve(self) -> None:
        """Dispatch, sweep deadlines, and turn slot events into job
        state until :meth:`close`."""
        while True:
            with self._lock:
                if self._closed:
                    return
                self._dispatch_locked()
                self._sweep_locked()
            events = self._slots.events(SWEEP_INTERVAL_S, [self._wake_r])
            try:
                os.read(self._wake_r, 4096)
            except BlockingIOError:
                pass
            for kind, job_id, payload in events:
                self._on_slot_event(kind, job_id, payload)

    def _dispatch_locked(self) -> None:
        """Hand pending jobs to idle slots; caller holds the lock."""
        for slot in self._slots.idle():
            while self._pending:
                st = self._jobs[self._pending.popleft()]
                if st.state != "queued":
                    # A stale requeue of a job that since resolved.
                    continue
                st.state = "dispatched"
                st.worker = slot
                self._slots.dispatch(slot, st.spec.job_id, st.spec)
                if st.cancel_requested:
                    self._slots.cancel(slot, st.spec.job_id)
                break

    def _sweep_locked(self) -> None:
        """Cancel running jobs past their deadline; caller holds the lock."""
        now = time.monotonic()
        for st in self._jobs.values():
            if (
                st.state == "running"
                and st.deadline is not None
                and not st.timed_out
                and now >= st.deadline
            ):
                st.timed_out = True
                self._slots.cancel(st.worker, st.spec.job_id)

    def _on_slot_event(self, kind: str, job_id: int, payload) -> None:
        with self._lock:
            st = self._jobs.get(job_id)
            if st is None or st.state == "done":
                return
            if kind == "started":
                st.state = "running"
                if st.spec.timeout_s is not None:
                    st.deadline = time.monotonic() + st.spec.timeout_s
                return
            if kind == "requeue":
                st.state = "queued"
                st.worker = None
                self._pending.appendleft(job_id)
                return
        if kind == "progress":
            stage, data = payload
            self._notify(st, "progress", {"stage": stage, **data})
        elif kind == "result":
            if st.timed_out and payload.get("verdict") == "cancelled":
                payload["verdict"] = "timeout"
            self._finish(st, payload)
        elif kind == "error":
            self._finish(st, {
                "job_id": job_id,
                "verdict": "error",
                "error": "{}: {}".format(*payload),
            })

    def _finish(self, st: _JobState, result: Dict[str, object]) -> None:
        """Record a terminal result; caller must hold no lock."""
        with self._lock:
            if st.state == "done":
                return
            st.state = "done"
            st.result = result
            self.metrics.merge(result.get("metrics"))
            if result.get("verdict") == "error":
                self._failed += 1
            else:
                self._completed += 1
        if result.get("verdict") == "error":
            self._notify(st, "error", result.get("error"))
        else:
            self._notify(st, "result", result)
        st.done.set()

    @staticmethod
    def _notify(st: _JobState, kind: str, payload) -> None:
        if st.on_event is not None:
            try:
                st.on_event(kind, payload)
            except Exception:
                pass
