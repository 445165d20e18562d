"""Submit a WorkerPool job and block for its terminal event, for tests."""

import threading


def submit(pool, spec, on_event=None):
    """Submit ``spec`` to ``pool``; returns ``(job_id, wait)``.

    ``wait(timeout)`` blocks for the job's terminal event and returns its
    result dict (``{"verdict": "error", "error": message}`` for an
    ``error`` event), or None on timeout.  ``on_event``, if given, sees
    every event first.
    """
    done = threading.Event()
    terminal = []

    def record(kind, payload):
        if on_event is not None:
            on_event(kind, payload)
        if kind == "progress":
            return
        if kind == "error":
            payload = {"verdict": "error", "error": payload}
        terminal.append(payload)
        done.set()

    job_id = pool.submit(spec, record)
    return job_id, lambda timeout=None: (
        terminal[0] if done.wait(timeout) else None
    )
