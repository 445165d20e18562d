"""The wire protocol: newline-delimited JSON over a plain socket.

Deliberately HTTP-free — the service is a solver, not a web app, and
JSON-lines keeps both sides to the stdlib.  Every message is one JSON
object on one line, UTF-8, ``\\n``-terminated.

Client → server requests carry an ``op``:

* ``{"op": "submit", "req": <client tag>, "fmt": "anf"|"dimacs",
  "text": "...", ...}`` — queue a job.  Optional fields mirror
  :class:`repro.server.jobs.JobSpec`: ``preprocess``, ``solve``,
  ``backend``, ``conflict_budget``, ``timeout_s``, ``config``,
  ``trace`` (record the job's span tree; it comes back in the
  ``result`` event's ``spans`` list).  The ``req`` tag (any JSON value)
  is echoed in the ``accepted`` event so a pipelining client can
  correlate.
* ``{"op": "cancel", "job": <id>}`` — cooperative cancellation.
* ``{"op": "ping"}`` / ``{"op": "stats"}`` — liveness / pool counters
  (including the pool's merged ``metrics`` snapshot).  Each ``stats``
  request gets exactly one ``stats`` event; other fields are ignored.

Server → client events carry an ``event``:

* ``accepted`` — ``{"event": "accepted", "job": <id>, "req": <tag>}``;
* ``progress`` — per-stage job progress (``stage`` plus stage payload);
* ``result`` — terminal: the :func:`~repro.server.jobs.execute_job`
  result dict (``verdict``, ``model``, ``stats``, ``cnf_sha256``, ...);
* ``error`` — terminal for a job (``job`` set) or a protocol-level
  complaint (``job`` absent);
* ``pong`` / ``stats`` — replies to the health ops.

Per connection, events are strictly ordered; a job emits its
``accepted``, then zero or more ``progress``, then exactly one
``result`` or ``error``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from .jobs import JobSpec


class ProtocolError(ValueError):
    """A malformed or invalid protocol message."""


#: ``submit`` fields forwarded verbatim into :class:`JobSpec`.
_SPEC_FIELDS = (
    "fmt",
    "text",
    "preprocess",
    "solve",
    "backend",
    "conflict_budget",
    "timeout_s",
    "config",
    "trace",
)

#: Request operations a server understands.
OPS = ("submit", "cancel", "ping", "stats")


def encode(message: Dict[str, object]) -> bytes:
    """One message, wire-ready: compact JSON + newline."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad JSON line: {}".format(exc))
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def parse_request(message: Dict[str, object]) -> str:
    """Validate a client request's ``op``; returns it."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            "unknown op {!r} (choices: {})".format(op, ", ".join(OPS))
        )
    if op == "cancel" and not isinstance(message.get("job"), int):
        raise ProtocolError("cancel needs an integer 'job' id")
    return op


def job_spec_from_request(message: Dict[str, object]) -> JobSpec:
    """Build a (validated) :class:`JobSpec` from a ``submit`` request."""
    kwargs = {}
    for name in _SPEC_FIELDS:
        if name in message:
            kwargs[name] = message[name]
    config = kwargs.get("config", {})
    if not isinstance(config, dict):
        raise ProtocolError("'config' must be an object")
    try:
        spec = JobSpec(**kwargs)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc))
    return spec


def event(kind: str, job: Optional[int] = None, **fields) -> Dict[str, object]:
    """Build a server event message."""
    message: Dict[str, object] = {"event": kind}
    if job is not None:
        message["job"] = job
    message.update(fields)
    return message
