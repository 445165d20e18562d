"""Structured tracing: hierarchical spans over the whole solving stack.

A :class:`Tracer` collects spans — named, attributed regions timed with
``time.monotonic()`` (DET-RNG: never wall clock) — as plain picklable
dicts.  Parentage is implicit: entering a span pushes it on a per-thread
stack, so nested ``with tracer.span(...)`` blocks build the tree without
any caller bookkeeping.

The fork boundary follows the repo's standing pattern (FORK-SAFETY):
tracers are instance-threaded, never module-global.  A fan-out worker
builds no tracer: it returns each cube's measured ``time.monotonic()``
window and its pid with the result, and the parent records the cube's
span from them under the span open there (:mod:`repro.portfolio.engine`).
A server job builds its own tracer in the worker and returns its finished
span dicts with the result, where they are concatenated, never merged.
Span ids embed the pid, a per-process tracer instance number and a
sequence number, which keeps ids unique across every process of a run
without any shared state.  ``time.monotonic()`` is system-wide on Linux,
so worker timestamps align with the parent's and the stitched timeline is
directly comparable.

The default everywhere is the zero-overhead :data:`NULL_TRACER`: its
``span()`` returns a shared inert object, so disabled tracing costs one
attribute lookup and a no-op call per instrumentation point.  Spans
never alter solver control flow — ``__exit__`` always returns False.

Export formats: JSON lines (one span dict per line) and the Chrome
``trace_event`` format, which opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "write_jsonl",
    "write_chrome_trace",
    "export_trace",
]

#: Per-process tracer instance numbers.  A plain counter, not an RNG and
#: not fork-shared state: a forked child re-counts from the inherited
#: value, but its pid disambiguates every id it mints.
_INSTANCE_IDS = itertools.count(1)


class Span:
    """One timed, attributed region.  Use as a context manager."""

    __slots__ = ("data", "_tracer")

    def __init__(self, tracer: "Tracer", data: Dict[str, Any]):
        self._tracer = tracer
        self.data = data

    @property
    def id(self) -> Optional[str]:
        return self.data["id"]

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the live span."""
        self.data["attrs"][key] = value

    def add(self, key: str, value) -> None:
        """Accumulate into a numeric attribute (starting from 0)."""
        attrs = self.data["attrs"]
        attrs[key] = attrs.get(key, 0) + value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self)
        return False  # spans never swallow exceptions / alter control flow


class Tracer:
    """Collects hierarchical spans into picklable plain dicts.

    Instance-threaded by design: create one per process (per run) and
    pass it down the call chain; the module never holds one.
    """

    enabled = True

    def __init__(self) -> None:
        pid = os.getpid()
        self._pid = pid
        self._prefix = "{}.{}".format(pid, next(_INSTANCE_IDS))
        self._seq = itertools.count(1)
        # Per-thread open-span stack: parentage must not leak across the
        # server's worker threads.  Created here, never at import time.
        self._local = threading.local()
        self._spans: List[Dict[str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; finishes (and records) when the ``with`` exits."""
        span_id = "{}-{}".format(self._prefix, next(self._seq))
        stack = self._stack()
        data = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "t0": time.monotonic(),
            "dur": 0.0,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "attrs": dict(attrs),
        }
        stack.append(span_id)
        return Span(self, data)

    def _finish(self, span: Span) -> None:
        data = span.data
        data["dur"] = time.monotonic() - data["t0"]
        stack = self._stack()
        if stack and stack[-1] == data["id"]:
            stack.pop()
        elif data["id"] in stack:
            # Out-of-order exit (an inner span leaked): unwind to it so
            # parentage self-heals instead of corrupting later spans.
            del stack[stack.index(data["id"]) :]
        self._spans.append(data)

    # -- reading --------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        """Finished spans, oldest exit first (plain picklable dicts)."""
        return list(self._spans)

    def export(self, path: str) -> None:
        """Write the collected spans to ``path`` (format by suffix)."""
        export_trace(self.spans(), path)


class _NullSpan:
    """Inert span: every operation is a no-op."""

    __slots__ = ()
    id = None

    def set(self, key: str, value: Any) -> None:
        pass

    def add(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: the default at every instrumentation point."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> List[Dict[str, Any]]:
        return []

    def export(self, path: str) -> None:
        pass


#: Shared inert singleton — immutable (``__slots__ = ()``), so sharing
#: one instance process-wide is fork-safe by construction.
NULL_TRACER = NullTracer()


# -- exporters ----------------------------------------------------------------


def write_jsonl(spans: Iterable[Dict[str, Any]], path: str) -> None:
    """One span dict per line; the raw machine-readable form."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True, default=str))
            fh.write("\n")


def write_chrome_trace(spans: Iterable[Dict[str, Any]], path: str) -> None:
    """Chrome ``trace_event`` JSON: open in chrome://tracing or Perfetto.

    Spans become complete ("X") events; monotonic seconds become the
    format's microsecond timestamps.  Span id and parent ride in
    ``args`` so the tree is recoverable from the viewer's detail pane.
    """
    events = []
    for span in spans:
        args = dict(span.get("attrs") or {})
        args["span_id"] = span["id"]
        if span.get("parent"):
            args["parent"] = span["parent"]
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["t0"] * 1e6,
                "dur": span["dur"] * 1e6,
                "pid": span.get("pid", 0),
                "tid": span.get("tid", 0),
                "args": args,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"}, fh, default=str
        )


def export_trace(spans: Iterable[Dict[str, Any]], path: str) -> None:
    """Dispatch by suffix: ``.jsonl`` → JSON lines, else Chrome trace."""
    if path.endswith(".jsonl"):
        write_jsonl(spans, path)
    else:
        write_chrome_trace(spans, path)
