"""Metrics: counters and duration histograms.

A :class:`MetricsRegistry` is **instance-threaded, never module-global**
(FORK-SAFETY): the owner of a run creates one and passes it down.  A
server job accumulates into its own registry in the worker; its
:meth:`~MetricsRegistry.snapshot` rides the job's result back to the
pool, where :meth:`~MetricsRegistry.merge` folds it in at the result
boundary.

Snapshots are plain JSON-serialisable dicts, so they cross both the
pickle boundary (the worker pipes) and the server's
JSON-lines protocol unchanged.  Durations are measured with
``time.monotonic()`` only (DET-RNG).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Union

__all__ = ["MetricsRegistry"]


class _Timer:
    """Context manager recording one duration observation."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._registry.observe(self._name, time.monotonic() - self._t0)
        return False


class MetricsRegistry:
    """Counters and duration histograms for one run/process."""

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Union[int, float]] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}

    # -- counters -------------------------------------------------------------

    def inc(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` to the named counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> Union[int, float]:
        return self._counters.get(name, 0)

    # -- histograms -----------------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the named histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            self._histograms[name] = {
                "count": 1,
                "sum": seconds,
                "min": seconds,
                "max": seconds,
            }
            return
        hist["count"] += 1
        hist["sum"] += seconds
        if seconds < hist["min"]:
            hist["min"] = seconds
        if seconds > hist["max"]:
            hist["max"] = seconds

    def timer(self, name: str) -> _Timer:
        """``with registry.timer("phase"):`` records the block duration."""
        return _Timer(self, name)

    # -- shipping -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view: picklable and JSON-serialisable."""
        return {
            "counters": dict(self._counters),
            "histograms": {k: dict(v) for k, v in self._histograms.items()},
        }

    def merge(
        self, other: Optional[Union["MetricsRegistry", Dict[str, Any]]]
    ) -> None:
        """Fold a snapshot (or another registry) into this one.

        Counters add, histograms combine count/sum/min/max.  ``None`` merges as empty, so callers can
        pass ``result.get("metrics")`` unguarded.
        """
        if other is None:
            return
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, value in (other.get("counters") or {}).items():
            self.inc(name, value)
        for name, hist in (other.get("histograms") or {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(hist)
                continue
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            if hist["min"] < mine["min"]:
                mine["min"] = hist["min"]
            if hist["max"] > mine["max"]:
                mine["max"] = hist["max"]
