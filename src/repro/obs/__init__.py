"""repro.obs — structured tracing + metrics for the solving stack.

Three pieces:

* :mod:`repro.obs.trace` — hierarchical spans (monotonic clocks only)
  with a zero-overhead no-op default and JSON-lines / Chrome
  ``trace_event`` export;
* :mod:`repro.obs.metrics` — instance-threaded counters and duration
  histograms; a server job's snapshot merges into the pool's;
* :mod:`repro.obs.schema` — the frozen ``result.stats`` key schema and
  the span-dict validator.

Standing invariants (ROADMAP): no module-global tracer or registry
(FORK-SAFETY), ``time.monotonic()`` only (DET-RNG), spans never alter
solver control flow, and nothing crosses a process boundary but plain
data: a fan-out worker returns each cube's measured window and pid and
the parent records the cube's span; a server job returns its span dicts
and a metrics snapshot.
"""

from .metrics import MetricsRegistry
from .schema import (
    SPAN_KEYS,
    STATS_KEYS,
    STATS_SCHEMA,
    TECHNIQUE_KEYS,
    TECHNIQUE_SCHEMA,
    undeclared_stats_keys,
    validate_span,
    validate_spans,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    export_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "export_trace",
    "write_chrome_trace",
    "write_jsonl",
    "SPAN_KEYS",
    "STATS_KEYS",
    "STATS_SCHEMA",
    "TECHNIQUE_KEYS",
    "TECHNIQUE_SCHEMA",
    "undeclared_stats_keys",
    "validate_span",
    "validate_spans",
]
