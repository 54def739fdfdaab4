"""Span recording: timed intervals with transaction and site identity.

A span is one timed occurrence of a primitive — an IPC delivery, a
datagram transit, a log force, a lock wait — tagged with the site it
charges and, when known, the transaction it serves.  The recorder is
:class:`~repro.sim.tracing.Tracer`: a system's tracer forwards every
span hook to the recorder attached with ``attach_obs`` and returns at
once when none is, so instrumentation costs one call in ordinary runs.

Three recording shapes cover every call site:

- ``add`` for intervals whose duration is known at emission time (IPC
  latency, LAN arrival time are computed before the delivery is
  posted);
- ``begin`` / ``end`` bracketing generator-based work (a log force
  through the batcher);
- ``instant`` for point events (locks dropped).

``SpanRecorder(keep=False)`` is a counter: per-kind span counts stay
exact, no Span objects are retained — the CLI's count-only mode, whose
cost the benchmark gate bounds.
"""

from repro.sim.tracing import Span, Tracer, tid_of

# The sink is the system's recorder class; the name stays for callers.
SpanRecorder = Tracer

__all__ = ["Span", "SpanRecorder", "tid_of"]
