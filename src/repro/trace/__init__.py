"""Execution tracing (simulator-side hardware event probes)."""

from repro.trace.tracer import ALL_KINDS, TraceEvent, Tracer

__all__ = ["ALL_KINDS", "TraceEvent", "Tracer"]
