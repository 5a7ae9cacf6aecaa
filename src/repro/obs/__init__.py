"""Observability for the SPMD runtime: span tracing, exporters, postmortems.

The pieces, bottom-up:

* :mod:`repro.obs.tracer` — per-rank, nestable, thread-safe span
  recording with ~zero overhead when disabled; every layer of the stack
  (communicator collectives, distributed kernels, LAPACK-backed local
  kernels, the parallel drivers) carries hooks that find the active
  tracer through a thread-local.
* :mod:`repro.obs.export` — Chrome trace-event JSON (one track per
  rank, loads in ``chrome://tracing`` / Perfetto), per-rank phase
  tables, and the load-imbalance report.
* :mod:`repro.obs.compare` — diffs measured span totals against the
  α-β-γ performance model so model drift is visible per phase.
* :mod:`repro.obs.recorder` — always-on bounded per-rank flight
  recorder (``run_spmd(recorder=FlightRecorder())``): p2p/collective
  events, kernel entry/exit, faults, checkpoint saves.
* :mod:`repro.obs.postmortem` — crash postmortem bundles (last-N events
  per rank, span stacks, in-flight messages, heartbeat ages, fault
  trace) written by the launcher when a world dies; rendered by
  ``repro postmortem``.

Quickstart::

    from repro.obs import Tracer, write_chrome_trace
    tracer = Tracer()
    run_spmd(program, 4, tracer=tracer)
    write_chrome_trace(tracer, "trace.json")

Every name here loads its module on first use.  The hooks every layer
calls — :func:`trace_span`, :func:`current_tracer` and the rank scope
with its one event door — live in :mod:`repro.obs._hook`, which the
kernels import themselves (``from ..obs._hook import trace_span``), so a
kernel that asks "is anyone tracing?" loads neither the tracer nor the
recorder that would answer.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "._hook": ("current_tracer", "record_event", "trace_span"),
    ".recorder": ("FlightRecorder", "current_recorder"),
    ".tracer": ("Span", "Tracer", "activate", "deactivate"),
    ".postmortem": ("POSTMORTEM_SCHEMA", "build_postmortem",
                    "load_postmortem", "render_postmortem",
                    "write_postmortem"),
    ".export": ("chrome_trace", "write_chrome_trace", "phase_table",
                "imbalance_summary", "imbalance_table"),
    ".compare": ("measured_phase_seconds", "model_diff", "model_diff_table",
                 "modeled_run"),
})

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "deactivate",
    "current_tracer",
    "trace_span",
    "FlightRecorder",
    "current_recorder",
    "record_event",
    "POSTMORTEM_SCHEMA",
    "build_postmortem",
    "load_postmortem",
    "render_postmortem",
    "write_postmortem",
    "chrome_trace",
    "write_chrome_trace",
    "phase_table",
    "imbalance_summary",
    "imbalance_table",
    "measured_phase_seconds",
    "model_diff",
    "model_diff_table",
    "modeled_run",
]
