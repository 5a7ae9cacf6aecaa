"""Static analysis and runtime correctness checking for SPMD programs.

Two prongs, sharing the :class:`Diagnostic` vocabulary and one rule
book (:mod:`repro.sanitize.match`):

* **Runtime sanitizer** (:class:`Sanitizer`, activated via
  ``run_spmd(program, P, sanitize=True)``) — collective-matching
  verification, wait-for-graph deadlock detection, zero-copy
  move-semantics enforcement, and finalize-time message-leak reporting
  for live runs.  The failure modes that normally manifest as silent
  hangs or corrupted factor matrices become deterministic,
  rank-attributed exceptions carrying ``file:line`` call sites.
* **Whole-program verifier** (:func:`verify_paths` / the
  ``repro verify`` CLI) — the one static checker: an abstract
  interpreter that symbolically executes every communicator-taking
  driver once per rank and cross-matches the resulting communication
  traces, catching rank-divergent collectives hidden behind helper
  calls, moved buffers reused across function boundaries,
  constant-propagated tag mismatches, and receive cycles — MUST-style
  deadlock detection before the program runs.  It also emits a per-driver
  comm-graph artifact (DOT + JSON).

See ``docs/sanitizer.md`` for the full diagnostic catalogue and
overhead measurements, and ``docs/static-analysis.md`` for the
verifier's analysis model and soundness limits.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("ERROR", "WARNING", "CallSite", "Diagnostic",
                     "Suppressions", "capture_call_site", "format_diagnostics"),
    ".sanitizer": ("Sanitizer",),
    ".verify": ("EntryReport", "VerifyResult", "comm_graph_dot",
                "comm_graph_json", "default_verify_roots", "match_traces",
                "verify_paths", "verify_project", "write_comm_graph"),
})

__all__ = [
    "ERROR",
    "WARNING",
    "CallSite",
    "Diagnostic",
    "Suppressions",
    "capture_call_site",
    "format_diagnostics",
    "Sanitizer",
    "EntryReport",
    "VerifyResult",
    "comm_graph_dot",
    "comm_graph_json",
    "default_verify_roots",
    "match_traces",
    "verify_paths",
    "verify_project",
    "write_comm_graph",
]
