"""Runtime correctness checking for SPMD programs.

The :class:`Sanitizer` (activated via ``run_spmd(program, P,
sanitize=True)``) judges a live run with one rule book
(:mod:`repro.sanitize.match`): collective-matching verification,
wait-for-graph deadlock detection, zero-copy move-semantics enforcement,
and finalize-time message-leak reporting.  The failure modes that
normally manifest as silent hangs or corrupted factor matrices become
deterministic, rank-attributed exceptions carrying ``file:line`` call
sites, reported as :class:`Diagnostic` records.  It runs on every
backend and sees everything a driver sends, including the exchanges on
the fiber communicators that ``GridComms`` splits off.

See ``docs/sanitizer.md`` for the full diagnostic catalogue, overhead
measurements and what a live run cannot see.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("ERROR", "WARNING", "CallSite", "Diagnostic",
                     "Suppressions", "capture_call_site", "format_diagnostics"),
    ".sanitizer": ("Sanitizer",),
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
]
