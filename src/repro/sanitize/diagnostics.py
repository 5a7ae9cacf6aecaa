"""Diagnostic vocabulary for the SPMD sanitizer and the repository rules.

The runtime :class:`~repro.sanitize.Sanitizer` and the repository's own
rules (``tools/lint_repo.py``) report findings as :class:`Diagnostic`
records: a machine-checkable kind, a severity, an optional rank, and a
``file:line`` call site.  Tests assert on these
fields directly instead of pattern-matching exception text, and the CLI
renders them one per line in the classic compiler format::

    examples/foo.py:42: error[collective-mismatch] rank 0 calls bcast()
        (call #1) at examples/foo.py:42 but rank 1 never reaches ...

Call-site capture (:func:`capture_call_site`) walks the Python stack
outward past the runtime's own frames (``repro/mpi``, ``repro/sanitize``)
so a violation inside a nested collective algorithm is attributed to the
user (or :mod:`repro.dist`) code that invoked it, not to the runtime
internals.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

__all__ = [
    "ERROR",
    "WARNING",
    "CallSite",
    "Diagnostic",
    "Suppressions",
    "capture_call_site",
    "format_diagnostics",
]

ERROR = "error"
WARNING = "warning"

# Stack frames whose filename contains one of these fragments belong to
# the runtime itself and are skipped when attributing a call site.
_INTERNAL_PATH_FRAGMENTS = (
    os.path.join("repro", "mpi") + os.sep,
    os.path.join("repro", "sanitize") + os.sep,
    os.path.join("repro", "obs") + os.sep,
)


@dataclass(frozen=True)
class CallSite:
    """A resolved source location: file, line, enclosing function."""

    file: str
    line: int
    function: str = "?"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass(frozen=True)
class Diagnostic:
    """One sanitizer or repository-rule finding.

    ``kind`` is a stable machine-readable identifier (e.g.
    ``collective-mismatch``, ``use-after-move``, ``deadlock``,
    ``message-leak``, ``rank-failed``, ``tag-mismatch``).  ``rank`` is
    the world rank the finding is attributed to, or ``None`` when no one
    rank is to blame.
    """

    kind: str
    message: str
    severity: str = ERROR
    file: str | None = None
    line: int | None = None
    rank: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def location(self) -> str:
        """``file:line`` (or ``<unknown>`` when uncaptured)."""
        if self.file is None:
            return "<unknown>"
        return f"{self.file}:{self.line}"

    def __str__(self) -> str:
        where = self.location
        who = f" rank {self.rank}" if self.rank is not None else ""
        return f"{where}: {self.severity}[{self.kind}]{who}: {self.message}"


def capture_call_site(skip_internal: bool = True) -> CallSite | None:
    """The innermost stack frame outside the runtime's own modules.

    Returns ``None`` only when every frame is internal (e.g. unit tests
    poking runtime privates directly with ``skip_internal=True``).
    """
    frame = sys._getframe(1)
    fallback: CallSite | None = None
    while frame is not None:
        filename = frame.f_code.co_filename
        site = CallSite(filename, frame.f_lineno, frame.f_code.co_name)
        if fallback is None:
            fallback = site
        if not skip_internal:
            return site
        if not any(frag in filename for frag in _INTERNAL_PATH_FRAGMENTS):
            return site
        frame = frame.f_back
    return fallback


_SKIP_RE = re.compile(r"#\s*repro-lint:\s*skip\b")
_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\(([a-z0-9_,\- ]+)\)")


class Suppressions:
    """Per-line ``# repro-lint:`` pragmas of one source file.

    Read by the repository's own rules (``tools/lint_repo.py``):
    ``# repro-lint: skip`` silences every rule on its line,
    ``# repro-lint: allow(<kind>[, <kind>...])`` one or more specific
    kinds.  A finding is checked against its whole
    statement extent, so a pragma anywhere on a multi-line statement —
    the opening line or the closing-paren line — applies to findings
    reported at any line of that statement.
    """

    def __init__(self, source: str) -> None:
        self._skip: set[int] = set()
        self._allow: dict[int, set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            if _SKIP_RE.search(line):
                self._skip.add(lineno)
            m = _ALLOW_RE.search(line)
            if m:
                kinds = {k.strip() for k in m.group(1).split(",")}
                self._allow.setdefault(lineno, set()).update(kinds)

    def suppressed(self, kind: str, line: int,
                   end_line: int | None = None) -> bool:
        """True when a pragma covers ``kind`` anywhere in [line, end_line]."""
        hi = end_line if end_line is not None and end_line >= line else line
        for ln in range(line, hi + 1):
            if ln in self._skip or kind in self._allow.get(ln, ()):
                return True
        return False


def format_diagnostics(diagnostics, *, header: str | None = None) -> str:
    """Render diagnostics one per line, with an optional summary header."""
    lines = []
    if header:
        lines.append(header)
    lines.extend(str(d) for d in diagnostics)
    return "\n".join(lines)
