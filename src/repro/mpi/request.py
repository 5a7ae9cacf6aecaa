"""Nonblocking communication requests for the simulated MPI layer.

``isend`` completion means the payload has been *staged* out of the
sender's hands.  On the threads backend staging is a direct mailbox
append; on the process backends it is a write on the link to the
destination, done inline — either way send requests come back already
complete, except one whose write failed, whose :meth:`Request.test`
and :meth:`Request.wait` raise the failure.  ``irecv`` returns a
request whose :meth:`Request.wait` performs the blocking matched
receive; :meth:`Request.test` polls without blocking.  ``waitall``
completes a batch in order.

Repeatedly polling an incomplete request must not busy-spin: each
unsuccessful :meth:`Request.test` sleeps for a bounded, exponentially
growing interval (1 µs doubling to a 1 ms cap), so a ``while not
req.test()[0]`` loop costs microseconds of latency instead of a core.

These mirror the mpi4py idioms for user programs; the drivers use
blocking calls only.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from ..errors import CommunicatorError
from .transport.net import RetryPolicy

__all__ = ["Request", "waitall"]

# Bounded backoff for unsuccessful test() polls: start at 1 us, double
# to a 1 ms cap.  Keeps poll loops off the CPU without adding visible
# latency once the operation completes.  Polling has no retry budget,
# so only the delay schedule of the policy is consulted.
_POLL_POLICY = RetryPolicy(base_delay=1e-6, backoff_cap=1e-3, jitter=0.0)


class Request:
    """Handle for an in-flight nonblocking operation."""

    def __init__(self, kind: str, complete_fn=None, value: Any = None) -> None:
        self._kind = kind
        self._complete_fn = complete_fn
        self._value = value
        self._done = complete_fn is None
        self._attempt = 0

    @property
    def kind(self) -> str:
        return self._kind

    def done(self) -> bool:
        """True once the operation has completed (never un-completes)."""
        return self._done

    def test(self) -> tuple[bool, Any]:
        """Poll for completion; returns ``(done, value-or-None)``.

        For receives, a ready message completes the request and returns
        its payload; for sends, completion means the payload has been
        staged.  An incomplete poll returns ``(False, None)`` without
        blocking, after a bounded backoff sleep (growing 1 µs → 1 ms)
        so tight test loops do not busy-spin a core.
        """
        if self._done:
            return True, self._value
        assert self._complete_fn is not None
        ok, value = self._complete_fn(blocking=False)
        if ok:
            self._value = value
            self._done = True
            self._complete_fn = None
        else:
            time.sleep(_POLL_POLICY.delay(self._attempt))
            self._attempt += 1
        return self._done, self._value

    def wait(self) -> Any:
        """Block until completion; returns the payload (None for sends)."""
        if self._done:
            return self._value
        assert self._complete_fn is not None
        ok, value = self._complete_fn(blocking=True)
        if not ok:  # pragma: no cover - blocking path always completes
            raise CommunicatorError("blocking wait failed to complete")
        self._value = value
        self._done = True
        self._complete_fn = None
        return self._value

    @staticmethod
    def completed(value: Any = None, kind: str = "send") -> "Request":
        """An already-complete request (a staged send)."""
        return Request(kind, complete_fn=None, value=value)


def waitall(requests: Sequence[Request]) -> list:
    """Complete every request, returning their payloads in order."""
    return [r.wait() for r in requests]
