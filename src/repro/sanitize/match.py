"""The SPMD rule book: one decision and one message per rule.

The live :class:`~repro.sanitize.Sanitizer` shows this module the events
of running ranks (a collective slot's arrivals, a wait-for cycle, a
mailbox left full).  A rule decides whether what it is shown is a
finding and says what the finding is; where the events came from is the
caller's business.

The vocabulary is MPI's: a :class:`CommEvent` is one collective or one
blocking receive of one rank.

``collective-mismatch``
    Two ranks disagree at a collective slot on the op (order) or its
    signature, or some ranks reach a collective that others never do.
``tag-mismatch``
    A rank blocks in a receive nothing will satisfy, while the same
    sender's messages under other tags wait for it.
``message-leak``
    A sent message is never received.
``deadlock``
    Ranks blocked with no message that can release them; the rule book
    writes each rank's line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diagnostics import ERROR, WARNING, CallSite, Diagnostic

__all__ = [
    "CommEvent",
    "agree",
    "collective_mismatch",
    "deadlock",
    "message_leak",
    "never_reaches",
    "partner_gone",
    "slot",
    "tag_mismatch",
]


@dataclass(frozen=True)
class CommEvent:
    """One communication action of one rank.

    ``kind`` is ``collective`` or ``recv`` and ``op`` the communicator
    method.  A collective carries its ``signature``: the ``(name,
    value)`` pairs every rank must agree on.  A receive carries its
    ``peer`` and ``tag``.
    """

    kind: str
    op: str
    site: CallSite | None = None
    signature: tuple = ()
    peer: int | None = None
    tag: int | None = None


def _finding(kind: str, message: str, rank, site, severity=ERROR,
             **extra) -> Diagnostic:
    return Diagnostic(
        kind=kind, message=message, severity=severity,
        file=site.file if site else None, line=site.line if site else None,
        rank=rank, extra=extra,
    )


def _ranks(ranks: Sequence[int]) -> str:
    return ("rank" if len(ranks) == 1 else "ranks") + " " + ",".join(
        map(str, ranks))


def _died(died: Sequence[int]) -> str:
    return (f" (rank(s) {list(died)} died — expected residue of a "
            f"failed/recovered run)" if died else "")


def _sig_str(signature: tuple) -> str:
    return "(" + ", ".join(f"{k}={v!r}" for k, v in signature) + ")"


def slot(seq: int, comm_id: int) -> str:
    """Where a collective sits: its call number, on which communicator."""
    return f"on communicator {comm_id} (call #{seq})"


# ----------------------------------------------------------------------
# collective-mismatch
# ----------------------------------------------------------------------
def agree(a: CommEvent, b: CommEvent) -> bool:
    """Whether two ranks' calls at one collective slot match."""
    return a.op == b.op and a.signature == b.signature


def collective_mismatch(where: str, first_rank: int, first: CommEvent,
                        rank: int, ev: CommEvent,
                        **extra) -> list[Diagnostic]:
    """Two arrivals at the collective slot ``where``.

    Empty when they agree; otherwise one finding at each rank's call.
    """
    if agree(first, ev):
        return []
    if first.op != ev.op:
        what = (f"collective order mismatch {where}: rank {first_rank} "
                f"called {first.op}() at {first.site}, rank {rank} called "
                f"{ev.op}()")
    else:
        what = (f"collective signature mismatch in {ev.op}() {where}: rank "
                f"{first_rank} passed {_sig_str(first.signature)} at "
                f"{first.site}, rank {rank} passed {_sig_str(ev.signature)}")
    return [
        _finding("collective-mismatch", what, first_rank, first.site,
                 op=first.op, **extra),
        _finding("collective-mismatch", what, rank, ev.site, op=ev.op,
                 **extra),
    ]


def never_reaches(where: str, arrived: Sequence[int], ev: CommEvent,
                  absent: Sequence[int], died: Sequence[int] = (),
                  **extra) -> Diagnostic:
    """Ranks ``arrived`` wait at a collective the ``absent`` never call.

    A warning when ranks ``died`` during the run: recovering from a
    death may leave a collective of the old epoch half entered.
    """
    arrived, absent = sorted(arrived), sorted(absent)
    one, gone_one = len(arrived) == 1, len(absent) == 1
    what = (f"{_ranks(arrived)} call{'s' if one else ''} {ev.op}() {where} "
            f"at {ev.site} but {_ranks(absent)} never "
            f"reach{'es' if gone_one else ''} a matching collective")
    return _finding("collective-mismatch", what + _died(died), None, ev.site,
                    WARNING if died else ERROR, op=ev.op, **extra)


# ----------------------------------------------------------------------
# tag-mismatch (and its live sibling, a receive from a partner gone)
# ----------------------------------------------------------------------
def tag_mismatch(rank: int, recv: CommEvent, sender: int,
                 tags: Sequence[int], note: str = "",
                 **extra) -> Diagnostic:
    """``rank`` blocks in ``recv`` while ``sender`` sent only ``tags``."""
    what = (f"rank {rank} blocks in {recv.op}(source={recv.peer}, "
            f"tag={recv.tag}) at {recv.site} while rank {sender} sent "
            f"tag{'s' if len(tags) > 1 else ''} {', '.join(map(str, tags))}"
            f"; mismatched send/recv tags never match{note}")
    return _finding("tag-mismatch", what, rank, recv.site, **extra)


def partner_gone(rank: int, recv: CommEvent, partner: int, status: str,
                 pending_tags: Sequence[int],
                 expected: bool = False) -> Diagnostic:
    """A live receive whose partner already finalized or died.

    Messages from the partner under other tags, still in the waiter's
    mailbox, make it a ``tag-mismatch``; otherwise the rank failed.  A
    death the active fault plan injected (``expected``) is a warning,
    since surviving it is the point of the experiment.
    """
    gone = f"rank {partner} already {status}"
    extra = {"partner": partner, "tag": recv.tag,
             "pending_tags": list(pending_tags)}
    if pending_tags:
        return tag_mismatch(rank, recv, partner, pending_tags,
                            note=f" ({gone})", **extra)
    what = (f"rank {rank} blocked in {recv.op}(source={recv.peer}, "
            f"tag={recv.tag}) but {gone}")
    if expected:
        what += " (injected fault — expected under the active FaultPlan)"
    return _finding("rank-failed", what, rank, recv.site,
                    WARNING if expected else ERROR, **extra)


# ----------------------------------------------------------------------
# message-leak
# ----------------------------------------------------------------------
def message_leak(sender, dest: int, source: int, tag: int, count: int,
                 site, nbytes: int, comm_id: int,
                 died: Sequence[int] = ()) -> Diagnostic:
    """``count`` messages from ``source`` to ``dest`` nobody received.

    ``sender`` is the world rank the finding is attributed to; a warning
    when ranks ``died``, whose exchanges may legitimately be half done.
    """
    what = (f"{count} undelivered message(s) (source comm-rank {source}, "
            f"tag {tag}, {nbytes} bytes) left in rank {dest}'s mailbox on "
            f"communicator {comm_id} at finalize"
            + (f"; first sent at {site}" if site else "") + _died(died))
    return _finding("message-leak", what, sender, site,
                    WARNING if died else ERROR, dest=dest, tag=tag,
                    count=count, nbytes=nbytes)


# ----------------------------------------------------------------------
# deadlock
# ----------------------------------------------------------------------
def deadlock(reason: str, blocked) -> tuple[str, list[Diagnostic]]:
    """Ranks stuck with no message that can release them.

    ``blocked`` holds ``(rank, event, comm_id, awaiting)`` per stuck rank:
    the receive it waits in, the communicator and the world rank it
    awaits.  Returns the whole report and one finding per rank.
    """
    lines, diags = [], []
    for rank, ev, comm_id, awaiting in blocked:
        line = (f"rank {rank} blocks in {ev.op}(source={ev.peer}, "
                f"tag={ev.tag}) on communicator {comm_id} awaiting rank "
                f"{awaiting} at {ev.site}")
        lines.append(line)
        diags.append(_finding("deadlock", line, rank, ev.site,
                              awaiting=awaiting, tag=ev.tag))
    return f"deadlock detected ({reason}): " + "; ".join(lines), diags
