"""The one wait rule: a blocked rank is woken by the change it waits for.

A receive and a split/shrink rendezvous sleep until a counted wake or
their deadline, never on a timer (the sanitizer's stall watchdog is the
one timed wait).  These tests pin the rule from both sides: a blocked
rank polls the world state a bounded number of times however long it
waits, and a wake that lands while it polls is never slept through.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import CommunicatorError, RankFailedError
from repro.faults import FaultPlan
from repro.mpi import run_spmd
from repro.mpi.context import SpmdContext, _Rendezvous


@pytest.mark.parametrize("knob", [{"faults": FaultPlan(seed=0)},
                                  {"resilience": True}],
                         ids=["faults", "resilience"])
def test_a_blocked_receive_polls_on_wakes_not_on_a_timer(monkeypatch, knob):
    """Blocked for 1 s, a receive reads its partner's status once before
    it sleeps and once when the message wakes it — with faults or
    resilience on as without: no timer wakes it in between."""
    calls = []
    real = SpmdContext.rank_status

    def counted(self, world_rank):
        calls.append(world_rank)
        return real(self, world_rank)

    monkeypatch.setattr(SpmdContext, "rank_status", counted)

    def prog(comm):
        if comm.rank == 0:
            time.sleep(1.0)
            comm.send(1, dest=1)
            return None
        return comm.recv(0)

    assert run_spmd(prog, 2, backend="threads", **knob).values == [None, 1]
    assert len(calls) <= 3, calls


def test_a_wake_during_a_rendezvous_poll_is_not_lost():
    """A member dies while a contributor's poll runs (outside the
    table's lock, after it has read the member's status): the wake that
    follows the death makes the contributor poll again at once, so it
    raises in well under a second against a 30 s timeout."""
    table = _Rendezvous()
    dead = threading.Event()  # "member 1 is marked failed"
    first_poll = threading.Event()
    release = threading.Event()
    polls = []

    def poll(contributed):
        member_dead = dead.is_set()  # the state, read first
        polls.append(member_dead)
        if len(polls) == 1:
            first_poll.set()
            release.wait(10.0)  # ... while the change lands
        if member_dead:
            raise RankFailedError("member rank 1 already failed")

    outcome = {}

    def contributor():
        t0 = time.monotonic()
        try:
            table.contribute(
                0, "v", lambda c: "done" if len(c) == 2 else None, poll,
                30.0, lambda c: "member 1")
        except RankFailedError:
            outcome["raised_after"] = time.monotonic() - t0

    thread = threading.Thread(target=contributor, daemon=True)
    thread.start()
    assert first_poll.wait(10.0)
    dead.set()
    table.wake_all()
    release.set()
    thread.join(10.0)
    assert outcome["raised_after"] < 1.0
    assert polls == [False, True]


def test_split_and_shrink_rendezvous_under_a_storm_of_wakes():
    """8 ranks run 100 splits and 100 shrinks while another thread wakes
    every rendezvous table in a loop: every member gets the same result
    from every rendezvous, its ids are allocated once, and no call waits
    past the bound (a lost wake would sit out the 20 s timeout)."""
    size, rounds, bound = 8, 100, 5.0
    ctx = SpmdContext(size, recv_timeout=20.0)
    members = list(range(size))
    results = [dict() for _ in range(size)]
    slowest = [0.0] * size
    errors = []
    done = threading.Event()

    def rank(me):
        try:
            for i in range(1, rounds + 1):
                t0 = time.monotonic()
                results[me][("split", i)] = ctx.split_rendezvous(
                    0, i, size, me, ((me % 2, -me),), members, me)
                t1 = time.monotonic()
                results[me][("shrink", i)] = ctx.shrink_rendezvous(
                    0, i, me, me, members)
                t2 = time.monotonic()
                slowest[me] = max(slowest[me], t1 - t0, t2 - t1)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def waker():
        while not done.is_set():
            ctx.wake_rendezvous()

    threads = [threading.Thread(target=rank, args=(r,), daemon=True)
               for r in range(size)]
    storm = threading.Thread(target=waker, daemon=True)
    storm.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
    done.set()
    storm.join(10.0)
    assert not errors, errors
    assert max(slowest) < bound, slowest
    assert all(r == results[0] for r in results[1:])
    ids = []
    for (kind, _), result in results[0].items():
        if kind == "split":
            (carved,) = result
            assert sorted(carved) == [0, 1]
            assert carved[0][1] == [6, 4, 2, 0]  # ordered by key = -rank
            ids.extend(new_id for new_id, _, _ in carved.values())
        else:
            new_id, ordered = result
            assert ordered == members
            ids.append(new_id)
    assert len(set(ids)) == len(ids) == 3 * rounds


def test_a_split_timeout_names_the_missing_members():
    ctx = SpmdContext(3, recv_timeout=0.3)
    box = {}

    def late(me):
        try:
            ctx.split_rendezvous(0, 1, 3, me, ((0, me),), [0, 1, 2], me)
        except CommunicatorError as exc:
            box[me] = str(exc)

    threads = [threading.Thread(target=late, args=(r,)) for r in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert set(box) == {0, 1}
    assert all("split timed out" in m and "ranks [2]" in m
               for m in box.values())


def test_a_shrink_timeout_names_the_missing_survivors():
    ctx = SpmdContext(3, recv_timeout=0.3)
    with pytest.raises(CommunicatorError,
                       match=r"shrink timed out .* survivors \[1, 2\]"):
        ctx.shrink_rendezvous(0, 1, 0, 0, [0, 1, 2])
