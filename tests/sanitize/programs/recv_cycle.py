"""Seeded bug: a two-rank receive/receive cycle.

Every rank posts its receive before its send, so nobody ever sends and
both ranks block forever.
"""


def swap(comm, payload):
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    got = comm.recv(source=left, tag=9)
    comm.send(payload, dest=right, tag=9)
    return got


def driver(comm, payload):
    return swap(comm, payload)
