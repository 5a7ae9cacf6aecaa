"""Seeded bug: a literal tag threaded through a helper, off by one.

The sender passes the module constant on; the receiver computes
``tag + 1``, so its receive never matches while the sent message waits.
"""

PING = 7


def exchange(comm, tag):
    if comm.rank == 0:
        comm.send(1.0, dest=1, tag=tag)
    else:
        comm.recv(source=0, tag=tag + 1)


def driver(comm):
    exchange(comm, PING)
