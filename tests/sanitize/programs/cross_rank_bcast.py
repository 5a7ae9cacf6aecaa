"""Seeded bug: rank-divergent collective hidden behind a helper call.

The rank branch holds only an innocent-looking function call, and the
helper holds no rank condition.  Rank 0 enters the broadcast; rank 1
returns without it.
"""


def broadcast_params(comm, params):
    comm.bcast(params, root=0)
    return params


def driver(comm):
    params = {"tol": 1e-8, "sweeps": 4}
    if comm.rank == 0:
        broadcast_params(comm, params)
    return params
