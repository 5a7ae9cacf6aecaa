"""Seeded bug: a rank-divergent collective behind a flag read off the rank.

The condition names no rank: ``flag`` was bound from an expression that
does, and the opaque ``np.any`` call folds it to nothing the interpreter
can decide.  Rank 0 skips the broadcast it roots; rank 1 waits in it.
"""

import numpy as np


def driver(comm):
    flag = np.any(comm.rank == 0)
    if flag:
        pass
    else:
        comm.bcast(1, root=0)
    return comm.rank
