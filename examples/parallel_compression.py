#!/usr/bin/env python3
"""Distributed ST-HOSVD on the simulated MPI runtime.

Runs the parallel algorithm (Alg. 3: fiber redistribution, local LQ,
butterfly TSQR, redundant SVD, TTM with reduce-scatter) on 8 simulated
ranks arranged in a 1x2x2x2 grid under a tracer.  Prints the
decomposition quality, then the slowest rank's measured time per phase
beside the alpha-beta-gamma model's prediction for the same run — the
breakdown the paper's stacked-bar figures report, and the table
``repro trace`` writes to ``model_diff.txt``.

Run:  python examples/parallel_compression.py
"""

import numpy as np

from repro import sthosvd
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.mpi import run_spmd
from repro.obs import Tracer, model_diff_table, modeled_run

GRID = (1, 2, 2, 2)  # = ProcessorGrid.for_size(8, 4): 1 on the first-processed mode
X = low_rank_tensor((32, 32, 24, 32), (5, 6, 4, 5), rng=7, noise=1e-9)


def program(comm):
    """The SPMD program: every rank executes this function."""
    comms = GridComms(comm, ProcessorGrid(GRID))

    # Each rank takes its block of the (here replicated) input tensor.
    dt = DistributedTensor.from_full(comms, X.data)

    # The same sthosvd as on one core: a distributed tensor picks the
    # parallel arm (collective over its communicator).
    result = sthosvd(dt, tol=1e-6, method="qr", mode_order="backward")

    # Factor matrices are replicated; the core keeps the block
    # distribution.  Gather it to compute the true error (small data).
    tucker = result.to_tucker()
    return {
        "rank": comm.rank,
        "local_core_shape": result.core.local.shape,
        "ranks": result.ranks,
        "error": tucker.rel_error(X),
        "compression": result.compression_ratio(),
    }


tracer = Tracer()
res = run_spmd(program, nprocs=8, tracer=tracer)

out = res[0]
print(f"grid:              {GRID} = {np.prod(GRID)} ranks")
print(f"tucker ranks:      {out['ranks']}")
print(f"compression:       {out['compression']:.0f}x")
print(f"relative error:    {out['error']:.2e}")
print(f"rank 0 core block: {out['local_core_shape']}")

print()
# The model (Andes machine parameters) prices the same shape, ranks, grid
# and ordering in closed form; absolute times differ by host, the
# breakdown's shape is what to compare.
modeled = modeled_run(X.shape, out["ranks"], GRID, method="qr",
                      mode_order="backward")
print(model_diff_table(
    tracer, modeled, title="Measured (slowest rank) vs alpha-beta-gamma model",
))

# The same program runs unchanged on any grid whose size matches the
# rank count — try GRID = (8, 1, 1, 1) or (1, 1, 1, 8) and watch the
# redistribution cost move between modes.
