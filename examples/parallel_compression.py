#!/usr/bin/env python3
"""Distributed ST-HOSVD on the simulated MPI runtime.

Runs the parallel algorithm (Alg. 3: fiber redistribution, local LQ,
butterfly TSQR, redundant SVD, TTM with reduce-scatter) on 8 simulated
ranks arranged in a 1x2x2x2 grid, with the alpha-beta-gamma cost model
attached so each rank carries a logical clock.  Prints the decomposition
quality and the slowest rank's per-phase modeled time breakdown — the
same quantity the paper's stacked-bar figures report.

Run:  python examples/parallel_compression.py
"""

import numpy as np

from repro import sthosvd_parallel
from repro.data import low_rank_tensor
from repro.dist import DistributedTensor, GridComms, ProcessorGrid
from repro.mpi import run_spmd, CostModel, CommCosts, ComputeRates
from repro.util import format_table

GRID = (1, 2, 2, 2)  # = ProcessorGrid.for_size(8, 4): 1 on the first-processed mode
X = low_rank_tensor((32, 32, 24, 32), (5, 6, 4, 5), rng=7, noise=1e-9)


def program(comm):
    """The SPMD program: every rank executes this function."""
    comms = GridComms(comm, ProcessorGrid(GRID))

    # Each rank takes its block of the (here replicated) input tensor.
    dt = DistributedTensor.from_full(comms, X.data)

    result = sthosvd_parallel(dt, tol=1e-6, method="qr", mode_order="backward")

    # Factor matrices are replicated; the core keeps the block
    # distribution.  Gather it to compute the true error (small data).
    tucker = result.to_tucker()
    return {
        "rank": comm.rank,
        "local_core_shape": result.core.local.shape,
        "ranks": result.ranks,
        "error": tucker.rel_error(X),
        "compression": result.compression_ratio(),
        "breakdown": comm.clock.breakdown() if comm.clock else {},
    }


# Andes-like machine parameters (per-core rates, network alpha/beta).
model = CostModel(
    comm=CommCosts(alpha=2e-6, beta=1 / 12e9),
    compute=ComputeRates(double=6.4e9, single=13e9),
)

res = run_spmd(program, nprocs=8, cost_model=model)

out = res[0]
print(f"grid:              {GRID} = {np.prod(GRID)} ranks")
print(f"tucker ranks:      {out['ranks']}")
print(f"compression:       {out['compression']:.0f}x")
print(f"relative error:    {out['error']:.2e}")
print(f"rank 0 core block: {out['local_core_shape']}")

print()
bd = res.slowest_rank_breakdown()
rows = [[phase, seconds * 1e3] for phase, seconds in sorted(bd.items())]
print(format_table(
    ["phase", "modeled ms"], rows,
    title=f"Slowest-rank breakdown (logical clocks, total {res.slowest_time*1e3:.2f} ms)",
))

# The same program runs unchanged on any grid whose size matches the
# rank count — try GRID = (8, 1, 1, 1) or (1, 1, 1, 8) and watch the
# redistribution cost move between modes.
