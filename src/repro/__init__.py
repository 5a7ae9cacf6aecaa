"""repro — reproduction of "Parallel Tucker Decomposition with Numerically
Accurate SVD" (Li, Fang, Ballard; ICPP 2021).

The package computes Tucker decompositions of dense tensors with the
Sequentially Truncated HOSVD (ST-HOSVD), offering both of the paper's
per-mode SVD algorithms — TuckerMPI's Gram-SVD and the numerically
stable QR-SVD — in single or double working precision, in memory, out of
core or on a simulated MPI runtime (one ``sthosvd`` takes all three
kinds of tensor), plus an alpha-beta-gamma performance model
that regenerates the paper's scaling studies.

Quickstart
----------
>>> import numpy as np
>>> from repro import DenseTensor, sthosvd
>>> X = DenseTensor(np.random.default_rng(0).standard_normal((20, 30, 40)))
>>> result = sthosvd(X, tol=1e-6, method="qr")
"""

from .tensor.dense import DenseTensor
from .core.sthosvd import sthosvd, SthosvdResult
from ._lazy import lazy_exports

# The Quickstart's names above bring in the closure of Alg. 1-2 on a dense
# tensor, and are the only eager imports of any package __init__: an
# __init__ holds names, not imports; every other export loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".precision": ("Precision", "SINGLE", "DOUBLE", "resolve_precision"),
    ".errors": ("ReproError", "ShapeError", "DistributionError",
                "CommunicatorError", "ConvergenceError", "ConfigurationError"),
    ".instrument": ("FlopCounter", "PhaseTimer"),
    ".tensor": ("unfold", "fold", "ttm", "multi_ttm"),
    ".linalg": ("gram_svd", "qr_svd", "tensor_gram_svd", "tensor_qr_svd",
                "tensor_lq", "geqr", "gelq"),
    ".core": ("TuckerTensor", "choose_rank", "compress", "choose_variant",
              "hosvd", "hooi"),
    ".dist": ("ProcessorGrid", "GridComms", "DistributedTensor"),
    ".obs": ("FlightRecorder", "Tracer"),
    ".mpi": ("run_spmd",),
    # The tensor kinds' packages, which `import repro` does not load:
    # ``repro.data.OutOfCoreTensor`` after a bare `import repro`.
    ".": ("data", "dist"),
})

__version__ = "1.0.0"

__all__ = [
    "Precision",
    "SINGLE",
    "DOUBLE",
    "resolve_precision",
    "ReproError",
    "ShapeError",
    "DistributionError",
    "CommunicatorError",
    "ConvergenceError",
    "ConfigurationError",
    "FlopCounter",
    "PhaseTimer",
    "DenseTensor",
    "unfold",
    "fold",
    "ttm",
    "multi_ttm",
    "gram_svd",
    "qr_svd",
    "tensor_gram_svd",
    "tensor_qr_svd",
    "tensor_lq",
    "geqr",
    "gelq",
    "TuckerTensor",
    "sthosvd",
    "SthosvdResult",
    "choose_rank",
    "compress",
    "choose_variant",
    "hosvd",
    "hooi",
    "run_spmd",
    "Tracer",
    "FlightRecorder",
    "ProcessorGrid",
    "GridComms",
    "DistributedTensor",
    "__version__",
]
