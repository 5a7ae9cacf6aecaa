"""The name ``bench/`` imports for :func:`repro.core.sthosvd.sthosvd`.

``sthosvd`` takes a ``DistributedTensor`` itself; this module only keeps
``bench/worker.py`` and ``bench/traced.py`` importing until they move to
``repro.sthosvd``.  Nothing else may import it (``tools/lint_repo.py``).
"""

from .sthosvd import sthosvd as sthosvd_parallel

__all__ = ["sthosvd_parallel"]
