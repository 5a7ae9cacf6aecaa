"""Mode-ordering policies for ST-HOSVD (Sec. 4.2.3).

The paper considers data in its on-disk order and restricts tuning to
``forward`` (0, 1, ..., N-1) and ``backward`` (N-1, ..., 0) orderings,
since ranks — hence the computation-minimizing order — are unknown a
priori.  A ``greedy`` policy is also provided for the ablation study:
when target ranks *are* known, it picks at each step the mode whose
truncation shrinks the working tensor the most.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from ..util.validation import resolve_mode_order

__all__ = ["resolve_mode_order", "greedy_order"]


def greedy_order(shape: Sequence[int], ranks: Sequence[int]) -> tuple[int, ...]:
    """Computation-minimizing heuristic when target ranks are known.

    Repeatedly process the mode with the largest reduction factor
    ``I_n / R_n``, shrinking the working dimensions as it goes — the
    heuristic discussed in [6] for known-rank runs.
    """
    if len(shape) != len(ranks):
        raise ConfigurationError("shape and ranks must have equal length")
    remaining = list(range(len(shape)))
    order = []
    while remaining:
        best = max(remaining, key=lambda n: shape[n] / max(ranks[n], 1))
        order.append(best)
        remaining.remove(best)
    return tuple(order)
