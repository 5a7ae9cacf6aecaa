"""Numerical linear algebra kernels: Householder QR/LQ, tpqrt, Gram, SVDs."""

from .householder import (
    householder_reflector,
    qr_factor,
    lq_factor,
    qr_r,
    lq_l,
    form_q,
    form_q_lq,
)
from .tpqrt import tpqrt, tpqrt_reduce_triangles
from .qr import geqr, gelq, flat_tree_lq, block_runs, BACKENDS
from .gram import gram_matrix, tensor_gram, streamed_gram
from .tensor_lq import tensor_lq, tensor_lq_binary_tree
from .svd import (
    svd_from_gram,
    left_svd_of_triangle,
    gram_svd,
    qr_svd,
    tensor_gram_svd,
    tensor_qr_svd,
)
from .jacobi import jacobi_left_svd, jacobi_orthogonalize_pairs
from .blocked import qr_factor_blocked, qr_r_blocked, build_t_factor
from .apply_q import apply_q, apply_q_lq
from .randomized import randomized_left_svd, tensor_randomized_svd
from .accuracy import (
    singular_value_floor,
    trustworthy_count,
    min_reachable_tolerance,
    subspace_angle,
)
from . import flops

__all__ = [
    "householder_reflector",
    "qr_factor",
    "lq_factor",
    "qr_r",
    "lq_l",
    "form_q",
    "form_q_lq",
    "tpqrt",
    "tpqrt_reduce_triangles",
    "geqr",
    "gelq",
    "flat_tree_lq",
    "block_runs",
    "BACKENDS",
    "gram_matrix",
    "tensor_gram",
    "streamed_gram",
    "tensor_lq",
    "tensor_lq_binary_tree",
    "svd_from_gram",
    "left_svd_of_triangle",
    "gram_svd",
    "qr_svd",
    "tensor_gram_svd",
    "tensor_qr_svd",
    "jacobi_left_svd",
    "jacobi_orthogonalize_pairs",
    "qr_factor_blocked",
    "qr_r_blocked",
    "build_t_factor",
    "apply_q",
    "apply_q_lq",
    "randomized_left_svd",
    "tensor_randomized_svd",
    "singular_value_floor",
    "trustworthy_count",
    "min_reachable_tolerance",
    "subspace_angle",
    "flops",
]
