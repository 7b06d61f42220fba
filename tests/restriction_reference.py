"""Plain-loop restriction, kept as an oracle for ``amrfem.restriction``.

``tests/test_restriction.py`` requires the vectorised ``apply_restriction``
to agree with it. It accumulates one child at a time with explicit index
decoding, so it is slow and only meant for single blocks.
"""
from __future__ import annotations

import numpy as np

from amrfem.quadrature import tensor_index_map
from amrfem.restriction import RestrictionOperator, decode_morton


def apply_restriction_reference(
    op: RestrictionOperator, dim: int, fine_values
) -> np.ndarray:
    """Restriction of one fine block, one child and one point at a time."""
    fine = np.asarray(fine_values, dtype=float)
    if fine.shape != (op.fine_block_size(dim),):
        raise ValueError("reference path takes a single fine block")
    nf, nc = op.n_fine, op.n_coarse
    n_ip_f, n_ip_c = nf**dim, nc**dim
    out = np.zeros(n_ip_c)
    for child in range(2**dim):
        cbits = decode_morton(child, dim)
        g = fine[child * n_ip_f : (child + 1) * n_ip_f]
        for c_itg in range(n_ip_c):
            coarse_idx = tensor_index_map(c_itg, dim, nc)
            acc = 0.0
            for f_itg in range(n_ip_f):
                fine_idx = tensor_index_map(f_itg, dim, nf)
                w = 1.0
                for d in range(dim):
                    w *= op.matrix[coarse_idx[d], cbits[d] * nf + fine_idx[d]]
                acc += w * g[f_itg]
            out[c_itg] += acc
    return out
