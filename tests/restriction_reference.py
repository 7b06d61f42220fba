"""Plain-loop restriction, kept as an oracle for ``amrfem.restriction``.

``tests/test_restriction.py`` requires the vectorised ``apply_restriction``
to agree with it. It accumulates one child at a time with explicit index
decoding, so it is slow and only meant for single blocks. The two index
decoders it uses are tested in ``test_restriction.py`` and
``test_quadrature.py``.
"""
from __future__ import annotations

import numpy as np

from amrfem.restriction import RestrictionOperator


def decode_morton(child: int, dim: int) -> tuple[int, int, int]:
    """Child index in Morton (Z) order -> lattice bits (c_x, c_y, c_z)."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    if not 0 <= child < 2**dim:
        raise ValueError(f"child {child} out of range for dim={dim}")
    cx = child & 1
    cy = (child & 2) >> 1
    cz = (child & 4) >> 2 if dim == 3 else 0
    return cx, cy, cz


def tensor_index_map(lex_idx: int, dim: int, n: int) -> tuple[int, int, int]:
    """Decode a lexicographic lattice index into (I_x, I_y, I_z)."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    if not 0 <= lex_idx < n**dim:
        raise ValueError(f"index {lex_idx} out of range for n={n}, dim={dim}")
    if dim == 1:
        return lex_idx, 0, 0
    if dim == 2:
        return lex_idx % n, lex_idx // n, 0
    return lex_idx % n, (lex_idx // n) % n, lex_idx // (n * n)


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
