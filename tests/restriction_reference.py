"""Oracles for ``amrfem.restriction``.

``tests/test_restriction.py`` requires the vectorised ``apply_restriction``
to agree with two of them:

- ``apply_restriction_reference`` accumulates one child at a time with
  explicit index decoding, so it is slow and only meant for single blocks.
  The two index decoders it uses are tested in ``test_restriction.py`` and
  ``test_quadrature.py``.
- ``apply_restriction_branches`` is the earlier vectorised apply, with one
  hand-written einsum per dimension; the dimension-generic apply must match
  it bit for bit.

``local_mass_restriction`` builds the 1D matrix by solving the degree-p
local mass system at any point count. At p + 1 points it must give
``restriction_matrix``; its wider tables on more points keep
``apply_restriction`` tested on tables that are not square per child.
"""
from __future__ import annotations

import numpy as np

from amrfem.quadrature import element_nodal_basis, gauss_legendre


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


def local_mass_restriction(p: int, n_q: int) -> np.ndarray:
    """Restriction matrix (n_q, 2 n_q) from an explicit local mass solve."""
    rule = gauss_legendre(n_q)
    basis = element_nodal_basis(p)
    vals_c = basis.values_at(rule.points)  # (p+1, n_q)
    mass = (vals_c * rule.weights[None, :]) @ vals_c.T
    rhs = np.empty((p + 1, 2 * n_q))
    for c in (0, 1):
        vals_f = basis.values_at(0.5 * (rule.points + 2 * c - 1))
        rhs[:, c * n_q : (c + 1) * n_q] = 0.5 * rule.weights[None, :] * vals_f
    return vals_c.T @ np.linalg.solve(mass, rhs)


def apply_restriction_reference(matrix: np.ndarray, dim: int, fine_values) -> np.ndarray:
    """Restriction of one fine block, one child and one point at a time."""
    fine = np.asarray(fine_values, dtype=float)
    nc, nf = matrix.shape[0], matrix.shape[1] // 2
    if fine.shape != (2**dim * nf**dim,):
        raise ValueError("reference path takes a single fine block")
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
                    w *= matrix[coarse_idx[d], cbits[d] * nf + fine_idx[d]]
                acc += w * g[f_itg]
            out[c_itg] += acc
    return out


def apply_restriction_branches(matrix: np.ndarray, dim: int, blocks) -> np.ndarray:
    """Batch restriction with one einsum per dimension, spelled out."""
    fine = np.asarray(blocks, dtype=float)
    m = fine.shape[0]
    nc, nf = matrix.shape[0], matrix.shape[1] // 2
    s = matrix.reshape(nc, 2, nf)
    if dim == 1:
        return np.einsum("acq,mcq->ma", s, fine.reshape(m, 2, nf))
    if dim == 2:
        fine = fine.reshape(m, 2, 2, nf, nf)  # (m, cy, cx, ly, lx)
        return np.einsum("acl,bdk,mcdlk->mab", s, s, fine).reshape(m, nc * nc)
    fine = fine.reshape(m, 2, 2, 2, nf, nf, nf)  # (m, cz, cy, cx, lz, ly, lx)
    return np.einsum("ado,beq,cfr,mdefoqr->mabc", s, s, s, fine).reshape(m, nc**3)
