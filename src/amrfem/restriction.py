"""Fine-to-coarse reduction of merged octants, one 1D table per axis.

The paper's two coarsenings differ only in the 1D table: ``restriction_matrix``
(Gauss values of two children onto the parent's, a local L2 projection) and
the 0/1 ``injection_matrix`` (coinciding nodal values, exact for finite
values). ``apply_restriction`` applies either dimension-by-dimension through
its Kronecker structure; the full multi-dimensional matrix is never formed.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quadrature import element_nodal_basis, gauss_legendre, quad_point_basis

__all__ = ["restriction_matrix", "injection_matrix", "apply_restriction"]


@lru_cache(maxsize=None)
def restriction_matrix(p: int, n_q: int | None = None) -> np.ndarray:
    """Read-only 1D restriction matrix of shape (n_q, 2 * n_q), n_q >= p + 1.

    Column c*n_q + q holds the contribution of Gauss point q on child c
    (c=0 left, c=1 right); the half in (w_q / 2) is the child-map Jacobian.
    For the default n_q = p + 1 the local mass is diagonal in the
    quadrature-point-nodal basis N_i and the entries are
    (1/w_i) * (w_q / 2) * N_i(x_c(r_q)). More points solve the degree-p
    local mass system and evaluate the coefficients at the parent's points.
    """
    n = p + 1 if n_q is None else n_q
    if n < p + 1:
        raise ValueError(f"need at least p+1={p + 1} quadrature points, got {n}")
    rule = gauss_legendre(n)
    diagonal = n == p + 1
    basis = quad_point_basis(p) if diagonal else element_nodal_basis(p)
    child_points = np.concatenate([rule.points + 2 * c - 1 for c in (0, 1)])
    rhs = 0.5 * np.tile(rule.weights, 2)[None, :] * basis.values_at(0.5 * child_points)
    if diagonal:
        mat = rhs / rule.weights[:, None]
    else:
        vals = basis.values_at(rule.points)  # (p+1, n)
        mat = vals.T @ np.linalg.solve((vals * rule.weights[None, :]) @ vals.T, rhs)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def injection_matrix(p: int) -> np.ndarray:
    """Read-only 0/1 table (p + 1, 2 * (p + 1)) in ``restriction_matrix``'s layout.

    Parent node a is node 2a - c*p, column 2a + c, of child c = [2a > p].
    """
    a = np.arange(p + 1)
    mat = np.zeros((p + 1, 2 * (p + 1)))
    mat[a, 2 * a + (2 * a > p)] = 1.0
    mat.flags.writeable = False
    return mat


def apply_restriction(matrix: np.ndarray, dim: int, blocks) -> np.ndarray:
    """Reduce the fine values of merged families onto their parents.

    ``blocks`` holds one family per row: the 2^dim children in Morton order,
    each child's values in lexicographic order, then an optional field axis.
    Returns n_c^dim parent values per family (and field): the 1D ``matrix``
    acts once per axis in a single einsum (Kronecker structure on the fly).
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    n_c, n_f = matrix.shape[0], matrix.shape[1] // 2
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim not in (2, 3) or blocks.shape[1] != 2**dim * n_f**dim:
        raise ValueError(
            f"blocks must have rows of length {2**dim * n_f**dim} for dim={dim}, "
            f"got shape {blocks.shape}"
        )
    # a field axis goes between the family and its values: each field is
    # reduced bit for bit as it would be alone, 3x faster than a trailing axis
    fine = np.ascontiguousarray(np.moveaxis(blocks, 1, -1))
    fine = fine.reshape(fine.shape[:-1] + (2,) * dim + (n_f,) * dim)
    # axis d (slowest first): coarse point a_d <- child bit c_d, fine point q_d
    coarse, child, point = "abc"[:dim], "def"[:dim], "ghi"[:dim]
    ops = ",".join(a + c + q for a, c, q in zip(coarse, child, point))
    s = matrix.reshape(n_c, 2, n_f)
    out = np.einsum(f"{ops},m...{child}{point}->m...{coarse}", *[s] * dim, fine)
    return np.moveaxis(out.reshape(out.shape[:-dim] + (n_c**dim,)), -1, 1)
