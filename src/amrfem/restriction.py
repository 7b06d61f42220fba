"""Fine-to-coarse restriction of quadrature-point values on merged octants.

The 1D matrix maps the Gauss values of two child elements onto the Gauss
values of their parent, realising a local L2 projection. In 2D/3D it is
applied dimension-by-dimension through its Kronecker structure; the full
multi-dimensional matrix is never formed.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quadrature import element_nodal_basis, gauss_legendre, quad_point_basis

__all__ = ["restriction_matrix", "apply_restriction"]


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


def apply_restriction(matrix: np.ndarray, dim: int, blocks) -> np.ndarray:
    """Restrict the fine Gauss values of merged families onto their parents.

    ``blocks`` holds one family per row: the 2^dim children in Morton order,
    each child's values in lexicographic order. Returns one row of n_q^dim
    parent values per family. The 1D ``matrix`` acts once per axis in a
    single einsum (Kronecker structure on the fly).
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    n_c, n_f = matrix.shape[0], matrix.shape[1] // 2
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 2 or blocks.shape[1] != 2**dim * n_f**dim:
        raise ValueError(
            f"blocks must have rows of length {2**dim * n_f**dim} for dim={dim}, "
            f"got shape {blocks.shape}"
        )
    # axis d (slowest first): coarse point a_d <- child bit c_d, fine point q_d
    coarse, child, point = "abc"[:dim], "def"[:dim], "ghi"[:dim]
    ops = ",".join(a + c + q for a, c, q in zip(coarse, child, point))
    s = matrix.reshape(n_c, 2, n_f)
    fine = blocks.reshape((len(blocks),) + (2,) * dim + (n_f,) * dim)
    out = np.einsum(f"{ops},m{child}{point}->m{coarse}", *[s] * dim, fine)
    return out.reshape(len(blocks), n_c**dim)
