"""Fine-to-coarse restriction of quadrature-point values on merged octants.

The 1D operator maps the Gauss values of two child elements onto the Gauss
values of their parent, realising a local L2 projection. In 2D/3D it is
applied dimension-by-dimension through its Kronecker structure; the full
multi-dimensional matrix is never formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import element_nodal_basis, gauss_legendre, quad_point_basis

__all__ = [
    "RestrictionOperator",
    "build_restriction_1d",
    "build_restriction_general",
    "restriction_operator",
    "apply_restriction",
]


@dataclass(frozen=True)
class RestrictionOperator:
    """1D restriction matrix plus the metadata needed to apply it in d dims.

    ``matrix`` has shape (n_coarse, 2 * n_fine); column c*n_fine + q holds the
    contribution of fine Gauss point q on child c (c=0 left, c=1 right).
    """

    degree: int
    n_fine: int
    n_coarse: int
    matrix: np.ndarray
    coarse_weights: np.ndarray
    fine_weights: np.ndarray

    def fine_block_size(self, dim: int) -> int:
        return (2**dim) * self.n_fine**dim

    def coarse_block_size(self, dim: int) -> int:
        return self.n_coarse**dim


def _child_map(r, c: int):
    """Map child reference coordinate r in [-1,1] into the parent element."""
    return 0.5 * (np.asarray(r) + 2 * c - 1)


def build_restriction_1d(p: int, n_ip: int | None = None) -> RestrictionOperator:
    """Restriction for the standard case n_ip = p + 1 (diagonal local mass).

    Entries are (1/w_i) * (w_q / 2) * N_i(x_c(r_q)) where N_i is the
    quadrature-point-nodal basis and the half is the child-map Jacobian.
    A non-default n_ip routes to the general (non-diagonal-mass) builder.
    """
    if n_ip is None:
        n_ip = p + 1
    if n_ip != p + 1:
        return build_restriction_general(p, n_ip, n_ip)
    rule = gauss_legendre(n_ip)
    basis = quad_point_basis(p)
    mat = np.empty((n_ip, 2 * n_ip))
    for c in (0, 1):
        vals = basis.values_at(_child_map(rule.points, c))  # (n_ip, n_ip)
        mat[:, c * n_ip : (c + 1) * n_ip] = (
            vals * (0.5 * rule.weights[None, :]) / rule.weights[:, None]
        )
    return RestrictionOperator(p, n_ip, n_ip, mat, rule.weights.copy(), rule.weights.copy())


def build_restriction_general(p: int, n_ip_f: int, n_ip_c: int) -> RestrictionOperator:
    """Restriction with arbitrary fine/coarse quadrature counts (>= p + 1).

    Solves the local mass system for the degree-p coefficients and evaluates
    them back at the coarse Gauss points. Reduces to the diagonal-mass path
    when both counts equal p + 1.
    """
    if n_ip_f < p + 1 or n_ip_c < p + 1:
        raise ValueError(
            f"need at least p+1={p + 1} quadrature points, got fine={n_ip_f}, coarse={n_ip_c}"
        )
    rule_f = gauss_legendre(n_ip_f)
    rule_c = gauss_legendre(n_ip_c)
    basis = element_nodal_basis(p)

    vals_c = basis.values_at(rule_c.points)  # (p+1, n_c)
    mass = (vals_c * rule_c.weights[None, :]) @ vals_c.T  # (p+1, p+1)
    rhs = np.empty((p + 1, 2 * n_ip_f))
    for c in (0, 1):
        vals_f = basis.values_at(_child_map(rule_f.points, c))
        rhs[:, c * n_ip_f : (c + 1) * n_ip_f] = 0.5 * rule_f.weights[None, :] * vals_f
    try:
        coeffs = np.linalg.solve(mass, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cannot occur
        raise AssertionError("singular local mass matrix") from exc
    mat = vals_c.T @ coeffs
    return RestrictionOperator(
        p, n_ip_f, n_ip_c, mat, rule_c.weights.copy(), rule_f.weights.copy()
    )


_OPERATOR_CACHE: dict[tuple[int, int, int], RestrictionOperator] = {}


def restriction_operator(
    p: int, n_ip_f: int | None = None, n_ip_c: int | None = None
) -> RestrictionOperator:
    """Cached operator factory; matrices depend only on (p, n_f, n_c)."""
    nf = p + 1 if n_ip_f is None else n_ip_f
    nc = nf if n_ip_c is None else n_ip_c
    key = (p, nf, nc)
    op = _OPERATOR_CACHE.get(key)
    if op is None:
        if nf == nc == p + 1:
            op = build_restriction_1d(p)
        else:
            op = build_restriction_general(p, nf, nc)
        _OPERATOR_CACHE[key] = op
    return op


def apply_restriction(op: RestrictionOperator, dim: int, fine_values) -> np.ndarray:
    """Restrict fine Gauss values of one merged family onto the parent.

    ``fine_values`` holds the 2^dim children in Morton order, each child's
    values in lexicographic order: either a single vector of length
    2^dim * n_fine^dim or a batch of such vectors stacked as rows. The 1D
    matrix is applied per dimension (Kronecker structure on the fly).
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2, or 3, got {dim}")
    fine = np.asarray(fine_values, dtype=float)
    single = fine.ndim == 1
    if single:
        fine = fine[None, :]
    expected = op.fine_block_size(dim)
    if fine.ndim != 2 or fine.shape[1] != expected:
        raise ValueError(
            f"fine value block must have length {expected} for dim={dim}, "
            f"got shape {np.asarray(fine_values).shape}"
        )
    m = fine.shape[0]
    nf, nc = op.n_fine, op.n_coarse
    s = op.matrix.reshape(nc, 2, nf)
    if dim == 1:
        out = np.einsum("acq,mcq->ma", s, fine.reshape(m, 2, nf))
    elif dim == 2:
        blocks = fine.reshape(m, 2, 2, nf, nf)  # (m, cy, cx, ly, lx)
        out = np.einsum("acl,bdk,mcdlk->mab", s, s, blocks).reshape(m, nc * nc)
    else:
        blocks = fine.reshape(m, 2, 2, 2, nf, nf, nf)  # (m, cz, cy, cx, lz, ly, lx)
        out = np.einsum("ado,beq,cfr,mdefoqr->mabc", s, s, s, blocks).reshape(
            m, nc**3
        )
    return out[0] if single else out
