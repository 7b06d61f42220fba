"""Gauss-Legendre rules, 1D Lagrange bases on [-1, 1], and the tensor-lattice order.

Two basis families are provided: the usual element-nodal family (equispaced
nodes, endpoints included) and the quadrature-point-nodal family whose nodes
sit at the Gauss points, which is what makes local mass matrices diagonal.
``child_lattice_values`` tabulates the element-nodal basis, exactly rounded,
on its children's node lattice, the one table that refinement and the
hanging-node constraints read.

Every tensor-product table in the package is ordered lexicographically, x
fastest: local nodes, Gauss points, Morton children and the leaves of a
uniform mesh. ``lattice`` lists that order's multi-indices and
``tensor_kron`` builds a table in it from one factor per axis, in any
dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod

import numpy as np

__all__ = [
    "QuadratureRule1D",
    "LagrangeBasis1D",
    "gauss_legendre",
    "element_nodal_basis",
    "quad_point_basis",
    "child_lattice_values",
    "lattice",
    "tensor_kron",
    "tensor_weights",
]

# Rules for n <= 5 are pinned as constants so downstream operator matrices are
# bit-stable.
_GL_TABLE = {
    1: ((0.0,), (2.0,)),
    2: ((-0.5773502691896257645, 0.5773502691896257645), (1.0, 1.0)),
    3: (
        (-0.7745966692414833770, 0.0, 0.7745966692414833770),
        (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0),
    ),
    4: (
        (
            -0.8611363115940525752,
            -0.3399810435848562648,
            0.3399810435848562648,
            0.8611363115940525752,
        ),
        (
            0.3478548451374538574,
            0.6521451548625461426,
            0.6521451548625461426,
            0.3478548451374538574,
        ),
    ),
    5: (
        (
            -0.9061798459386639928,
            -0.5384693101056830910,
            0.0,
            0.5384693101056830910,
            0.9061798459386639928,
        ),
        (
            0.2369268850561890875,
            0.4786286704993664680,
            0.5688888888888888889,
            0.4786286704993664680,
            0.2369268850561890875,
        ),
    ),
}


@dataclass(frozen=True)
class QuadratureRule1D:
    """An n-point rule on [-1, 1]; exact for polynomials of degree 2n-1."""

    points: np.ndarray
    weights: np.ndarray


def gauss_legendre(n: int) -> QuadratureRule1D:
    """Return the n-point Gauss-Legendre rule on [-1, 1].

    Small rules come from a pinned table; larger ones from numpy's
    ``leggauss``.
    """
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    if n in _GL_TABLE:
        pts, wts = _GL_TABLE[n]
        return QuadratureRule1D(np.array(pts), np.array(wts))
    return QuadratureRule1D(*np.polynomial.legendre.leggauss(n))


@dataclass(frozen=True)
class LagrangeBasis1D:
    """Cardinal polynomials N_j on a set of distinct nodes in [-1, 1], of
    degree ``n_nodes - 1``.

    Evaluation uses the barycentric form with an exact shortcut when the
    abscissa coincides with a node, so N_j(node_k) is exactly delta_jk.
    """

    nodes: np.ndarray
    bary_weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def values_at(self, x) -> np.ndarray:
        """Table N[j, q] = N_j(x_q); x may be scalar or 1D array."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        diff = x[None, :] - self.nodes[:, None]
        hit_node, hit_x = np.nonzero(diff == 0.0)
        diff[hit_node, hit_x] = 1.0  # placeholder, overwritten below
        c = self.bary_weights[:, None] / diff
        vals = c / c.sum(axis=0)
        for j, q in zip(hit_node, hit_x):
            vals[:, q] = 0.0
            vals[j, q] = 1.0
        return vals

    def derivs_at(self, x) -> np.ndarray:
        """Table D[j, q] = N_j'(x_q)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((self.n_nodes, len(x)))
        for q, xq in enumerate(x):
            hits = np.nonzero(self.nodes == xq)[0]
            if hits.size:
                i = hits[0]
                row = np.zeros(self.n_nodes)
                mask = np.arange(self.n_nodes) != i
                row[mask] = (self.bary_weights[mask] / self.bary_weights[i]) / (
                    xq - self.nodes[mask]
                )
                row[i] = -row[mask].sum()
                out[:, q] = row
            else:
                inv = 1.0 / (xq - self.nodes)
                c = self.bary_weights * inv
                vals = c / c.sum()
                out[:, q] = vals * (inv.sum() - inv)
        return out


def _make_basis(nodes: np.ndarray) -> LagrangeBasis1D:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    return LagrangeBasis1D(nodes, w)


@lru_cache(maxsize=None)
def element_nodal_basis(p: int) -> LagrangeBasis1D:
    """Degree-p basis with equispaced nodes (Q1: endpoints, Q2: + midpoint)."""
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    return _make_basis(np.linspace(-1.0, 1.0, p + 1))


@lru_cache(maxsize=None)
def quad_point_basis(p: int) -> LagrangeBasis1D:
    """Degree-p basis whose nodes are the (p+1)-point Gauss abscissae."""
    return _make_basis(gauss_legendre(p + 1).points.copy())


@lru_cache(maxsize=None)
def child_lattice_values(p: int) -> np.ndarray:
    """Degree-p parent basis on its children's node lattice, read-only (2p+1, p+1).

    Row k holds N_j(-1 + k/p), the parent basis at the k-th child node
    along an axis. Refinement reads child c's rows c*p ... c*p + p; a
    hanging node k child-node spacings along a coarse edge reads row k.
    Entries are exact rationals rounded once, so row 2p - k mirrors row k;
    for p = 1, 2 they are dyadic and every row sums to exactly 1.
    """

    # N_j(x) at x = -1 + k/p: factors (x - x_i) / (x_j - x_i), nodes x_i = -1 + 2i/p
    def entry(k: int, j: int) -> float:
        return float(prod(Fraction(k - 2 * i, 2 * (j - i)) for i in range(p + 1) if i != j))

    table = np.array([[entry(k, j) for j in range(p + 1)] for k in range(2 * p + 1)])
    table.flags.writeable = False
    return table


def lattice(n: int, dim: int) -> np.ndarray:
    """Multi-indices of the n^dim tensor lattice, x fastest: int64 (n^dim, dim).

    Row i + n * j of ``lattice(n, 2)`` is (i, j).
    """
    return np.indices((n,) * dim, dtype=np.int64).reshape(dim, -1)[::-1].T


def tensor_kron(per_axis) -> np.ndarray:
    """Kronecker product of one table per axis (x first), rows and columns x fastest."""
    return reduce(np.kron, per_axis[::-1])


def tensor_weights(rule: QuadratureRule1D, dim: int) -> np.ndarray:
    """Tensor-product weights on the Gauss lattice (length n^dim)."""
    return tensor_kron([rule.weights] * dim)
