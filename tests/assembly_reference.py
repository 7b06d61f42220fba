"""Per-module element assembly, kept as an oracle for ``amrfem.fem``.

These are the four hand-written copies of the element gather, weight,
scatter and constrain code that ``fem._element_rule``, ``_scatter_vector``
and ``_scatter_matrix`` replace: the mass/stiffness operator and the load
vector of ``fem``, and the f'(phi) vector and f''(phi) matrix of the
Cahn-Hilliard Newton system; the f''(phi) element matrices are one matmul
with the basis-product table, as in ``fem._gauss_mass``, and
``gauss_mass_einsum`` keeps the three-operand einsum that table replaced.
``element_order_sum`` adds each assembled entry's element terms from zero
in element order with ``np.add.at``, into a pattern found by ``np.unique``:
the order ``fem._scatter_matrix`` promises, independent of SciPy's sort and
of its bincount. ``element_sum_reference`` is SciPy's COO sum, which agrees
with it bit for bit for Q1 only (``std::sort`` of a row of at most 16 terms
is a stable insertion sort; Q2 rows are longer and its ties fall otherwise),
and ``scatter_matrix_reference`` folds either through T' A T.
``tests/test_fem.py`` requires the kernels to reproduce them bit for bit.

``l2_error_vs_exact`` keeps the general-rule path the MMS L2 error took
while ``GaussField`` carried its own rule: Gauss values on n_q points per
axis, then the weighted sum of ``fem.integrate_gauss``, at n_q = p + 3.
``tests/test_runs.py`` requires ``runs._l2_error_vs_exact`` to reproduce it
bit for bit.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from amrfem.fem import GaussField, NodalField, _tables, gauss_point_coords
from amrfem.mesh import MeshTopology, NodeNumbering, enumerate_nodes
from amrfem.models import DiffusionProblem, mms_exact


def _node_operator(mesh: MeshTopology, nn: NodeNumbering, kind: str) -> sp.csr_matrix:
    """Unconstrained mass or stiffness matrix over all geometric nodes (p + 1 rule)."""
    _, _, _, mass_ref, stiff_ref, _ = _tables(mesh.dim, nn.p, nn.p + 1)
    h = mesh.leaf_sizes_physical
    scale = (0.5 * h) ** mesh.dim
    if kind == "mass":
        ref = mass_ref
    else:  # gradient factor (2/h)^2 times the volume Jacobian
        scale, ref = scale * (2.0 / h) ** 2, stiff_ref
    return element_order_sum(nn, scale[:, None, None] * ref[None, :, :])


def _entry_nodes(nn: NodeNumbering, n_loc: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column node of every element entry, (leaf, a, b) raveled."""
    rows = np.repeat(nn.elem_nodes, n_loc, axis=1).ravel()
    cols = np.tile(nn.elem_nodes, (1, n_loc)).ravel()
    return rows, cols


def element_order_sum(nn: NodeNumbering, elem_mats: np.ndarray) -> sp.csr_matrix:
    """A = sum_e A_e, each entry summed from zero in element order (``np.add.at``)."""
    rows, cols = _entry_nodes(nn, elem_mats.shape[1])
    pattern, slot = np.unique(rows * nn.n_nodes + cols, return_inverse=True)
    data = np.zeros(len(pattern))
    np.add.at(data, slot, elem_mats.ravel())
    indptr = np.searchsorted(pattern // nn.n_nodes, np.arange(nn.n_nodes + 1))
    return sp.csr_matrix((data, pattern % nn.n_nodes, indptr), shape=(nn.n_nodes, nn.n_nodes))


def element_sum_reference(nn: NodeNumbering, elem_mats: np.ndarray) -> sp.csr_matrix:
    """A = sum_e A_e over all geometric nodes, by a fresh COO-to-CSR sum."""
    rows, cols = _entry_nodes(nn, elem_mats.shape[1])
    return sp.coo_matrix((elem_mats.ravel(), (rows, cols)), shape=(nn.n_nodes, nn.n_nodes)).tocsr()


def scatter_matrix_reference(nn: NodeNumbering, elem_mats: np.ndarray, element_sum) -> sp.csr_matrix:
    """T' A T from per-leaf matrices, A by ``element_sum``, with both products even when T = I."""
    t = nn.constraint_matrix
    return (t.T @ (element_sum(nn, elem_mats) @ t)).tocsr()


def assembled_reference(mesh: MeshTopology, p: int, kind: str) -> sp.csr_matrix:
    """Constrained global operator T' A T of one kind, uncached."""
    nn = enumerate_nodes(mesh, p)
    t = nn.constraint_matrix
    return (t.T @ (_node_operator(mesh, nn, kind) @ t)).tocsr()


def _gauss_rhs(gf: GaussField) -> np.ndarray:
    """Constrained load vector b_a = sum_q w_q |J| g_q N_a(x_q)."""
    nn = enumerate_nodes(gf.mesh, gf.p)
    b, _, w, _, _, _ = _tables(gf.mesh.dim, gf.p, gf.p + 1)
    jac = (0.5 * gf.mesh.leaf_sizes_physical) ** gf.mesh.dim
    contrib = (gf.values * w[None, :]) @ b.T * jac[:, None]
    rhs = np.bincount(nn.elem_nodes.ravel(), weights=contrib.ravel(), minlength=nn.n_nodes)
    return nn.constraint_matrix.T @ rhs


def _nonlinear_rhs(mesh: MeshTopology, p: int, phi_vals: np.ndarray, fe) -> np.ndarray:
    """Constrained vector of integral f'(phi) N_a using the element rule."""
    nn = enumerate_nodes(mesh, p)
    b, _, w, _, _, _ = _tables(mesh.dim, p, p + 1)
    node_vals = nn.node_values(phi_vals)
    gauss = node_vals[nn.elem_nodes] @ b
    jac = (0.5 * mesh.leaf_sizes_physical) ** mesh.dim
    contrib = (fe.df(gauss) * w[None, :]) @ b.T * jac[:, None]
    out = np.bincount(nn.elem_nodes.ravel(), weights=contrib.ravel(), minlength=nn.n_nodes)
    return nn.constraint_matrix.T @ out


def _nonlinear_jacobian(mesh: MeshTopology, p: int, phi_vals: np.ndarray, fe) -> sp.csr_matrix:
    """Constrained matrix of integral f''(phi) N_a N_b."""
    nn = enumerate_nodes(mesh, p)
    b, _, w, _, _, _ = _tables(mesh.dim, p, p + 1)
    node_vals = nn.node_values(phi_vals)
    gauss = node_vals[nn.elem_nodes] @ b
    jac = (0.5 * mesh.leaf_sizes_physical) ** mesh.dim
    wf = fe.d2f(gauss) * w[None, :] * jac[:, None]  # (n_e, n_q)
    n_loc = b.shape[0]
    table = (b[:, None, :] * b[None, :, :]).reshape(n_loc * n_loc, -1).T  # N_a N_b at q
    mat = element_order_sum(nn, (wf @ table).reshape(len(wf), n_loc, n_loc))
    t = nn.constraint_matrix
    return (t.T @ (mat @ t)).tocsr()


def gauss_mass_einsum(gf: GaussField) -> np.ndarray:
    """Element matrices sum_q w_q |J| c_q N_a(x_q) N_b(x_q), by einsum."""
    b, _, w, _, _, _ = _tables(gf.mesh.dim, gf.p, gf.p + 1)
    jac = (0.5 * gf.mesh.leaf_sizes_physical) ** gf.mesh.dim
    return np.einsum("eq,aq,bq->eab", gf.values * w[None, :] * jac[:, None], b, b)


def _gauss_values(field: NodalField, n_q: int) -> np.ndarray:
    """Element values at the n_q-point Gauss lattice: the old ``eval_at_gauss(field, n_q)``."""
    b = _tables(field.mesh.dim, field.p, n_q)[0]
    return field.element_values() @ b


def _integrate(mesh: MeshTopology, p: int, n_q: int, values: np.ndarray) -> float:
    """Weighted pairwise sum on the n_q-point rule: the old ``integrate_gauss``."""
    w = _tables(mesh.dim, p, n_q)[2]
    jac = (0.5 * mesh.leaf_sizes_physical) ** mesh.dim
    return float(np.add.reduce(jac * (values @ w)))


def l2_error_vs_exact(field: NodalField, problem: DiffusionProblem, t: float) -> float:
    """L2 error against the manufactured solution on the p + 3 rule."""
    n_q = field.p + 3
    values = _gauss_values(field, n_q)
    pts = gauss_point_coords(field.mesh, n_q)
    exact = mms_exact(pts[:, :, 0], pts[:, :, 1], t, problem)
    return float(np.sqrt(_integrate(field.mesh, field.p, n_q, (values - exact) ** 2)))
