"""Per-module element assembly, kept as an oracle for ``amrfem.fem``.

These are the four hand-written copies of the element gather, weight,
scatter and constrain code that ``fem._element_rule``, ``_scatter_vector``
and ``_scatter_matrix`` replace: the mass/stiffness operator and the load
vector of ``fem``, and the f'(phi) vector and f''(phi) matrix of the
Cahn-Hilliard Newton system; the f''(phi) element matrices are one matmul
with the basis-product table, as in ``fem._gauss_mass``, and
``gauss_mass_einsum`` keeps the three-operand einsum that table replaced.
``scatter_matrix_reference`` is the COO sum
and T' A T product that ``fem._scatter_matrix`` replaces with a cached
summation map. ``tests/test_fem.py`` requires the kernels to reproduce them
bit for bit.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from amrfem.fem import GaussField, _tables
from amrfem.mesh import MeshTopology, NodeNumbering, enumerate_nodes


def _node_operator(mesh: MeshTopology, nn: NodeNumbering, kind: str) -> sp.csr_matrix:
    """Unconstrained mass or stiffness matrix over all geometric nodes (p + 1 rule)."""
    _, _, _, mass_ref, stiff_ref, _ = _tables(mesh.dim, nn.p, nn.p + 1)
    h = mesh.leaf_sizes_physical
    scale = (0.5 * h) ** mesh.dim
    if kind == "mass":
        ref = mass_ref
    else:  # gradient factor (2/h)^2 times the volume Jacobian
        scale, ref = scale * (2.0 / h) ** 2, stiff_ref
    n_loc = ref.shape[0]
    rows = np.repeat(nn.elem_nodes, n_loc, axis=1).ravel()
    cols = np.tile(nn.elem_nodes, (1, n_loc)).ravel()
    data = (scale[:, None, None] * ref[None, :, :]).ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=(nn.n_nodes, nn.n_nodes)).tocsr()


def element_sum_reference(nn: NodeNumbering, elem_mats: np.ndarray) -> sp.csr_matrix:
    """A = sum_e A_e over all geometric nodes, by a fresh COO-to-CSR sum."""
    n_loc = elem_mats.shape[1]
    rows = np.repeat(nn.elem_nodes, n_loc, axis=1).ravel()
    cols = np.tile(nn.elem_nodes, (1, n_loc)).ravel()
    return sp.coo_matrix((elem_mats.ravel(), (rows, cols)), shape=(nn.n_nodes, nn.n_nodes)).tocsr()


def scatter_matrix_reference(nn: NodeNumbering, elem_mats: np.ndarray) -> sp.csr_matrix:
    """T' A T from per-leaf matrices, with both products even when T = I."""
    t = nn.constraint_matrix
    return (t.T @ (element_sum_reference(nn, elem_mats) @ t)).tocsr()


def assembled_reference(mesh: MeshTopology, p: int, kind: str) -> sp.csr_matrix:
    """Constrained global operator T' A T of one kind, uncached."""
    nn = enumerate_nodes(mesh, p)
    t = nn.constraint_matrix
    return (t.T @ (_node_operator(mesh, nn, kind) @ t)).tocsr()


def _gauss_rhs(gf: GaussField) -> np.ndarray:
    """Constrained load vector b_a = sum_q w_q |J| g_q N_a(x_q)."""
    nn = enumerate_nodes(gf.mesh, gf.p)
    b, _, w, _, _, _ = _tables(gf.mesh.dim, gf.p, gf.n_q)
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
    data = (wf @ table).ravel()
    rows = np.repeat(nn.elem_nodes, n_loc, axis=1).ravel()
    cols = np.tile(nn.elem_nodes, (1, n_loc)).ravel()
    mat = sp.coo_matrix((data, (rows, cols)), shape=(nn.n_nodes, nn.n_nodes)).tocsr()
    t = nn.constraint_matrix
    return (t.T @ (mat @ t)).tocsr()


def gauss_mass_einsum(gf: GaussField) -> np.ndarray:
    """Element matrices sum_q w_q |J| c_q N_a(x_q) N_b(x_q), by einsum."""
    b, _, w, _, _, _ = _tables(gf.mesh.dim, gf.p, gf.n_q)
    jac = (0.5 * gf.mesh.leaf_sizes_physical) ** gf.mesh.dim
    return np.einsum("eq,aq,bq->eab", gf.values * w[None, :] * jac[:, None], b, b)
