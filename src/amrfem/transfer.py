"""Intergrid transfer between consecutive meshes.

Refinement interpolates parent values at child node locations (exact for the
represented field, hence conservative). Coarsening comes in two flavours:
plain injection of coinciding nodal values, and the conservative route that
restricts Gauss-point data onto merged parents and recovers nodal values by
a global mass solve.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .fem import GaussField, NodalField, eval_at_gauss, project_l2
from .mesh import CoarsenRecord, RefineRecord, enumerate_nodes
from .quadrature import child_lattice_values
from .restriction import apply_restriction, restriction_matrix

__all__ = [
    "TransferMode",
    "transfer_refine",
    "transfer_coarsen_injection",
    "transfer_coarsen_conservative",
    "restrict_gauss_field",
]


class TransferMode(Enum):
    INJECTION = "injection"
    CONSERVATIVE = "conservative"


@lru_cache(maxsize=None)
def _child_interp(dim: int, p: int, child: int) -> np.ndarray:
    """Parent basis evaluated at one child's node lattice: (n_loc, n_loc).

    The Kronecker product, over the axes, of the rows of
    ``child_lattice_values`` that hold the child's nodes.
    """
    table = child_lattice_values(p)

    def one_dim(bit: int) -> np.ndarray:
        return table[bit * p : bit * p + p + 1]  # (child nodes, parent)

    if dim == 1:
        return one_dim(child & 1)
    return np.kron(one_dim((child & 2) >> 1), one_dim(child & 1))


def transfer_refine(field: NodalField, record: RefineRecord) -> NodalField:
    """Parent-to-child transfer onto the refined mesh.

    New nodal values come from evaluating the parent element's basis at the
    child node locations; unchanged leaves copy their values. The represented
    function is unchanged, so every integral is preserved.
    """
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    if record.mesh_new is record.mesh_old:
        return NodalField(field.mesh, field.p, field.values.copy())
    old_elem_vals = field.element_values()
    nn_new = enumerate_nodes(record.mesh_new, field.p)
    node_vals = np.zeros(nn_new.n_nodes)
    for cid in (-1, *range(2**field.mesh.dim)):
        rows = np.nonzero(record.child_id == cid)[0]
        if len(rows) == 0:
            continue
        vals = old_elem_vals[record.source_leaf[rows]]
        if cid >= 0:
            vals = vals @ _child_interp(field.mesh.dim, field.p, cid).T
        node_vals[nn_new.elem_nodes[rows]] = vals
    return NodalField(record.mesh_new, field.p, node_vals[nn_new.dof_of_node >= 0])


def transfer_coarsen_injection(field: NodalField, record: CoarsenRecord) -> NodalField:
    """Keep fine nodal values that coincide with coarse nodes; drop the rest."""
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    if record.mesh_new is record.mesh_old:
        return NodalField(field.mesh, field.p, field.values.copy())
    nn_old = enumerate_nodes(record.mesh_old, field.p)
    nn_new = enumerate_nodes(record.mesh_new, field.p)
    old_vals = field.node_values()
    new_ind_keys = nn_new.node_keys[nn_new.dof_of_node >= 0]
    pos = np.searchsorted(nn_old.node_keys, new_ind_keys)
    if np.any(pos >= len(nn_old.node_keys)) or np.any(
        nn_old.node_keys[pos] != new_ind_keys
    ):
        raise ValueError("coarse node without a coinciding fine node")
    return NodalField(record.mesh_new, field.p, old_vals[pos])


def restrict_gauss_field(gf: GaussField, record: CoarsenRecord) -> GaussField:
    """Gauss-point stage of conservative coarsening.

    NO_CHANGE leaves copy their blocks verbatim; merged parents get the
    restriction of their children's blocks (children in Morton order).
    """
    if gf.mesh is not record.mesh_old:
        raise ValueError("gauss field does not live on the record's source mesh")
    n_new = record.mesh_new.n_leaves
    out = np.empty((n_new, gf.values.shape[1]))
    copies = record.copy_source >= 0
    out[copies] = gf.values[record.copy_source[copies]]
    if len(record.merges):
        blocks = gf.values[record.merges].reshape(len(record.merges), -1)
        matrix = restriction_matrix(gf.p, gf.n_q)
        out[~copies] = apply_restriction(matrix, gf.mesh.dim, blocks)
    return GaussField(record.mesh_new, gf.p, gf.n_q, out)


def transfer_coarsen_conservative(
    field: NodalField,
    record: CoarsenRecord,
    tol: float = 1e-12,
    n_q: int | None = None,
) -> NodalField:
    """Conservative child-to-parent transfer.

    Pipeline: evaluate the field at the fine Gauss lattice, restrict merged
    families onto parent Gauss points, then project back to nodal values
    with a global mass solve. The global integral survives to solver
    tolerance.
    """
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    if record.mesh_new is record.mesh_old:
        return NodalField(field.mesh, field.p, field.values.copy())
    gf_fine = eval_at_gauss(field, n_q)
    gf_coarse = restrict_gauss_field(gf_fine, record)
    return project_l2(gf_coarse, tol=tol)
