"""Intergrid transfer between consecutive meshes.

Refinement interpolates parent values at child node locations (exact for the
represented field, hence conservative). It is element-local: each leaf of
the refined mesh gets its row of local node values from one source leaf, so
``refine_leaf_field`` needs no node numbering of the refined mesh; its
``nodal()`` scatters those rows through one. Coarsening comes in two
flavours, both of which read the fine field only through its element values,
so they accept a ``LeafField`` from ``refine_leaf_field`` as well as a
``NodalField``: plain injection of coinciding nodal values, leaf by leaf, and
the conservative route that restricts Gauss-point data onto merged parents
and recovers nodal values by a global mass solve on the coarse mesh.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import MeshStateError
from .fem import GaussField, LeafField, NodalField, eval_at_gauss, project_l2
from .mesh import CoarsenRecord, RefineRecord
from .quadrature import child_lattice_values, lattice, tensor_kron
from .restriction import apply_restriction, restriction_matrix

__all__ = [
    "TransferMode",
    "refine_leaf_field",
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

    The ``tensor_kron``, over the axes, of the rows of
    ``child_lattice_values`` that hold the child's nodes; Morton child
    ``child`` sits at ``lattice(2, dim)[child]``, so its bit on each axis
    picks rows ``bit * p ... bit * p + p``.
    """
    table = child_lattice_values(p)
    return tensor_kron([table[bit * p : bit * p + p + 1] for bit in lattice(2, dim)[child]])


@lru_cache(maxsize=None)
def _parent_nodes_in_children(dim: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each parent node sits among its children's nodes.

    Returns (child, node), two (n_loc,) arrays: parent node a coincides with
    local node ``node[a]`` of Morton child ``child[a]``, the first child whose
    ``_child_interp`` row there is the unit vector e_a.
    """
    found = {}
    for c in range(2**dim):
        for b, row in enumerate(_child_interp(dim, p, c)):
            hits = np.flatnonzero(row)
            if len(hits) == 1 and row[hits[0]] == 1.0:
                found.setdefault(int(hits[0]), (c, b))
    child, node = np.array([found[a] for a in range(len(found))]).T
    return child, node


def refine_leaf_field(field: NodalField, record: RefineRecord) -> LeafField:
    """Parent-to-child transfer, leaf by leaf, onto the refined mesh.

    Unchanged leaves copy their rows of element values; a child takes its
    parent's row times the parent basis at its nodes. The refined mesh is
    checked for 2:1 balance but not numbered. The rows are written to the
    nodes, if at all, unchanged leaves first, then children by child index.
    """
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    mesh = record.mesh_new
    if not mesh.is_balanced():
        raise MeshStateError(f"refinement left no 2:1 balanced tiling: {mesh.defect}")
    # np.take: row gathers of (n, n_loc) arrays by fancy indexing are several
    # times slower
    groups = [np.flatnonzero(record.child_id == cid) for cid in range(-1, 2**mesh.dim)]
    old = field.element_values()
    # (k, n_leaves, n_loc): one product per column, so BLAS picks a single field's kernel
    columns = np.moveaxis(np.atleast_3d(old), 2, 0)
    blocks = [np.take(columns, record.source_leaf[g], axis=1) for g in groups]
    blocks[1:] = [b @ _child_interp(mesh.dim, field.p, c).T for c, b in enumerate(blocks[1:])]
    order = np.concatenate(groups)
    rows = np.empty((mesh.n_leaves,) + old.shape[1:])
    np.moveaxis(np.atleast_3d(rows), 2, 0)[:, order] = np.concatenate(blocks, axis=1)
    return LeafField(mesh, field.p, rows, write_order=order)


def transfer_coarsen_injection(
    field: NodalField | LeafField, record: CoarsenRecord
) -> NodalField:
    """Keep fine nodal values that coincide with coarse nodes; drop the rest.

    Leaf-local: an unchanged leaf keeps its row of element values, and a
    merged parent reads each of its nodes off the child that has it.
    """
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    fine = field.element_values()
    rows = np.empty((record.mesh_new.n_leaves,) + fine.shape[1:])
    copies = record.copy_source >= 0
    rows[copies] = np.take(fine, record.copy_source[copies], axis=0)
    if len(record.merges):
        child, node = _parent_nodes_in_children(field.mesh.dim, field.p)
        rows[~copies] = fine[record.merges[:, child], node]
    return LeafField(record.mesh_new, field.p, rows).nodal()


def restrict_gauss_field(gf: GaussField, record: CoarsenRecord) -> GaussField:
    """Gauss-point stage of conservative coarsening.

    Unchanged leaves copy their blocks verbatim; merged parents get the
    restriction of their children's blocks (children in Morton order).
    """
    if gf.mesh is not record.mesh_old:
        raise ValueError("gauss field does not live on the record's source mesh")
    n_new = record.mesh_new.n_leaves
    out = np.empty((n_new, gf.values.shape[1]))
    copies = record.copy_source >= 0
    out[copies] = np.take(gf.values, record.copy_source[copies], axis=0)
    if len(record.merges):
        blocks = np.take(gf.values, record.merges, axis=0).reshape(len(record.merges), -1)
        matrix = restriction_matrix(gf.p, gf.n_q)
        out[~copies] = apply_restriction(matrix, gf.mesh.dim, blocks)
    return GaussField(record.mesh_new, gf.p, gf.n_q, out)


def transfer_coarsen_conservative(
    field: NodalField | LeafField,
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
    if record.mesh_new is record.mesh_old:  # nothing merged: injection copies the values
        return transfer_coarsen_injection(field, record)
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    gf_fine = eval_at_gauss(field, n_q)
    gf_coarse = restrict_gauss_field(gf_fine, record)
    return project_l2(gf_coarse, tol=tol)
