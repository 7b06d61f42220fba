"""Intergrid transfer between consecutive meshes.

Refinement interpolates parent values at child node locations (exact for the
represented field, hence conservative). It is element-local: each leaf of
the refined mesh gets its row of local node values from one source leaf, so
``refine_leaf_field`` needs no node numbering of the refined mesh; its
``nodal()`` scatters those rows through one. Both coarsenings read the fine
field only through per-leaf rows, so they accept a ``LeafField`` from
``refine_leaf_field`` as well as a ``NodalField``, and share one kernel: an
unchanged leaf copies its row and a merged family goes through
``apply_restriction``. Injection reduces element values with the 0/1
``injection_matrix``, exact for finite values; the conservative route
reduces Gauss-point values with ``restriction_matrix`` and recovers nodal
values by a global mass solve on the coarse mesh.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import MeshStateError
from .fem import GaussField, LeafField, NodalField, eval_at_gauss, project_l2
from .mesh import CoarsenRecord, RefineRecord
from .quadrature import child_lattice_values, lattice, tensor_kron
from .restriction import apply_restriction, injection_matrix, restriction_matrix

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


def _coarsen_rows(rows: np.ndarray, record: CoarsenRecord, matrix: np.ndarray) -> np.ndarray:
    """Per-leaf rows (a field axis carried) on the coarsened mesh.

    An unchanged leaf copies its row; a merged parent reduces its children's
    rows (Morton order) through ``apply_restriction`` with the 1D ``matrix``.
    """
    out = np.empty((record.mesh_new.n_leaves,) + rows.shape[1:])
    copies = record.copy_source >= 0
    out[copies] = np.take(rows, record.copy_source[copies], axis=0)
    if len(record.merges):
        blocks = np.take(rows, record.merges, axis=0)
        blocks = blocks.reshape((len(record.merges), -1) + rows.shape[2:])
        out[~copies] = apply_restriction(matrix, record.mesh_old.dim, blocks)
    return out


def transfer_coarsen_injection(
    field: NodalField | LeafField, record: CoarsenRecord
) -> NodalField:
    """Keep fine nodal values that coincide with coarse nodes; drop the rest.

    Leaf-local: an unchanged leaf keeps its row of element values, and a
    merged parent reads each of its nodes off the first child that has it
    (the 0/1 ``injection_matrix``).
    """
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    rows = _coarsen_rows(field.element_values(), record, injection_matrix(field.p))
    return LeafField(record.mesh_new, field.p, rows).nodal()


def restrict_gauss_field(gf: GaussField, record: CoarsenRecord) -> GaussField:
    """Gauss-point stage of conservative coarsening: ``restriction_matrix`` per family."""
    if gf.mesh is not record.mesh_old:
        raise ValueError("gauss field does not live on the record's source mesh")
    rows = _coarsen_rows(gf.values, record, restriction_matrix(gf.p, gf.n_q))
    return GaussField(record.mesh_new, gf.p, gf.n_q, rows)


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
    gf_fine = eval_at_gauss(field, n_q)
    gf_coarse = restrict_gauss_field(gf_fine, record)
    return project_l2(gf_coarse, tol=tol)
