"""Node-numbering implementations of refinement and injection, kept as an oracle.

These number both meshes of a transfer: ``transfer_refine`` scatters the
interpolated child rows onto the refined mesh's nodes (leaves in Morton
order, the last write winning), and
``transfer_coarsen_injection`` finds every independent coarse node among the
fine mesh's sorted node keys. ``amrfem.transfer`` replaced them with
leaf-local versions that number only the mesh they return
(``refine_leaf_field`` followed by ``LeafField.nodal``, and
``transfer_coarsen_injection``); ``tests/test_transfer.py`` requires the
same values, bit for bit, on NodalFields.

``parent_nodes_in_children`` is where the leaf-local injection once read a
merged parent's nodes: it searched the children's interpolation rows for
unit vectors. ``restriction.injection_matrix``, applied per axis, must pick
the same (child, node) pairs.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from amrfem.fem import NodalField
from amrfem.mesh import CoarsenRecord, RefineRecord, enumerate_nodes
from amrfem.transfer import _child_interp


def transfer_refine(field: NodalField, record: RefineRecord) -> NodalField:
    if field.mesh is not record.mesh_old:
        raise ValueError("field does not live on the record's source mesh")
    if record.mesh_new is record.mesh_old:
        return NodalField(field.mesh, field.p, field.values.copy())
    old_elem_vals = field.element_values()
    nn_new = enumerate_nodes(record.mesh_new, field.p)
    new_elem_vals = np.zeros(nn_new.elem_nodes.shape)
    for cid in (-1, *range(2**field.mesh.dim)):
        rows = np.nonzero(record.child_id == cid)[0]
        if len(rows) == 0:
            continue
        vals = old_elem_vals[record.source_leaf[rows]]
        if cid >= 0:
            vals = vals @ _child_interp(field.mesh.dim, field.p, cid).T
        new_elem_vals[rows] = vals
    node_vals = np.zeros(nn_new.n_nodes)
    node_vals[nn_new.elem_nodes] = new_elem_vals
    return NodalField(record.mesh_new, field.p, node_vals[nn_new.dof_of_node >= 0])


def transfer_coarsen_injection(field: NodalField, record: CoarsenRecord) -> NodalField:
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


@lru_cache(maxsize=None)
def parent_nodes_in_children(dim: int, p: int) -> tuple[np.ndarray, np.ndarray]:
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
