"""Node-numbering implementations of refinement and injection, kept as an oracle.

These number both meshes of a transfer: ``transfer_refine`` scatters the
interpolated child rows onto the refined mesh's nodes (unchanged leaves
first, then children by child index, the last write winning), and
``transfer_coarsen_injection`` finds every independent coarse node among the
fine mesh's sorted node keys. ``amrfem.transfer`` replaced them with
leaf-local versions that number only the mesh they return
(``refine_leaf_field`` followed by ``LeafField.nodal``, and
``transfer_coarsen_injection``); ``tests/test_transfer.py`` requires the
same values, bit for bit, on NodalFields.
"""
from __future__ import annotations

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
