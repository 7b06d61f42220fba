"""Test oracle: exact L2 distance between a field and its coarsened transfer."""
import numpy as np

from amrfem.fem import NodalField, _tables
from amrfem.mesh import CoarsenRecord
from amrfem.transfer import _child_interp


def coarsen_l2_distance(fine: NodalField, coarse: NodalField, record: CoarsenRecord) -> float:
    """||fine - coarse|| in L2, integrated leaf by leaf over the fine mesh.

    Copied leaves compare element values directly; a merged parent is
    prolonged to its children with the parent basis, as ``refine_leaf_field``
    does. Each leaf's difference is weighted by the reference mass matrix
    and the Jacobian, which integrates the squared difference exactly.
    """
    mesh = record.mesh_old
    dim, p = mesh.dim, fine.p
    fine_ev = fine.element_values()
    coarse_ev = coarse.element_values()
    diff = np.empty_like(fine_ev)
    copies = record.copy_source >= 0
    diff[record.copy_source[copies]] = fine_ev[record.copy_source[copies]] - coarse_ev[copies]
    parents = coarse_ev[~copies]  # row k merges the children in merges[k]
    for c in range(2**dim):
        children = record.merges[:, c]  # Morton child c of every merged parent
        diff[children] = fine_ev[children] - parents @ _child_interp(dim, p, c).T
    mass_ref = _tables(dim, p, p + 1)[3]
    jac = (0.5 * mesh.leaf_sizes_physical) ** dim
    sq = float(np.einsum("ea,ab,eb->e", diff, mass_ref, diff) @ jac)
    return float(np.sqrt(max(sq, 0.0)))
