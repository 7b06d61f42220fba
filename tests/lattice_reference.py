"""The tensor-lattice order as each module spelled it out, kept as an oracle.

Before ``quadrature.lattice`` and ``quadrature.tensor_kron`` owned the
order (lexicographic, x fastest), every module wrote it its own way, with
its own ``dim == 1`` branch: ``np.kron`` with the axes reversed (the
element tables and the child interpolation), a ``kron`` loop (the tensor
weights), ``tile``/``repeat`` (Gauss coordinates and local nodes),
``meshgrid`` (uniform meshes), a hand-written child-offset table and a
two-axis key encoder with its own decoders. These are those forms.
``tests/test_lattice.py`` requires the library to reproduce them bit for
bit.
"""
from __future__ import annotations

import numpy as np

from amrfem.mesh import MAX_LEVEL, MeshTopology, _constraint_matrix, _morton_keys
from amrfem.quadrature import child_lattice_values, element_nodal_basis, gauss_legendre
from topology_reference import _KEY_SHIFT, _encode_keys

_DOMAIN = 1 << MAX_LEVEL


def tensor_weights(rule, dim: int) -> np.ndarray:
    w = rule.weights
    out = w
    for _ in range(dim - 1):
        out = np.kron(w, out)  # slower axis appended on the left
    return out


def tables(dim: int, p: int, n_q: int):
    """(B, grads, w, mass_ref, stiff_ref) of the reference element."""
    rule = gauss_legendre(n_q)
    basis = element_nodal_basis(p)
    vals = basis.values_at(rule.points)
    ders = basis.derivs_at(rule.points)
    if dim == 1:
        b, grads = vals, (ders,)
    else:
        b = np.kron(vals, vals)
        grads = (np.kron(vals, ders), np.kron(ders, vals))  # d/dx, d/dy
    w = tensor_weights(rule, dim)
    mass_ref = (b * w[None, :]) @ b.T
    stiff_ref = sum((g * w[None, :]) @ g.T for g in grads)
    return b, grads, w, mass_ref, stiff_ref


def child_interp(dim: int, p: int, child: int) -> np.ndarray:
    table = child_lattice_values(p)

    def one_dim(bit: int) -> np.ndarray:
        return table[bit * p : bit * p + p + 1]  # (child nodes, parent)

    if dim == 1:
        return one_dim(child & 1)
    return np.kron(one_dim((child & 2) >> 1), one_dim(child & 1))


def gauss_point_coords(mesh: MeshTopology, n_q: int) -> np.ndarray:
    rule = gauss_legendre(n_q)
    dim = mesh.dim
    if dim == 1:
        ref = rule.points[:, None]
    else:
        # lexicographic lattice: x fastest
        ref = np.column_stack([np.tile(rule.points, n_q), np.repeat(rule.points, n_q)])
    h = mesh.leaf_sizes_physical
    lo = np.ldexp(mesh.anchors.astype(float), -MAX_LEVEL)
    centers = lo + 0.5 * h[:, None]
    return centers[:, None, :] + 0.5 * h[:, None, None] * ref[None, :, :]


def uniform_leaves(dim: int, level: int):
    """(levels, anchors) of the uniform mesh, in Morton order."""
    n = 1 << level
    h = 1 << (MAX_LEVEL - level)
    if dim == 1:
        anchors = (np.arange(n, dtype=np.int64) * h)[:, None]
    else:
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        anchors = np.column_stack([ix.ravel(), iy.ravel()]).astype(np.int64) * h
    levels = np.full(len(anchors), level, dtype=np.int32)
    order = np.argsort(_morton_keys(anchors, dim), kind="stable")
    return levels[order], anchors[order]


def numbering(mesh: MeshTopology, p: int):
    """(node_keys, elem_nodes, node_coords) of the degree-p node numbering."""
    dim = mesh.dim
    n_loc = (p + 1) ** dim
    sizes = mesh.leaf_sizes
    # Node lattice at twice the anchor resolution keeps Q2 midpoints integral.
    steps = (2 * sizes) // p  # distance between nodes along one axis
    idx_1d = np.arange(p + 1, dtype=np.int64)
    if dim == 1:
        kx = 2 * mesh.anchors[:, 0:1] + idx_1d[None, :] * steps[:, None]
        keys = _encode_keys(kx, None).reshape(-1)
    else:
        ix = np.tile(idx_1d, p + 1)  # lexicographic: x fastest
        iy = np.repeat(idx_1d, p + 1)
        kx = 2 * mesh.anchors[:, 0:1] + ix[None, :] * steps[:, None]
        ky = 2 * mesh.anchors[:, 1:2] + iy[None, :] * steps[:, None]
        keys = _encode_keys(kx, ky).reshape(-1)

    node_keys, inverse = np.unique(keys, return_inverse=True)
    elem_nodes = inverse.reshape(mesh.n_leaves, n_loc).astype(np.int64)
    if dim == 1:
        coords = (node_keys.astype(float) / (2.0 * _DOMAIN))[:, None]
    else:
        coords = np.column_stack(
            [
                (node_keys >> _KEY_SHIFT).astype(float) / (2.0 * _DOMAIN),
                (node_keys & np.int64((1 << 32) - 1)).astype(float) / (2.0 * _DOMAIN),
            ]
        )
    return node_keys, elem_nodes, coords


def constraints(mesh: MeshTopology, p: int, n_nodes: int, elem_nodes: np.ndarray):
    """(dof_of_node, T) from the hanging nodes read off the leaves' node rows."""
    if mesh.dim == 1:  # faces are points: nothing hangs
        hanging = np.empty(0, np.int64), np.empty((0, p + 1), np.int64), np.empty((0, p + 1))
    else:
        table = mesh._face_neighbours
        face, fine = np.nonzero((table >= 0) & (mesh.levels[table] == mesh.levels - 1))
        j = table[face, fine]
        axis, side = face >> 1, face & 1
        upper = mesh.anchors[fine, 1 - axis] > mesh.anchors[j, 1 - axis]
        t = (upper * p + 1) % 2
        offset = upper * p + t
        # elem_nodes runs x fastest: node (ix, iy) is column ix + (p + 1) * iy.
        normal, tangent = np.array([1, p + 1])[axis], np.array([p + 1, 1])[axis]
        nodes = elem_nodes[fine, side * p * normal + t * tangent]
        along = np.arange(p + 1) * tangent[:, None]
        masters = elem_nodes[j[:, None], ((1 - side) * p * normal)[:, None] + along]
        nodes, first = np.unique(nodes, return_index=True)
        hanging = nodes, masters[first], child_lattice_values(p)[offset[first]]
    return _constraint_matrix(n_nodes, *hanging)


def dissection_order(node_keys: np.ndarray, dof_of_node: np.ndarray, dim: int) -> np.ndarray:
    keys = node_keys[dof_of_node >= 0]
    extent = 2 * _DOMAIN  # node lattice points run over [0, extent]
    bits = MAX_LEVEL + 1  # one bisection per bit of a coordinate
    coords = [keys] if dim == 1 else [keys >> _KEY_SHIFT, keys & np.int64((1 << 32) - 1)]
    # c = odd * 2^t lies on an axis midline at depth dim * (bits - 1 - t) + axis.
    depth = np.full(len(keys), dim * bits)
    for axis, c in enumerate(coords):
        t = np.frexp((c & -c).astype(float))[1] - 1
        inside = (c > 0) & (c < extent)
        depth = np.minimum(depth, np.where(inside, dim * (bits - 1 - t) + axis, dim * bits))
    # x is the more significant bit of each pair, so it splits first.
    lattice = np.column_stack([np.minimum(c, extent - 1) for c in reversed(coords)])
    path = _morton_keys(lattice, dim).astype(np.int64)
    short = dim * bits - depth
    padded = path | ((np.int64(1) << short) - 1)
    return np.argsort((padded << 6) | short, kind="stable")
