"""Per-leaf loop implementations of the quadtree topology, kept as an oracle.

These are the dict-walking loops that ``amrfem.mesh`` replaced with its
vectorised Morton neighbour search: the face-neighbour table, the 2:1
balance check, the refine balance closure and child construction,
sibling-family detection, the coarsen veto fixpoint and mesh rebuild, and
the hanging-node constraints with their chain folding.
``tests/test_mesh.py`` requires the library to reproduce their results
exactly. They are slow (a dict lookup per leaf, per direction, per level
walked) and only meant for small meshes. ``locate`` is a test helper that
finds the leaf under a physical point. ``_child_offsets`` and
``_encode_keys`` are the library's former child-offset table and two-axis
node-key encoder, which these loops still use.

``searched_constraints`` is fast enough for benchmark-size meshes: the
vectorised hanging-node rule that encodes the lattice keys of each hanging
node and its masters and looks them up in the sorted node keys, which the
library replaced by reading both off the leaves' own node rows.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from amrfem.errors import MeshStateError
from amrfem.mesh import MAX_LEVEL, MeshTopology, _faces
from amrfem.quadrature import child_lattice_values, element_nodal_basis

_DOMAIN = 1 << MAX_LEVEL


def _child_offsets(dim: int, half: int) -> np.ndarray:
    """Anchor offsets of the 2^dim children in Morton order."""
    if dim == 1:
        return np.array([[0], [half]], dtype=np.int64)
    return np.array([[0, 0], [half, 0], [0, half], [half, half]], dtype=np.int64)


_KEY_SHIFT = np.int64(32)


def _encode_keys(kx: np.ndarray, ky: np.ndarray | None) -> np.ndarray:
    if ky is None:
        return kx.astype(np.int64)
    return (kx.astype(np.int64) << _KEY_SHIFT) | ky.astype(np.int64)


def leaf_lookup(mesh: MeshTopology) -> dict:
    """(level, *anchor) -> leaf index."""
    return {
        (int(lv), *(int(a) for a in anchor)): i
        for i, (lv, anchor) in enumerate(zip(mesh.levels, mesh.anchors))
    }


def find_containing(lookup: dict, level: int, anchor: tuple) -> int | None:
    """Walk up from ``level`` to the root looking for the covering leaf."""
    for lv in range(level, -1, -1):
        mask = ~((1 << (MAX_LEVEL - lv)) - 1)
        idx = lookup.get((lv, *(a & mask for a in anchor)))
        if idx is not None:
            return idx
    return None


def locate(mesh: MeshTopology, point) -> int:
    """Leaf containing the physical ``point``; face ties go to the smaller anchor."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape != (mesh.dim,):
        raise ValueError(f"expected a {mesh.dim}-vector, got shape {point.shape}")
    if np.any(point < 0.0) or np.any(point > 1.0):
        raise ValueError(f"point {point} outside the unit domain")
    lattice = []
    for x in point:
        v = x * _DOMAIN
        i = int(np.floor(v))
        if i == v and i > 0:
            i -= 1  # tie toward the lexicographically smaller anchor
        lattice.append(min(i, _DOMAIN - 1))
    lattice = np.array([lattice], dtype=np.int64)
    idx = int(mesh.containing_leaves(lattice)[0])
    offset = lattice[0] - mesh.anchors[idx]
    if np.any(offset < 0) or np.any(offset >= mesh.leaf_sizes[idx]):
        raise MeshStateError(f"no leaf contains {point}")
    return idx


def face_neighbours(mesh: MeshTopology) -> np.ndarray:
    """The leaf containing each face probe, one row per (axis, side), -1 outside.

    The probe of a face is the anchor of the same-size cell across it; the
    containing leaf is found by walking up from the mesh's finest level.
    """
    lookup = leaf_lookup(mesh)
    finest = int(mesh.levels.max())
    table = np.full((2 * mesh.dim, mesh.n_leaves), -1, dtype=np.int64)
    for i in range(mesh.n_leaves):
        anchor = tuple(int(v) for v in mesh.anchors[i])
        cells = _face_cells(mesh.dim, anchor, 1 << (MAX_LEVEL - int(mesh.levels[i])))
        for row, cell in enumerate(cells):
            if all(0 <= v < _DOMAIN for v in cell):
                table[row, i] = find_containing(lookup, finest, cell)
    return table


def _face_cells(dim: int, anchor: tuple, h: int):
    """Anchors of the same-size cells across each face, in (axis, side) order."""
    if dim == 1:
        return ((anchor[0] - h,), (anchor[0] + h,))
    ax, ay = anchor
    return ((ax - h, ay), (ax + h, ay), (ax, ay - h), (ax, ay + h))


def is_balanced(mesh: MeshTopology) -> bool:
    """2:1 edge balance, leaf by leaf and face by face."""
    lookup = leaf_lookup(mesh)
    for i in range(mesh.n_leaves):
        li = int(mesh.levels[i])
        anchor = tuple(int(v) for v in mesh.anchors[i])
        for na in _face_cells(mesh.dim, anchor, 1 << (MAX_LEVEL - li)):
            if any(not 0 <= v < _DOMAIN for v in na):
                continue
            j = find_containing(lookup, li, na)
            if j is not None and li - mesh.levels[j] >= 2:
                return False
    return True


def refine(mesh: MeshTopology, mask: np.ndarray):
    """Balance closure and child construction: (levels, anchors, source_leaf, child_id)."""
    levels, anchors, sizes = mesh.levels, mesh.anchors, mesh.leaf_sizes
    flags = np.array(mask, dtype=bool)
    lookup = leaf_lookup(mesh)
    changed = True
    while changed:
        changed = False
        eff = levels + flags
        for i in range(mesh.n_leaves):
            anchor = tuple(int(v) for v in anchors[i])
            for na in _face_cells(mesh.dim, anchor, int(sizes[i])):
                if any(not 0 <= v < _DOMAIN for v in na):
                    continue
                j = find_containing(lookup, int(levels[i]), na)
                if j is not None and eff[i] - eff[j] >= 2:
                    flags[j] = True
                    changed = True
    return split(mesh, flags)


def split(mesh: MeshTopology, flags: np.ndarray):
    """Children of exactly the flagged leaves, without closure.

    Returns (levels, anchors, source_leaf, child_id).
    """
    dim = mesh.dim
    levels, anchors, sizes = mesh.levels, mesh.anchors, mesh.leaf_sizes
    new_levels, new_anchors, src, cid = [], [], [], []
    for i in range(mesh.n_leaves):
        if flags[i]:
            offs = _child_offsets(dim, int(sizes[i]) >> 1)
            for c in range(2**dim):
                new_levels.append(levels[i] + 1)
                new_anchors.append(anchors[i] + offs[c])
                src.append(i)
                cid.append(c)
        else:
            new_levels.append(levels[i])
            new_anchors.append(anchors[i])
            src.append(i)
            cid.append(-1)
    return (
        np.asarray(new_levels, dtype=np.int32),
        np.asarray(new_anchors, dtype=np.int64).reshape(-1, dim),
        np.asarray(src, dtype=np.int64),
        np.asarray(cid, dtype=np.int64),
    )


def sibling_families(mesh: MeshTopology, eligible: np.ndarray) -> list[tuple[int, int, tuple]]:
    """(first_child_index, parent_level, parent_anchor) of complete eligible families."""
    nchild = 2**mesh.dim
    levels, anchors = mesh.levels, mesh.anchors
    families = []
    i = 0
    while i <= mesh.n_leaves - nchild:
        li = int(levels[i])
        h = 1 << (MAX_LEVEL - li)
        anchor = tuple(int(a) for a in anchors[i])
        expected = np.asarray(anchor, dtype=np.int64)[None, :] + _child_offsets(mesh.dim, h)
        if (
            li > 0
            and eligible[i]
            and not any(a & ((h << 1) - 1) for a in anchor)
            and np.all(levels[i : i + nchild] == li)
            and np.array_equal(anchors[i : i + nchild], expected)
            and eligible[i : i + nchild].all()
        ):
            families.append((i, li - 1, anchor))
            i += nchild
        else:
            i += 1
    return families


def coarsen(mesh: MeshTopology, mask: np.ndarray):
    """Veto fixpoint and mesh rebuild: (levels, anchors, copy_source, merges)."""
    dim = mesh.dim
    nchild = 2**dim
    lookup = leaf_lookup(mesh)
    candidates = {
        (lv, anchor): start
        for start, lv, anchor in sibling_families(mesh, np.asarray(mask, dtype=bool))
    }

    def merge_survives(parent_level: int, parent_anchor: tuple) -> bool:
        hp = 1 << (MAX_LEVEL - parent_level)
        hc = hp >> 1
        if dim == 1:
            probes = [(parent_anchor[0] - hc,), (parent_anchor[0] + hp,)]
        else:
            ax, ay = parent_anchor
            probes = [(ax - hc, ay + k * hc) for k in range(2)]  # left edge
            probes += [(ax + hp, ay + k * hc) for k in range(2)]  # right edge
            probes += [(ax + k * hc, ay - hc) for k in range(2)]  # bottom edge
            probes += [(ax + k * hc, ay + hp) for k in range(2)]  # top edge
        fine_level = parent_level + 1
        for cell in probes:
            if any(not 0 <= v < _DOMAIN for v in cell):
                continue
            if (fine_level, *cell) in lookup:
                continue  # neighbour at parent_level+1 survives or merges: fine
            if find_containing(lookup, parent_level, cell) is not None:
                continue  # neighbour is at parent level or coarser
            if (fine_level, cell) not in candidates:
                return False  # finer region that does not merge up itself
        return True

    removed = True
    while removed:
        removed = False
        for key in list(candidates):
            if not merge_survives(*key):
                del candidates[key]
                removed = True

    first_child = {start: key for key, start in candidates.items()}
    new_levels, new_anchors, copy_source, merges = [], [], [], []
    i = 0
    while i < mesh.n_leaves:
        if i in first_child:
            lv, anchor = first_child[i]
            merges.append((len(new_levels), np.arange(i, i + nchild)))
            new_levels.append(lv)
            new_anchors.append(anchor)
            copy_source.append(-1)
            i += nchild
        else:
            new_levels.append(int(mesh.levels[i]))
            new_anchors.append(tuple(int(a) for a in mesh.anchors[i]))
            copy_source.append(i)
            i += 1
    return (
        np.asarray(new_levels, dtype=np.int32),
        np.asarray(new_anchors, dtype=np.int64).reshape(-1, dim),
        np.asarray(copy_source, dtype=np.int64),
        merges,
    )


def hanging_constraints(mesh: MeshTopology, p: int, node_keys: np.ndarray) -> dict:
    """Hanging node -> (independent master nodes, weights), chains folded."""
    if mesh.dim == 1:
        return {}
    basis = element_nodal_basis(p)
    lookup = leaf_lookup(mesh)
    raw: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {}

    def node_id(kx: int, ky: int) -> int:
        key = (kx << 32) | ky
        pos = int(np.searchsorted(node_keys, key))
        if pos >= len(node_keys) or node_keys[pos] != key:
            raise MeshStateError(f"lattice key {key} is not a mesh node")
        return pos

    for i in range(mesh.n_leaves):
        li = int(mesh.levels[i])
        if li == 0:
            continue
        h = 1 << (MAX_LEVEL - li)
        ax, ay = (int(v) for v in mesh.anchors[i])
        for (axis, side), na in zip(((0, 0), (0, 1), (1, 0), (1, 1)), _face_cells(2, (ax, ay), h)):
            if not (0 <= na[0] < _DOMAIN and 0 <= na[1] < _DOMAIN):
                continue
            if (li, *na) in lookup:
                continue  # conforming neighbour
            cmask = ~((h << 1) - 1)
            j = lookup.get((li - 1, na[0] & cmask, na[1] & cmask))
            if j is None:
                continue  # finer neighbours hang on us, handled from their side
            hn = 2 * h
            cax, cay = (int(v) for v in mesh.anchors[j])
            # Shared edge plane in node-lattice units (2x anchor resolution).
            plane = 2 * ((ax if axis == 0 else ay) + (h if side == 1 else 0))
            coarse_lo = 2 * (cay if axis == 0 else cax)
            master_pos = [coarse_lo + k * (2 * hn) // p for k in range(p + 1)]
            if axis == 0:
                masters = tuple(node_id(plane, mp) for mp in master_pos)
            else:
                masters = tuple(node_id(mp, plane) for mp in master_pos)
            my_lo = 2 * (ay if axis == 0 else ax)
            for k in range(p + 1):
                pos = my_lo + k * (2 * h) // p
                if pos in master_pos:
                    continue
                node = node_id(plane, pos) if axis == 0 else node_id(pos, plane)
                xi = 2.0 * (pos - coarse_lo) / (2.0 * hn) - 1.0
                weights = basis.values_at(xi)[:, 0]
                raw[node] = (masters, tuple(float(w) for w in weights))

    resolved = {}
    for node, (masters, weights) in raw.items():
        acc: dict[int, float] = {}
        stack = list(zip(masters, weights))
        depth = 0
        while stack:
            m, w = stack.pop()
            if m in raw:
                depth += 1
                if depth > 4 * len(raw) + 8:
                    raise MeshStateError("cyclic hanging-node constraints")
                mm, mw = raw[m]
                stack.extend((a, w * b) for a, b in zip(mm, mw))
            else:
                acc[m] = acc.get(m, 0.0) + w
        items = sorted(acc.items())
        resolved[node] = (tuple(k for k, _ in items), tuple(v for _, v in items))
    return resolved


def constraint_matrix(n_nodes: int, hanging: dict) -> sp.csr_matrix:
    """T mapping independent dof values to all node values, entry by entry."""
    dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
    independent = np.setdiff1d(
        np.arange(n_nodes), np.fromiter(hanging.keys(), dtype=np.int64, count=len(hanging))
    )
    dof_of_node[independent] = np.arange(len(independent))
    rows, cols, vals = [independent], [dof_of_node[independent]], [np.ones(len(independent))]
    for node, (masters, weights) in hanging.items():
        for m, w in zip(masters, weights):
            rows.append(np.array([node]))
            cols.append(np.array([dof_of_node[m]]))
            vals.append(np.array([w]))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_nodes, len(independent)),
    )


def searched_constraints(mesh: MeshTopology, p: int, node_keys: np.ndarray):
    """Hanging nodes on coarse/fine edges: (nodes, master nodes, weights).

    Per face, the fine leaves whose neighbour is one level coarser; for each,
    the lattice keys of its hanging node and of the coarse edge's p + 1
    masters, looked up in ``node_keys``. The weights are row k of
    ``child_lattice_values``, k being the hanging node's offset along the
    coarse edge in child-node spacings.
    """
    if mesh.dim == 1:
        return np.empty(0, np.int64), np.empty((0, p + 1), np.int64), np.empty((0, p + 1))
    k = np.arange(p + 1, dtype=np.int64)
    points, offsets = [], []
    for axis, side in _faces(2):
        j = mesh._face_neighbours[2 * axis + side]
        fine = np.flatnonzero((j >= 0) & (mesh.levels[j] == mesh.levels - 1))
        j = j[fine]
        h = mesh.leaf_sizes[fine]
        # Shared edge plane and positions along it, in node-lattice units
        # (2x anchor resolution); child nodes are 2h/p apart.
        plane = 2 * (mesh.anchors[fine, axis] + side * h)
        coarse_lo = 2 * mesh.anchors[j, 1 - axis]
        upper = mesh.anchors[fine, 1 - axis] > mesh.anchors[j, 1 - axis]
        offset = upper[:, None] * p + k
        # Masters sit at even offsets; the fine edge nodes between them hang.
        row, col = np.nonzero(offset % 2)
        # One row per hanging node: the node itself, then its masters.
        steps = np.column_stack([offset[row, col], np.broadcast_to(2 * k, (len(row), p + 1))])
        along = coarse_lo[row, None] + steps * (2 * h[row, None] // p)
        across = np.broadcast_to(plane[row, None], along.shape)
        points.append((across, along) if axis == 0 else (along, across))
        offsets.append(offset[row, col])
    keys = np.concatenate([_encode_keys(kx, ky) for kx, ky in points])
    ids = np.minimum(np.searchsorted(node_keys, keys), len(node_keys) - 1)
    missing = np.flatnonzero(node_keys[ids] != keys)
    if missing.size:
        raise MeshStateError(f"lattice key {keys.flat[missing[0]]} is not a mesh node")
    nodes, first = np.unique(ids[:, 0], return_index=True)
    return nodes, ids[first, 1:], child_lattice_values(p)[np.concatenate(offsets)[first]]
