"""Balanced linear quadtree meshes on the unit square (1D line meshes too).

Leaves are stored in Morton (Z) order with integer anchors on the lattice of
the deepest admissible level. All topology rests on one lookup: in a tiling
sorted by Morton key, the leaf containing a lattice point is the last one
whose key is not above the point's (the linear-octree search of Sundar,
Sampath & Biros, SISC 2008), so a whole array of neighbour queries is one
``searchsorted``. Refinement and coarsening act one level at a time; 2:1
edge balance is enforced by promoting extra leaves during refinement and by
vetoing merges during coarsening. Each mesh keeps one face-neighbour table,
which the balance check, the refine closure, the coarsen veto and the
hanging-node constraints all read whole. A uniform mesh searches all its
faces once; a refined or coarsened mesh inherits its parent's table and
searches again only the faces of new leaves and of copies whose old
neighbour was split or merged (p4est likewise keeps its neighbour data
across an adaptation: Burstedde, Wilcox & Ghattas, SISC 2011). Node
enumeration builds the continuous-Galerkin numbering for a given degree,
including the hanging-node constraint matrix on coarse/fine interfaces:
wherever the table names a neighbour one level coarser, the hanging node
and its masters are read off the two leaves' own node rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

import numpy as np
import scipy.sparse as sp

from .errors import MeshStateError
from .quadrature import child_lattice_values, lattice

__all__ = [
    "MAX_LEVEL",
    "MeshTopology",
    "NodeNumbering",
    "RefineRecord",
    "CoarsenRecord",
    "build_uniform",
    "sibling_families",
    "execute_refine",
    "execute_coarsen",
    "enumerate_nodes",
]

MAX_LEVEL = 20
_DOMAIN = 1 << MAX_LEVEL  # lattice extent of [0, 1] per axis


def _morton_keys(anchors: np.ndarray, dim: int) -> np.ndarray:
    """Interleave anchor bits (bit0 = x) into sortable Z-order keys."""
    if dim == 1:
        return anchors[:, 0].astype(np.uint64)

    def spread(v):
        v = v.astype(np.uint64)
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        return v

    return spread(anchors[:, 0]) | (spread(anchors[:, 1]) << np.uint64(1))


def _or_columns(points: np.ndarray) -> np.ndarray:
    """Bitwise OR of each row's coordinates.

    It is negative, at least a given power of two, or has a given low bit
    set exactly when one of the coordinates is or has.
    """
    return reduce(or_, points.T)


def _faces(dim: int) -> list[tuple[int, int]]:
    """(axis, side) of every leaf face; side 0 = low, 1 = high."""
    return [(axis, side) for axis in range(dim) for side in (0, 1)]


class MeshTopology:
    """Leaves of one adapted mesh, immutable once constructed.

    ``levels`` and ``anchors`` are parallel arrays, normally sorted by Morton
    key; anchors are integer lattice coordinates at MAX_LEVEL resolution.
    The Morton keys are sorted once here (through a permutation, so any
    leaf order works). Node numberings for each polynomial degree are built
    lazily and cached, as are assembled operators (see fem.py).
    """

    def __init__(self, dim: int, levels: np.ndarray, anchors: np.ndarray):
        if dim not in (1, 2):
            raise ValueError(f"mesh dim must be 1 or 2, got {dim}")
        self.dim = dim
        self.levels = np.asarray(levels, dtype=np.int32)
        self.anchors = np.asarray(anchors, dtype=np.int64).reshape(len(levels), dim)
        keys = _morton_keys(self.anchors, dim)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]
        self._numberings: dict[int, "NodeNumbering"] = {}
        self._balanced: bool | None = None
        self.defect: str | None = None

    @property
    def n_leaves(self) -> int:
        return len(self.levels)

    @property
    def leaf_sizes(self) -> np.ndarray:
        """Edge length of each leaf in lattice units."""
        return (np.int64(1) << (MAX_LEVEL - self.levels)).astype(np.int64)

    @property
    def leaf_sizes_physical(self) -> np.ndarray:
        return np.ldexp(1.0, -self.levels)

    def containing_leaves(self, points: np.ndarray) -> np.ndarray:
        """Index of the leaf containing each lattice point, -1 outside the domain.

        Valid only on a tiling (see ``is_balanced``): the containing leaf is
        the one with the largest Morton key not above the point's.
        """
        pos = np.searchsorted(self._sorted_keys, _morton_keys(points, self.dim), side="right") - 1
        bits = _or_columns(points)
        return np.where((bits >= 0) & (bits < _DOMAIN), self._order[pos], -1)

    @cached_property
    def _face_neighbours(self) -> np.ndarray:
        """Each leaf's neighbour across each face, one row per (axis, side).

        Entry (2 * axis + side, i) is the leaf containing the anchor of the
        same-size cell across that face of leaf i (``side`` 0 = low, 1 =
        high): the neighbour itself when it is as coarse or coarser, else
        the finer leaf in that cell's anchor corner; -1 on the domain
        boundary. Every consumer reads the whole table at once.

        ``execute_refine`` and ``execute_coarsen`` set it on the meshes they
        make (see ``_inherit_face_neighbours``); other meshes search all
        faces on first use.
        """
        return self._search_faces()

    def _search_faces(self, leaves=None) -> np.ndarray:
        """Leaves across every face of ``leaves`` (default all), one row per (axis, side).

        The probe is the anchor of the same-size cell across the face.
        """
        sizes, anchors = self.leaf_sizes, self.anchors
        if leaves is not None:
            sizes, anchors = sizes[leaves], np.take(anchors, leaves, axis=0)
        probes = np.repeat(anchors[None], 2 * self.dim, axis=0)
        for row, (axis, side) in enumerate(_faces(self.dim)):
            probes[row, :, axis] += sizes if side else -sizes
        return self.containing_leaves(probes.reshape(-1, self.dim)).reshape(2 * self.dim, -1)

    def is_balanced(self) -> bool:
        """The leaves tile the domain and edge neighbours differ by at most one level.

        When this is False, ``defect`` names the failed invariant and the
        first offending leaf.
        """
        if self._balanced is None:
            self.defect = self._find_defect()
            self._balanced = self.defect is None
        return self._balanced

    def _find_defect(self) -> str | None:
        sizes = self.leaf_sizes
        misaligned = np.flatnonzero(_or_columns(self.anchors) & (sizes - 1))
        if misaligned.size:
            return f"leaf {misaligned[0]} is not aligned to its size"
        # Each leaf owns the Morton key range [key, key + size^dim).
        order, keys = self._order, self._sorted_keys
        ends = keys + (sizes[order] ** self.dim).astype(np.uint64)
        if keys[0] != 0:
            return f"leaf {order[0]}, first in Morton order, does not start at the domain origin"
        step = np.flatnonzero(ends[:-1] != keys[1:])
        if step.size:
            k = step[0]
            kind = "gap" if ends[k] < keys[k + 1] else "overlap"
            return f"{kind} after leaf {order[k]} in Morton order"
        if ends[-1] != np.uint64(_DOMAIN**self.dim):
            return f"leaf {order[-1]}, last in Morton order, does not end at the domain end"
        j = self._face_neighbours
        too_fine = np.any((j >= 0) & (self.levels - self.levels[j] >= 2), axis=0)
        if too_fine.any():
            return f"leaf {np.flatnonzero(too_fine)[0]} is two levels finer than an edge neighbour"
        return None


@dataclass
class RefineRecord:
    """Maps each leaf of the refined mesh back to its source leaf.

    ``child_id`` is the Morton child index for newly created leaves and -1
    for leaves copied unchanged.
    """

    mesh_old: MeshTopology
    mesh_new: MeshTopology
    source_leaf: np.ndarray
    child_id: np.ndarray


@dataclass
class CoarsenRecord:
    """Old-mesh provenance of every leaf of the coarsened mesh.

    ``copy_source[j]`` is the old leaf index for unchanged leaves and -1 for
    merged parents. Row k of ``merges`` (int64, shape (n_merge, 2^dim))
    holds the old child indices, in Morton order, of the k-th merged parent
    ``np.flatnonzero(copy_source < 0)[k]``.
    """

    mesh_old: MeshTopology
    mesh_new: MeshTopology
    copy_source: np.ndarray
    merges: np.ndarray


def build_uniform(dim: int, level: int) -> MeshTopology:
    """Uniform mesh of 2^(dim*level) leaves tiling the unit domain."""
    if dim not in (1, 2):
        raise ValueError(f"mesh dim must be 1 or 2, got {dim}")
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    anchors = lattice(1 << level, dim) << (MAX_LEVEL - level)
    levels = np.full(len(anchors), level, dtype=np.int32)
    order = np.argsort(_morton_keys(anchors, dim), kind="stable")
    return MeshTopology(dim, levels[order], anchors[order])


def _leaf_mask(mesh: MeshTopology, mask: np.ndarray) -> np.ndarray:
    """``mask`` checked to be bool with one entry per leaf.

    Integer flags are refused rather than cast: any nonzero value would
    read as True.
    """
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != (mesh.n_leaves,):
        raise ValueError(
            f"need a bool mask of {mesh.n_leaves} leaves, got {mask.dtype} of shape {mask.shape}"
        )
    return mask


def execute_refine(mesh: MeshTopology, refine: np.ndarray) -> tuple[MeshTopology, RefineRecord]:
    """Split the leaves where ``refine`` is True, then promote neighbours until 2:1 holds.

    The balance closure works on a copy: the caller's mask is not changed.
    Returns the original mesh object (with an identity record) when nothing
    is flagged, so downstream caches survive no-op cycles.
    """
    refine = _leaf_mask(mesh, refine).copy()
    if not refine.any():
        rec = RefineRecord(
            mesh,
            mesh,
            np.arange(mesh.n_leaves),
            np.full(mesh.n_leaves, -1, dtype=np.int64),
        )
        return mesh, rec

    levels = mesh.levels
    if np.any(levels[refine] >= MAX_LEVEL):
        raise ValueError("refinement would exceed MAX_LEVEL")

    # Balance closure: flagging a leaf can force coarser edge-neighbours to
    # refine as well. Effective levels are level + refine; sweep every
    # (leaf, coarser neighbour) pair at once until no flag changes.
    j = mesh._face_neighbours
    pairs = (j >= 0) & (levels > levels[j])
    fine, coarse = np.nonzero(pairs)[1], j[pairs]
    while True:
        eff = levels + refine
        promote = coarse[eff[fine] - eff[coarse] >= 2]
        if not promote.size:
            break
        refine[promote] = True

    nchild = 2**mesh.dim
    counts = np.where(refine, nchild, 1)
    src = np.repeat(np.arange(mesh.n_leaves), counts)
    rank = np.arange(len(src)) - (np.cumsum(counts) - counts)[src]
    split = refine[src]
    cid = np.where(split, rank, -1)
    half = mesh.leaf_sizes[src] >> 1
    offsets = lattice(2, mesh.dim)[rank] * half[:, None]
    new_anchors = np.take(mesh.anchors, src, axis=0) + offsets
    new_mesh = MeshTopology(mesh.dim, levels[src] + split, new_anchors)
    _inherit_face_neighbours(mesh, new_mesh, src, split)
    return new_mesh, RefineRecord(mesh, new_mesh, src, cid)


def _inherit_face_neighbours(
    old: MeshTopology, new: MeshTopology, source: np.ndarray, fresh: np.ndarray
) -> None:
    """Set ``new``'s face-neighbour table from ``old``'s.

    New leaf n comes from old leaf ``source[n]``: a copy of it, or, where
    ``fresh[n]``, a child or merged parent of it. A copy keeps its face
    probes, and an old neighbour that is itself copied still contains the
    probe, so such entries only change index. The faces of fresh leaves,
    and of copies with an old neighbour that was split or merged, are
    searched again. When most leaves are fresh, the table is left to the
    search of all faces on first use, which is then cheaper.
    """
    if 2 * np.count_nonzero(fresh) > new.n_leaves:
        return
    new_of_old = np.full(old.n_leaves, -1)
    copies = np.flatnonzero(~fresh)
    new_of_old[source[copies]] = copies
    j = np.take(old._face_neighbours, source, axis=1)
    table = np.where(j >= 0, new_of_old[j], -1)
    redo = np.flatnonzero(fresh | np.any((j >= 0) & (table < 0), axis=0))
    table[:, redo] = new._search_faces(redo)
    new._face_neighbours = table


def sibling_families(mesh: MeshTopology, eligible: np.ndarray) -> np.ndarray:
    """First-child indices of complete sibling sets whose members are all eligible.

    The 2^dim siblings of a fully-present family are contiguous in Morton
    order; the parent is one level up at the first child's anchor.
    """
    nchild = 2**mesh.dim
    n = mesh.n_leaves - nchild + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    levels, anchors = mesh.levels, mesh.anchors
    h = mesh.leaf_sizes[:n]
    first = (levels[:n] > 0) & (_or_columns(anchors[:n]) & (2 * h - 1) == 0)
    for c, offset in enumerate(lattice(2, mesh.dim)):
        first &= eligible[c : c + n] & (levels[c : c + n] == levels[:n])
        first &= _or_columns(anchors[c : c + n] - anchors[:n] - offset * h[:, None]) == 0
    return np.flatnonzero(first)


def execute_coarsen(mesh: MeshTopology, coarsen: np.ndarray) -> tuple[MeshTopology, CoarsenRecord]:
    """Merge the sibling families flagged in ``coarsen``, vetoing merges that would break 2:1.

    ``coarsen`` is a bool mask, one entry per leaf. Incomplete or
    mixed-level families stay as they are. A candidate merge is vetoed when
    an edge-adjacent region would end up two levels finer than the new
    parent; vetoes cascade until a fixpoint. Returns the original mesh
    object (with an identity record) when nothing merges.
    """
    coarsen = _leaf_mask(mesh, coarsen)
    starts = sibling_families(mesh, coarsen) if coarsen.any() else np.empty(0, np.int64)

    # The child-size cells beside the parent are its children's outer face
    # neighbours: child c borders face (axis, side) when bit ``axis`` of c is
    # ``side``. Such a cell is settled when its containing leaf is no finer
    # than the children. Otherwise the merge survives only if that leaf is
    # the first child of a live candidate one level finer, which merges up
    # to the children's level itself.
    dim = mesh.dim
    nchild = 2**dim
    rows, kids = np.array(
        [
            (2 * axis + side, c)
            for axis, side in _faces(dim)
            for c in range(nchild)
            if (c >> axis) & 1 == side
        ]
    ).T
    j = mesh._face_neighbours[rows, starts[:, None] + kids]
    child_level = mesh.levels[starts][:, None]
    settled = (j < 0) | (mesh.levels[j] <= child_level)
    pending = ~settled & (mesh.levels[j] == child_level + 1)
    alive = np.all(settled | pending, axis=1)
    live_head = np.zeros(mesh.n_leaves, dtype=bool)
    while True:
        live_head[:] = False
        live_head[starts[alive]] = True
        survivors = alive & np.all(settled | (pending & live_head[j]), axis=1)
        if np.array_equal(survivors, alive):
            break
        alive = survivors
    starts = starts[alive]
    merges = starts[:, None] + np.arange(nchild)
    if not starts.size:
        return mesh, CoarsenRecord(mesh, mesh, np.arange(mesh.n_leaves), merges)

    merging = np.zeros(mesh.n_leaves, dtype=bool)
    merging[merges] = True
    head = np.zeros(mesh.n_leaves, dtype=bool)
    head[starts] = True
    kept = np.flatnonzero(~merging | head)  # a merged parent takes its first child's place
    parent = head[kept]
    new_mesh = MeshTopology(dim, mesh.levels[kept] - parent, np.take(mesh.anchors, kept, axis=0))
    _inherit_face_neighbours(mesh, new_mesh, kept, parent)
    rec = CoarsenRecord(mesh, new_mesh, np.where(parent, -1, kept), merges)
    return new_mesh, rec


@dataclass
class NodeNumbering:
    """CG node numbering of one mesh at one polynomial degree.

    Node keys are integer lattice coordinates at twice MAX_LEVEL resolution
    (so Q2 edge midpoints are integers), encoded into a single sorted int64
    per node. Hanging nodes carry no degree of freedom; their values are
    weighted sums of independent master nodes. ``constraint_matrix`` maps
    independent dof values to values at all geometric nodes; it and
    ``dof_of_node`` are the one record of the hanging nodes, and ``hanging``
    and ``n_dofs`` are read off them.

    The operator caches are ``cache`` (assembled mass and stiffness, the
    diffusion step's operators and the Cahn-Hilliard LU factor, keyed by
    tuples whose first item names the kind) and the derived properties
    ``summation_map``, ``constraint_transpose`` and ``dissection_order``.
    All are rebuilt on first use, so ``release_operators`` may free them at
    any time; the keys, coordinates, ``elem_nodes``, ``dof_of_node`` and T,
    which transfers read, are never released.
    """

    p: int
    node_keys: np.ndarray
    node_coords: np.ndarray
    elem_nodes: np.ndarray
    dof_of_node: np.ndarray
    constraint_matrix: sp.csr_matrix
    cache: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.node_keys)

    @property
    def n_dofs(self) -> int:
        return self.constraint_matrix.shape[1]

    @property
    def hanging(self) -> np.ndarray:
        """Hanging nodes, ascending; T's row of each holds its masters' dofs and weights."""
        return np.flatnonzero(self.dof_of_node < 0)

    @cached_property
    def constraint_transpose(self) -> sp.csr_matrix:
        """T' as CSR with sorted columns: each dof sums its node entries in
        ascending node order from zero, as ``constraint_matrix.T @`` does."""
        tt = self.constraint_matrix.T.tocsr()
        tt.sort_indices()
        return tt

    @cached_property
    def summation_map(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """(S, indptr, indices): A = sum_e A_e over all geometric nodes is the
        CSR matrix (S @ elem_mats.ravel(), indices, indptr).

        Row k of S holds ones at the element entries, (leaf, a, b) raveled,
        that sum into A.data[k], in the order ``coo_matrix.tocsr()`` sums
        them. SciPy itself gives that order: its COO-to-CSR conversion and
        per-row index sort run once on entry numbers instead of values (the
        sort is unstable, so no numpy sort reproduces it for p = 2). S's
        matvec then adds the terms one by one, so A is bit-identical to
        the COO sum and each numbering sorts its element entries once.
        """
        elem = self.elem_nodes.astype(np.int32)
        n_loc = elem.shape[1]
        n_entries = elem.size * n_loc
        coo = sp.coo_matrix(
            (
                np.arange(n_entries, dtype=np.int32),
                (np.repeat(elem, n_loc, axis=1).ravel(), np.tile(elem, (1, n_loc)).ravel()),
            ),
            shape=(self.n_nodes, self.n_nodes),
        )
        coo.has_canonical_format = True  # convert without summing duplicates
        terms = coo.tocsr()
        del coo  # free the triplets before the map's own arrays are allocated
        terms.sort_indices()
        # A sum starts where the column changes. A row never starts on the
        # previous row's last column: the pattern is symmetric with a full diagonal.
        first = np.ones(n_entries, dtype=bool)
        np.not_equal(terms.indices[1:], terms.indices[:-1], out=first[1:])
        starts = np.flatnonzero(first).astype(np.int32)
        sums = sp.csr_matrix(
            (np.ones(n_entries), terms.data, np.append(starts, np.int32(n_entries))),
            shape=(len(starts), n_entries),
        )
        indptr = np.searchsorted(starts, terms.indptr).astype(np.int32)
        return sums, indptr, np.take(terms.indices, starts)

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Independent dofs in geometric nested-dissection order.

        Dyadic boxes of the node lattice are bisected at their midlines,
        axes alternating with x first; a box lists the nodes of its two
        halves, then the nodes on its midline (A. George, SIAM J. Numer.
        Anal. 1973). Nodes on no midline (domain corners) count as the
        finest boxes. This post-order of the box tree is one stable sort of
        an int64 key: the Morton path of the box whose midline holds the
        node, padded with ones, then the number of bisections below that
        box, so a box sorts after every box inside it.
        """
        dim = self.node_coords.shape[1]
        coords = _key_axes(self.node_keys[self.dof_of_node >= 0], dim).T
        extent = 2 * _DOMAIN  # node lattice points run over [0, extent]
        bits = MAX_LEVEL + 1  # one bisection per bit of a coordinate
        # c = odd * 2^t lies on an axis midline at depth dim * (bits - 1 - t) + axis.
        depth = np.full(coords.shape[1], dim * bits)
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

    def release_operators(self, kind: str | None = None) -> None:
        """Free the operator caches; each is rebuilt by the same code on its next use.

        With ``kind``, only the ``cache`` entries of that kind go (a stale LU
        factor, say); without, the whole cache and the derived properties go.
        """
        for key in [k for k in self.cache if kind is None or k[0] == kind]:
            del self.cache[key]
        if kind is None:
            for name in ("summation_map", "constraint_transpose", "dissection_order"):
                self.__dict__.pop(name, None)

    def node_values(self, dof_values: np.ndarray) -> np.ndarray:
        """Values at every geometric node, hanging ones constraint-resolved."""
        return self.constraint_matrix @ dof_values

    def independent_coords(self) -> np.ndarray:
        return self.node_coords[self.dof_of_node >= 0]


def _key_shifts(dim: int) -> np.ndarray:
    """Bit offset of each axis in a node key: 32 bits per axis, x most significant."""
    return 32 * np.arange(dim - 1, -1, -1, dtype=np.int64)


def _key_axes(keys: np.ndarray, dim: int) -> np.ndarray:
    """Node-lattice coordinates (n, dim) of node keys."""
    mask = np.int64((1 << 32) - 1)
    return np.column_stack([(keys >> shift) & mask for shift in _key_shifts(dim)])


def enumerate_nodes(mesh: MeshTopology, p: int) -> NodeNumbering:
    """Build (and cache) the degree-p node numbering with hanging constraints.

    A leaf's local nodes are its ``lattice(p + 1, dim)`` points, 2h/p apart,
    on the node lattice of twice the anchor resolution (Q2 midpoints stay
    integral). A node's key packs its coordinates, 32 bits per axis with x
    most significant, and the numbering follows the sorted keys.
    """
    if p not in (1, 2):
        raise ValueError(f"supported degrees are 1 and 2, got {p}")
    cached = mesh._numberings.get(p)
    if cached is not None:
        return cached
    if not mesh.is_balanced():
        raise MeshStateError(f"node enumeration requires a 2:1 balanced tiling: {mesh.defect}")

    dim = mesh.dim
    steps = (2 * mesh.leaf_sizes[:, None]) // p  # distance between nodes along one axis
    # One axis at a time: numpy is slow along a short last axis.
    axes = zip(mesh.anchors.T, lattice(p + 1, dim).T, _key_shifts(dim))
    keys = reduce(or_, [(2 * anchor[:, None] + i * steps) << shift for anchor, i, shift in axes])

    node_keys, inverse = np.unique(keys, return_inverse=True)
    elem_nodes = inverse.reshape(keys.shape).astype(np.int64)
    coords = _key_axes(node_keys, dim).astype(float) / (2.0 * _DOMAIN)

    dof_of_node, tmat = _constraint_matrix(
        len(node_keys), *_hanging_constraints(mesh, p, elem_nodes)
    )
    numbering = NodeNumbering(
        p=p,
        node_keys=node_keys,
        node_coords=coords,
        elem_nodes=elem_nodes,
        dof_of_node=dof_of_node,
        constraint_matrix=tmat,
    )
    mesh._numberings[p] = numbering
    return numbering


def _hanging_constraints(mesh: MeshTopology, p: int, elem_nodes: np.ndarray):
    """Hanging nodes on coarse/fine edges: (nodes, master nodes, weights).

    Each (face, fine leaf) of the face table whose neighbour j is one level
    coarser holds one hanging node: the fine leaf's own node on that face
    whose offset along the coarse edge, in child-node spacings (0 .. 2p),
    is odd. Its masters are j's p + 1 nodes on the opposite face, in
    ascending node order, and its weights row ``offset`` of
    ``child_lattice_values``. 2:1 balance keeps every master independent.
    """
    if mesh.dim == 1:  # faces are points: nothing hangs
        return np.empty(0, np.int64), np.empty((0, p + 1), np.int64), np.empty((0, p + 1))
    table = mesh._face_neighbours
    face, fine = np.nonzero((table >= 0) & (mesh.levels[table] == mesh.levels - 1))
    j = table[face, fine]
    axis, side = face >> 1, face & 1
    # upper: the fine leaf covers the far half of the coarse face.
    upper = mesh.anchors[fine, 1 - axis] > mesh.anchors[j, 1 - axis]
    t = (upper * p + 1) % 2  # position along the fine face that makes the offset odd
    offset = upper * p + t
    # elem_nodes runs in lattice order: node (ix, iy) is column ix + (p + 1) * iy.
    normal, tangent = (p + 1) ** axis, (p + 1) ** (1 - axis)
    hanging = elem_nodes[fine, side * p * normal + t * tangent]
    along = np.arange(p + 1) * tangent[:, None]
    masters = elem_nodes[j[:, None], ((1 - side) * p * normal)[:, None] + along]
    # Two fine leaves sharing a coarse edge give the same constraint twice.
    nodes, first = np.unique(hanging, return_index=True)
    return nodes, masters[first], child_lattice_values(p)[offset[first]]


def _constraint_matrix(n_nodes: int, hanging, masters, weights):
    """dof_of_node and T, which maps independent dof values to all node values.

    T is written straight into CSR: one identity row per independent node,
    and per hanging node its masters (in ascending node order) with their
    weights. A master that hangs itself raises ``MeshStateError``, and so
    does a hanging row whose weights do not sum to exactly 1: with the
    identity rows, that keeps T·1 = 1, the partition of unity that mass
    conservation rests on.
    """
    is_hanging = np.zeros(n_nodes, dtype=bool)
    is_hanging[hanging] = True
    independent = ~is_hanging
    dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
    dof_of_node[independent] = np.arange(n_nodes - len(hanging))
    master_dofs = dof_of_node[masters]
    chained = np.flatnonzero((master_dofs < 0).any(axis=1))
    if chained.size:
        c = chained[0]
        raise MeshStateError(
            f"hanging node {hanging[c]} has master node {masters[c][master_dofs[c] < 0][0]}, "
            "which hangs too: constraint chains need an unbalanced mesh"
        )
    sums = weights.sum(axis=1)
    broken = np.flatnonzero(sums != 1.0)
    if broken.size:
        c = broken[0]
        raise MeshStateError(f"constraint row of node {hanging[c]} sums to {sums[c]!r}, not 1")
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.where(is_hanging, masters.shape[1], 1), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.ones(indptr[-1])
    indices[indptr[:-1][independent]] = dof_of_node[independent]
    slots = indptr[hanging][:, None] + np.arange(masters.shape[1])
    indices[slots] = master_dofs
    data[slots] = weights
    return dof_of_node, sp.csr_matrix(
        (data, indices, indptr), shape=(n_nodes, n_nodes - len(hanging))
    )
