import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import amrfem.mesh
import topology_reference as reference
from amrfem.errors import MeshStateError
from amrfem.mesh import (
    MAX_LEVEL,
    MeshTopology,
    _constraint_matrix,
    _hanging_constraints,
    build_uniform,
    enumerate_nodes,
    execute_coarsen,
    execute_refine,
    sibling_families,
)
from amrfem.quadrature import child_lattice_values

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def leaf_mask(mesh, idx=None):
    """True at the leaves ``idx``, or at every leaf."""
    mask = np.zeros(mesh.n_leaves, dtype=bool)
    mask[slice(None) if idx is None else idx] = True
    return mask


def leaf_area_sum(mesh):
    return float(np.sum(mesh.leaf_sizes_physical**mesh.dim))


def brute_force_balanced(mesh):
    """All-pairs edge-adjacency level check, independent of the mesh code."""
    boxes = []
    for lv, anchor in zip(mesh.levels, mesh.anchors):
        h = 1 << (MAX_LEVEL - int(lv))
        boxes.append((int(lv), [int(a) for a in anchor], h))
    for i, (li, ai, hi) in enumerate(boxes):
        for j, (lj, aj, hj) in enumerate(boxes):
            if j <= i or abs(li - lj) < 2:
                continue
            # shared edge: touching in one axis, overlapping in the other
            touch = overlap = 0
            for d in range(mesh.dim):
                lo = max(ai[d], aj[d])
                hi_ = min(ai[d] + hi, aj[d] + hj)
                if hi_ > lo:
                    overlap += 1
                elif hi_ == lo:
                    touch += 1
            if mesh.dim == 1:
                adjacent = touch == 1
            else:
                adjacent = touch == 1 and overlap == 1
            if adjacent:
                return False
    return True


class TestBuildUniform:
    def test_level0(self):
        mesh = build_uniform(2, 0)
        assert mesh.n_leaves == 1
        assert enumerate_nodes(mesh, 1).n_nodes == 4

    def test_level3_q1(self):
        mesh = build_uniform(2, 3)
        assert mesh.n_leaves == 64
        assert enumerate_nodes(mesh, 1).n_nodes == 81

    def test_level2_q2(self):
        mesh = build_uniform(2, 2)
        assert mesh.n_leaves == 16
        assert enumerate_nodes(mesh, 2).n_nodes == 81

    def test_area_sums_to_one(self):
        for dim, level in ((1, 4), (2, 3)):
            assert leaf_area_sum(build_uniform(dim, level)) == pytest.approx(1.0, abs=1e-14)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            build_uniform(2, MAX_LEVEL + 1)

    def test_morton_sorted(self):
        mesh = build_uniform(2, 2)
        from amrfem.mesh import _morton_keys

        keys = _morton_keys(mesh.anchors, 2)
        assert np.all(np.diff(keys.astype(np.int64)) > 0)


class TestLocate:
    def test_examples_level1(self):
        mesh = build_uniform(2, 1)
        assert reference.locate(mesh, (0.1, 0.1)) == 0
        assert reference.locate(mesh, (0.6, 0.1)) == 1  # bit0 = x
        assert reference.locate(mesh, (0.6, 0.6)) == 3

    def test_face_tie_goes_to_smaller_anchor(self):
        mesh = build_uniform(2, 1)
        assert reference.locate(mesh, (0.5, 0.1)) == 0

    def test_outside_domain(self):
        mesh = build_uniform(2, 1)
        with pytest.raises(ValueError):
            reference.locate(mesh, (1.2, 0.0))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_located_leaf_contains_point(self, x, y):
        mesh = _adapted_fixture()
        idx = reference.locate(mesh, (x, y))
        h = float(mesh.leaf_sizes_physical[idx])
        lo = mesh.anchors[idx].astype(float) / (1 << MAX_LEVEL)
        assert lo[0] <= x <= lo[0] + h + 1e-15
        assert lo[1] <= y <= lo[1] + h + 1e-15


_ADAPTED = None


def _adapted_fixture():
    global _ADAPTED
    if _ADAPTED is None:
        mesh = build_uniform(2, 2)
        mesh, _ = execute_refine(mesh, leaf_mask(mesh, [0, 7, 13]))
        _ADAPTED = mesh
    return _ADAPTED


class TestExecuteRefine:
    def test_refine_one_corner(self):
        mesh = build_uniform(2, 2)
        mesh2, record = execute_refine(mesh, leaf_mask(mesh, [0]))
        assert mesh2.n_leaves == 19  # 16 - 1 + 4
        assert mesh2.is_balanced()
        assert leaf_area_sum(mesh2) == pytest.approx(1.0, abs=1e-14)

    def test_refine_all(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh))
        assert mesh2.n_leaves == 64
        assert np.all(mesh2.levels == 3)

    def test_double_refine_closure_keeps_balance(self):
        mesh = build_uniform(2, 2)
        mesh2, record = execute_refine(mesh, leaf_mask(mesh, [0]))
        # refine the level-3 child that borders level-2 leaves: the closure
        # must split those neighbours too
        target = int(np.flatnonzero(record.child_id == 3)[0])
        mesh3, record = execute_refine(mesh2, leaf_mask(mesh2, [target]))
        assert np.count_nonzero(record.child_id == 0) > 1  # more leaves split than flagged
        assert brute_force_balanced(mesh3)
        assert leaf_area_sum(mesh3) == pytest.approx(1.0, abs=1e-14)

    def test_closure_leaves_the_callers_mask_unchanged(self):
        mesh = build_uniform(2, 2)
        mesh2, record = execute_refine(mesh, leaf_mask(mesh, [0]))
        inner = np.flatnonzero(record.child_id == 3)  # borders level-2 leaves
        mask = leaf_mask(mesh2, inner)
        _, record = execute_refine(mesh2, mask)
        assert np.count_nonzero(record.child_id == 0) > 1  # the closure split more leaves
        assert np.array_equal(mask, leaf_mask(mesh2, inner))

    def test_empty_plan_returns_same_mesh(self):
        mesh = build_uniform(2, 2)
        mesh2, record = execute_refine(mesh, leaf_mask(mesh, []))
        assert mesh2 is mesh
        assert np.array_equal(record.source_leaf, np.arange(16))

    def test_morton_disjointness(self):
        from amrfem.mesh import _morton_keys

        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [3, 7]))
        keys = _morton_keys(mesh2.anchors, 2).astype(np.int64)
        sizes = mesh2.leaf_sizes
        # each leaf's Morton range [key, key + size^2) must not overlap the next
        ends = keys + sizes * sizes
        assert np.all(keys[1:] >= ends[:-1])


class TestExecuteCoarsen:
    def test_coarsen_all(self):
        mesh = build_uniform(2, 3)
        mesh2, record = execute_coarsen(mesh, leaf_mask(mesh))
        assert mesh2.n_leaves == 16
        assert np.all(mesh2.levels == 2)
        assert len(record.merges) == 16

    def test_record_covers_every_leaf_once(self):
        mesh = build_uniform(2, 3)
        plan = leaf_mask(mesh, list(range(0, 24)))
        mesh2, record = execute_coarsen(mesh, plan)
        assert record.merges.dtype == np.int64
        assert record.merges.shape == (np.count_nonzero(record.copy_source < 0), 4)
        copied = record.copy_source[record.copy_source >= 0]
        old = np.concatenate([copied, record.merges.ravel()])
        assert np.array_equal(np.sort(old), np.arange(mesh.n_leaves))
        assert len(copied) + len(record.merges) == mesh2.n_leaves

    def test_partial_family_demoted(self):
        mesh = build_uniform(2, 2)
        mesh2, record = execute_coarsen(mesh, leaf_mask(mesh, [0, 1, 2]))
        assert mesh2 is mesh
        assert not len(record.merges)

    def test_mixed_levels_not_merged(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0]))
        # flag the new fine children plus an unrelated same-anchor group
        # 4 children of leaf 0 + next leaf (level 2)
        mesh3, record = execute_coarsen(mesh2, leaf_mask(mesh2, slice(0, 5)))
        assert len(record.merges) == 1  # only the complete level-3 family
        assert mesh3.is_balanced()

    def test_balance_veto(self):
        # refine one corner twice so levels 2,3,4 coexist, then try to merge
        # the level-3 family adjacent to level-4 leaves: must be vetoed
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0]))
        deepest = int(np.argmax(mesh2.levels))
        mesh3, _ = execute_refine(mesh2, leaf_mask(mesh2, [deepest]))
        assert mesh3.is_balanced()
        lv = mesh3.levels.max() - 1  # level of the would-be-merged children
        idx = np.nonzero(mesh3.levels == lv)[0]
        mesh4, record = execute_coarsen(mesh3, leaf_mask(mesh3, idx))
        assert mesh4.is_balanced()
        assert brute_force_balanced(mesh4)

    def test_all_families_vetoed_returns_same_mesh(self):
        # two level-3 families side by side, then one child of the right-hand
        # family refined again: merging the left family would put its parent
        # (level 2) next to level-4 leaves, so its only candidate is vetoed
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0, 1]))
        right = reference.locate(mesh2, (0.26, 0.01))
        mesh3, _ = execute_refine(mesh2, leaf_mask(mesh2, [right]))
        assert brute_force_balanced(mesh3)
        corners = ((0.01, 0.01), (0.2, 0.01), (0.01, 0.2), (0.2, 0.2))
        left = [reference.locate(mesh3, point) for point in corners]
        mask = leaf_mask(mesh3, left)
        assert len(sibling_families(mesh3, mask)) == 1
        mesh4, record = execute_coarsen(mesh3, mask)
        assert mesh4 is mesh3
        assert not len(record.merges)
        assert np.array_equal(record.copy_source, np.arange(mesh3.n_leaves))

    def test_plan_size_mismatch_rejected(self):
        mesh = build_uniform(2, 2)
        for execute in (execute_refine, execute_coarsen):
            for n in (3, mesh.n_leaves + 1):
                with pytest.raises(ValueError, match="bool mask of 16 leaves"):
                    execute(mesh, np.zeros(n, dtype=bool))

    def test_int_mask_rejected(self):
        # an integer flag such as 2 would otherwise read as True
        mesh = build_uniform(2, 2)
        for execute in (execute_refine, execute_coarsen):
            for dtype in (np.int8, np.int64):
                with pytest.raises(ValueError, match="bool mask"):
                    execute(mesh, np.full(mesh.n_leaves, 2, dtype=dtype))

    def test_roundtrip_topology(self):
        mesh = build_uniform(2, 3)
        mesh2, record = execute_coarsen(mesh, leaf_mask(mesh, list(range(4))))
        assert len(record.merges) == 1
        (new_idx,) = np.flatnonzero(record.copy_source < 0)
        mesh3, _ = execute_refine(mesh2, leaf_mask(mesh2, [new_idx]))
        assert mesh3.n_leaves == mesh.n_leaves
        assert np.array_equal(mesh3.levels, mesh.levels)
        assert np.array_equal(mesh3.anchors, mesh.anchors)


class TestEnumerateNodes:
    def test_conforming_mesh_has_no_constraints(self):
        assert enumerate_nodes(build_uniform(2, 2), 1).hanging.size == 0

    def test_single_fine_patch_q1_hanging_half_weights(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0]))
        nn = enumerate_nodes(mesh2, 1)
        assert len(nn.hanging) == 2  # one per coarse/fine edge
        for masters, weights in zip(*_constraint_rows(nn)):
            assert len(masters) == 2
            assert weights == pytest.approx((0.5, 0.5))

    def test_q2_hanging_weights(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0]))
        nn = enumerate_nodes(mesh2, 2)
        # fine edge nodes at coarse-edge coordinates xi = -1/2 and 0 exist;
        # xi = -1/2 carries the quadratic interpolation weights
        expected = sorted([-0.125, 0.375, 0.75])
        found = False
        for weights in _constraint_rows(nn)[1]:
            if sorted(weights) == pytest.approx(expected):
                found = True
        assert found

    def test_q2_edge_weights_value(self):
        # direct evaluation of the three quadratic cardinal functions at -1/2
        from amrfem.quadrature import element_nodal_basis

        vals = element_nodal_basis(2).values_at(-0.5)[:, 0]
        assert vals == pytest.approx([0.375, 0.75, -0.125])

    def test_constraint_weights_sum_to_one(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0, 5, 12]))
        for p in (1, 2):
            nn = enumerate_nodes(mesh2, p)
            for weights in _constraint_rows(nn)[1]:
                assert sum(weights) == pytest.approx(1.0, abs=1e-13)

    def test_masters_are_independent(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0, 1, 2, 3]))
        for p in (1, 2):
            nn = enumerate_nodes(mesh2, p)
            masters, _ = _constraint_rows(nn)
            assert not np.isin(masters, nn.hanging).any()

    def test_elem_nodes_reference_resolvable_dofs(self):
        mesh = build_uniform(2, 2)
        mesh2, _ = execute_refine(mesh, leaf_mask(mesh, [0]))
        nn = enumerate_nodes(mesh2, 1)
        t = nn.constraint_matrix
        # rows of T sum to 1: the constant lives in the constrained space
        assert np.abs(np.asarray(t.sum(axis=1)).ravel() - 1.0).max() <= 1e-13

    def test_unbalanced_mesh_rejected(self):
        from amrfem.mesh import MeshTopology

        # hand-build an unbalanced arrangement: one level-1 leaf + level-3 strip
        h3 = 1 << (MAX_LEVEL - 3)
        cells = [(1, 1 << (MAX_LEVEL - 1), 0)]
        for iy in range(8):
            for ix in range(4):
                cells.append((3, ix * h3, iy * h3))
        levels = np.array([c[0] for c in cells], np.int32)
        anchors = np.array([[c[1], c[2]] for c in cells], np.int64)
        mesh = MeshTopology(2, levels, anchors)
        with pytest.raises(MeshStateError):
            enumerate_nodes(mesh, 1)

    def test_mesh_with_gap_rejected(self):
        mesh = build_uniform(2, 2)
        keep = np.arange(mesh.n_leaves) != 5
        holed = MeshTopology(2, mesh.levels[keep], mesh.anchors[keep])
        assert not holed.is_balanced()
        with pytest.raises(MeshStateError, match="gap after leaf 4"):
            enumerate_nodes(holed, 1)

    def test_overlapping_leaves_rejected(self):
        # a level-3 leaf inside leaf 0: levels differ by one, so only the
        # tiling check can catch it
        mesh = build_uniform(2, 2)
        levels = np.append(mesh.levels, 3)
        anchors = np.vstack([mesh.anchors, mesh.anchors[:1]])
        doubled = MeshTopology(2, levels, anchors)
        assert not doubled.is_balanced()
        with pytest.raises(MeshStateError, match="overlap after leaf 0"):
            enumerate_nodes(doubled, 1)

    def test_chained_or_cyclic_constraints_raise(self):
        # node 0 hangs on 1 and 3, node 1 on 2 and 3: the master 1 hangs
        hanging, masters = np.array([0, 1]), np.array([[1, 3], [2, 3]])
        with pytest.raises(MeshStateError, match="hanging node 0 has master node 1"):
            _constraint_matrix(4, hanging, masters, np.full((2, 2), 0.5))
        # a cycle is a chain as well
        cycle = np.array([[1, 2], [0, 2]])
        with pytest.raises(MeshStateError, match="hanging node 0 has master node 1"):
            _constraint_matrix(3, hanging, cycle, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("p", [1, 2])
    def test_weights_off_the_partition_of_unity_raise(self, p, monkeypatch):
        table = child_lattice_values(p).copy()
        table[1] *= 1.0 + 2.0**-40  # row 1: offset 1, which every hanging node edge has
        monkeypatch.setattr(amrfem.mesh, "child_lattice_values", lambda q: table)
        mesh = build_uniform(2, 2)
        mesh, _ = execute_refine(mesh, leaf_mask(mesh, [0]))
        with pytest.raises(MeshStateError, match=r"constraint row of node \d+ sums to .*, not 1"):
            enumerate_nodes(mesh, p)

    @pytest.mark.parametrize("p", [1, 2])
    def test_hanging_rows_are_child_lattice_rows(self, p):
        # row k of the table, k the node's offset along the coarse edge in
        # child-node spacings, bit for bit
        mesh = build_uniform(2, 2)
        mesh, _ = execute_refine(mesh, leaf_mask(mesh, [0, 5, 12]))
        mesh, _ = execute_refine(mesh, leaf_mask(mesh, [3]))
        nn = enumerate_nodes(mesh, p)
        t, coords = nn.constraint_matrix, nn.node_coords
        table = child_lattice_values(p)
        assert len(nn.hanging) > 4
        for node, masters in zip(nn.hanging, _constraint_rows(nn)[0]):
            axis = int(np.argmax(np.abs(coords[masters[-1]] - coords[masters[0]])))
            lo, hi = coords[masters[0], axis], coords[masters[-1], axis]
            k = 2 * p * (coords[node, axis] - lo) / (hi - lo)
            assert k == int(k) and int(k) % 2 == 1
            row = t.data[t.indptr[node] : t.indptr[node + 1]]
            assert [v.hex() for v in row.tolist()] == [v.hex() for v in table[int(k)].tolist()]

    def test_1d_mesh_has_no_hanging(self):
        mesh = build_uniform(1, 4)
        nn = enumerate_nodes(mesh, 2)
        assert nn.n_nodes == 33
        assert nn.hanging.size == 0


class TestDissectionOrder:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_permutation_of_independent_dofs(self, dim, p):
        mesh = build_uniform(dim, 3)
        mesh, _ = execute_refine(mesh, leaf_mask(mesh, [0, 5]))
        mesh, _ = execute_refine(mesh, leaf_mask(mesh, [1]))
        nn = enumerate_nodes(mesh, p)
        if dim == 2:
            assert nn.n_nodes > nn.n_dofs  # hanging nodes
        order = nn.dissection_order
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.arange(nn.n_dofs))

    @pytest.mark.parametrize("p", [1, 2])
    def test_uniform_mesh_ends_with_the_x_midline(self, p):
        mesh = build_uniform(2, 3)
        nn = enumerate_nodes(mesh, p)
        x = nn.independent_coords()[nn.dissection_order, 0]
        n_line = 8 * p + 1
        assert np.all(x[-n_line:] == 0.5)
        assert x[-n_line - 1] != 0.5
        # the left half, then the right half, then the separator between them
        left = np.flatnonzero(x < 0.5)
        right = np.flatnonzero(x > 0.5)
        assert left.max() < right.min() and right.max() < len(x) - n_line

    def test_1d_orders_each_half_before_its_midpoint(self):
        nn = enumerate_nodes(build_uniform(1, 3), 1)
        x = nn.independent_coords()[nn.dissection_order, 0] * 8
        assert x.tolist() == [0, 1, 3, 2, 5, 8, 7, 6, 4]


class TestRepeatedCycles:
    def test_random_adapt_sequence_invariants(self):
        rng = np.random.default_rng(2024)
        mesh = build_uniform(2, 2)
        for step in range(8):
            if step % 2 == 0:
                idx = rng.choice(mesh.n_leaves, size=max(1, mesh.n_leaves // 5), replace=False)
                mesh, _ = execute_refine(mesh, leaf_mask(mesh, idx))
            else:
                idx = rng.choice(mesh.n_leaves, size=max(4, mesh.n_leaves // 2), replace=False)
                mesh, _ = execute_coarsen(mesh, leaf_mask(mesh, idx))
            assert leaf_area_sum(mesh) == pytest.approx(1.0, abs=1e-13)
            assert mesh.is_balanced()
            assert brute_force_balanced(mesh)


def _random_plan(rng, mesh, max_level):
    """(refining, mask): a refine mask biased toward the finest leaves, or a
    scattered coarsen mask."""
    mask = np.zeros(mesh.n_leaves, dtype=bool)
    if rng.random() < 0.6:
        open_ = np.flatnonzero(mesh.levels < max_level)
        if open_.size:
            finest = open_[mesh.levels[open_] == mesh.levels[open_].max()]
            pool = finest if rng.random() < 0.6 else open_
            size = min(len(pool), int(rng.integers(1, 4)))
            mask[rng.choice(pool, size=size, replace=False)] = True
        return True, mask
    mask[rng.random(mesh.n_leaves) < rng.uniform(0.3, 1.0)] = True
    return False, mask


def _assert_numbering_matches(mesh):
    for p in (1, 2):
        nn = enumerate_nodes(mesh, p)
        hanging = reference.hanging_constraints(mesh, p, nn.node_keys)
        t, t_ref = nn.constraint_matrix, reference.constraint_matrix(nn.n_nodes, hanging)
        assert t.shape == t_ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(t, attr), getattr(t_ref, attr))
    _assert_constraints_match_search(mesh)


def _constraint_rows(nn):
    """(masters, weights): T's rows at ``nn.hanging`` as (n_hanging, p + 1)
    arrays of master nodes and weights."""
    t = nn.constraint_matrix
    assert np.all(np.diff(t.indptr)[nn.hanging] == nn.p + 1)
    slots = t.indptr[nn.hanging][:, None] + np.arange(nn.p + 1)
    return np.flatnonzero(nn.dof_of_node >= 0)[t.indices[slots]], t.data[slots]


def _assert_constraints_match_search(mesh):
    """Constraints and T equal the key-search oracle's, bit for bit, for p = 1 and 2."""
    for p in (1, 2):
        nn = enumerate_nodes(mesh, p)
        got = _hanging_constraints(mesh, p, nn.elem_nodes)
        ref = reference.searched_constraints(mesh, p, nn.node_keys)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        t, t_ref = nn.constraint_matrix, _constraint_matrix(nn.n_nodes, *ref)[1]
        assert t.shape == t_ref.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(t, attr), getattr(t_ref, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAgainstLoopReference:
    """The vectorised topology reproduces the per-leaf loop oracle exactly."""

    @pytest.mark.parametrize("dim, sequences", [(2, 28), (1, 12)])
    def test_random_sequences(self, dim, sequences):
        rng = np.random.default_rng(77 + dim)
        for _ in range(sequences):
            mesh = build_uniform(dim, int(rng.integers(1, 3)))
            for _ in range(10):
                refining, mask = _random_plan(rng, mesh, max_level=9)
                if refining:
                    new, record = execute_refine(mesh, mask)
                    levels, anchors, src, cid = reference.refine(mesh, mask)
                    assert np.array_equal(record.source_leaf, src)
                    assert np.array_equal(record.child_id, cid)
                    # splitting without the closure may break 2:1 balance
                    raw = MeshTopology(dim, *reference.split(mesh, mask)[:2])
                    assert raw.is_balanced() == reference.is_balanced(raw)
                else:
                    new, record = execute_coarsen(mesh, mask)
                    levels, anchors, copy_source, merges = reference.coarsen(mesh, mask)
                    assert np.array_equal(record.copy_source, copy_source)
                    assert record.merges.shape == (len(merges), 2**dim)
                    for k, children, (k_ref, children_ref) in zip(
                        np.flatnonzero(copy_source < 0), record.merges, merges
                    ):
                        assert k == k_ref and np.array_equal(children, children_ref)
                    if not merges:
                        assert new is mesh
                assert np.array_equal(new.levels, levels)
                assert np.array_equal(new.anchors, anchors)
                assert new.is_balanced() == reference.is_balanced(new)
                mesh = new
                _assert_numbering_matches(mesh)
            assert mesh.levels.max() <= 9


def _searched_faces(mesh):
    """containing_leaves over every face probe, without the mesh's table."""
    dim = mesh.dim
    probes = np.repeat(mesh.anchors[None], 2 * dim, axis=0)
    for axis in range(dim):
        probes[2 * axis, :, axis] -= mesh.leaf_sizes
        probes[2 * axis + 1, :, axis] += mesh.leaf_sizes
    return mesh.containing_leaves(probes.reshape(-1, dim)).reshape(2 * dim, -1)


def _adapt_checked(mesh, plan):
    """Apply ``plan``, a ``_random_plan``, and check the new mesh's face-neighbour table.

    Returns the new mesh and, if it inherited its table from ``mesh``, the
    kind of step: "refine", "cascade" (the closure split unflagged leaves),
    "coarsen" or "veto" (a complete flagged family was kept).
    """
    refining, mask = plan
    if refining:
        new, record = execute_refine(mesh, mask)
        split = np.count_nonzero(record.child_id == 0)
        kind = "cascade" if split > np.count_nonzero(mask) else "refine"
    else:
        new, record = execute_coarsen(mesh, mask)
        families = len(sibling_families(mesh, mask))
        kind = "veto" if len(record.merges) < families else "coarsen"
    if new is mesh:
        return new, None
    inherited = "_face_neighbours" in vars(new)
    table = new._face_neighbours
    assert np.array_equal(table, _searched_faces(new))
    assert np.array_equal(table, reference.face_neighbours(new))
    assert (table == -1).any()  # boundary faces
    _assert_constraints_match_search(new)
    return new, kind if inherited else None


class TestInheritedFaceTable:
    """Refined and coarsened meshes inherit their face-neighbour table exactly."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_equals_fresh_search(self, dim, level, seed):
        rng = np.random.default_rng(seed)
        mesh = build_uniform(dim, level + (dim == 1))
        for _ in range(8):
            mesh, _ = _adapt_checked(mesh, _random_plan(rng, mesh, max_level=8))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_inheritance_covers_cascades_and_vetoes(self, dim):
        rng = np.random.default_rng(5 + dim)
        seen = set()
        for _ in range(6):
            mesh = build_uniform(dim, 3 + (dim == 1))
            for _ in range(10):
                mesh, kind = _adapt_checked(mesh, _random_plan(rng, mesh, max_level=8))
                seen.add(kind)
        assert {"refine", "cascade", "coarsen", "veto"} <= seen


def _amr_cycle_mesh():
    """The amr-cycle-l8 benchmark mesh: its set-up, then three cycles at seed 3."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import workloads
    w = workloads.AmrCycle()
    mesh, tracer = w.setup()
    angle = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi)
    for k in range(1, 4):
        centre = 0.5 + 0.75 * w.fine_h * k * np.array([np.cos(angle), np.sin(angle)])
        mesh, tracer, _ = w.cycle(mesh, tracer, centre)
    return mesh


class _FirstMerge(Exception):
    """Carries the first coarsened mesh out of ``run_mms``."""


def _mms_coarsened_mesh():
    """The mms-q1-l7 benchmark's first coarsened mesh, caught as run_mms makes it."""
    from amrfem import runs

    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import workloads

        cycle = runs.adapt_cycle

        def first_merge(*args, **kwargs):
            mesh, fields, stats = cycle(*args, **kwargs)
            if stats.n_merged:
                raise _FirstMerge(mesh)
            return mesh, fields, stats

        mp.setattr(runs, "adapt_cycle", first_merge)
        with pytest.raises(_FirstMerge) as caught:
            runs.run_mms(workloads.Mms().config())
    return caught.value.args[0]


@pytest.fixture(
    scope="class",
    params=[(_amr_cycle_mesh, 900), (_mms_coarsened_mesh, 100)],
    ids=["amr-cycle-l8", "mms-q1-l7"],
)
def benchmark_mesh(request):
    """(mesh, fewest hanging Q1 nodes it has), built once per class."""
    build, min_hanging = request.param
    return build(), min_hanging


class TestConstraintsAgainstSearch:
    """At benchmark scale, where the loop oracle is too slow, the constraints
    read off the node rows equal the key-search oracle's."""

    def test_benchmark_meshes(self, benchmark_mesh):
        mesh, min_hanging = benchmark_mesh
        assert len(enumerate_nodes(mesh, 1).hanging) >= min_hanging
        _assert_constraints_match_search(mesh)

    @pytest.mark.parametrize("p", [1, 2])
    def test_hanging_indexes_the_constrained_rows_of_t(self, benchmark_mesh, p):
        mesh, _ = benchmark_mesh
        nn = enumerate_nodes(mesh, p)
        hanging = nn.hanging
        assert hanging.dtype == np.int64 and np.all(np.diff(hanging) > 0)
        assert len(hanging) == nn.n_nodes - nn.n_dofs == nn.n_nodes - nn.constraint_matrix.shape[1]
        assert np.all(nn.dof_of_node[hanging] < 0)
        nodes, masters, weights = reference.searched_constraints(mesh, p, nn.node_keys)
        assert np.array_equal(hanging, nodes)
        got_masters, got_weights = _constraint_rows(nn)
        assert np.array_equal(got_masters, masters)
        assert got_weights.tobytes() == weights.tobytes()
