from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import transfer_reference as reference
from amrfem.errors import MeshStateError
from amrfem.fem import (
    GaussField,
    LeafField,
    _tables,
    NodalField,
    assemble_mass,
    eval_at_gauss,
    integrate_gauss,
    interpolate_nodal,
    project_l2,
)
from amrfem.mesh import (
    MeshTopology,
    RefineRecord,
    build_uniform,
    enumerate_nodes,
    execute_coarsen,
    execute_refine,
)
from amrfem.quadrature import child_lattice_values
from amrfem.restriction import apply_restriction, injection_matrix
from amrfem.transfer import (
    _child_interp,
    refine_leaf_field,
    restrict_gauss_field,
    transfer_coarsen_conservative,
    transfer_coarsen_injection,
)
from l2_distance import coarsen_l2_distance
from topology_reference import exact_basis_values


def mass(f: NodalField) -> float:
    return integrate_gauss(eval_at_gauss(f))


def leaf_mask(mesh, idx=None):
    """True at the leaves ``idx``, or at every leaf."""
    mask = np.zeros(mesh.n_leaves, dtype=bool)
    mask[slice(None) if idx is None else idx] = True
    return mask


def refine(mesh, idx):
    return execute_refine(mesh, leaf_mask(mesh, idx))


def coarsen(mesh, idx=None):
    return execute_coarsen(mesh, leaf_mask(mesh, idx))


def demo_profile(c):
    return np.abs(np.cos(2 * np.pi * c[:, 0])) + 10.0


class TestTransferRefine:
    def test_1d_linear_midpoint(self):
        mesh = build_uniform(1, 0)
        f = NodalField(mesh, 1, np.array([1.0, 3.0]))
        mesh2, rec = refine(mesh, [0])
        f2 = refine_leaf_field(f, rec).nodal()
        vals = f2.node_values()
        assert sorted(vals) == pytest.approx([1.0, 2.0, 3.0])

    def test_integral_preserved_for_demo_profile(self):
        mesh = build_uniform(1, 4)
        f = interpolate_nodal(mesh, 1, demo_profile)
        before = mass(f)
        mesh2, rec = refine(mesh, list(range(mesh.n_leaves)))
        f2 = refine_leaf_field(f, rec).nodal()
        assert before == pytest.approx(10.6284, abs=1e-3)
        assert mass(f2) == pytest.approx(before, abs=1e-13)

    def test_constant_stays_constant(self):
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 3.3))
        mesh2, rec = refine(mesh, [0, 5])
        f2 = refine_leaf_field(f, rec).nodal()
        assert np.abs(f2.values - 3.3).max() <= 1e-14

    def test_integral_preserved_2d_q2_random(self):
        mesh = build_uniform(2, 2)
        rng = np.random.default_rng(4)
        f = NodalField(mesh, 2, rng.standard_normal(enumerate_nodes(mesh, 2).n_dofs))
        before = mass(f)
        mesh2, rec = refine(mesh, [0, 3, 9])
        f2 = refine_leaf_field(f, rec).nodal()
        assert mass(f2) == pytest.approx(before, abs=1e-13)

    def test_mismatched_mesh_rejected(self):
        mesh = build_uniform(2, 2)
        other = build_uniform(2, 2)
        f = interpolate_nodal(other, 1, lambda c: c[:, 0])
        _, rec = refine(mesh, [0])
        with pytest.raises(ValueError):
            refine_leaf_field(f, rec)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_child_interp_is_kron_of_table_rows(self, dim, p):
        # bit for bit: Kronecker product of rows c*p ... c*p + p per axis,
        # equal to the parent basis at the child's node lattice, exact then rounded
        table = child_lattice_values(p)
        for child in range(2**dim):
            bits = [(child >> axis) & 1 for axis in reversed(range(dim))]  # y, then x
            rows = [table[b * p : b * p + p + 1] for b in bits]
            # node q of child b sits at (b * p + q) / p - 1 on the parent
            direct = [
                np.array([exact_basis_values(p, Fraction(b * p + q, p) - 1) for q in range(p + 1)])
                for b in bits
            ]
            got = [v.hex() for v in _child_interp(dim, p, child).ravel().tolist()]
            for factors in (rows, direct):
                want = factors[0] if dim == 1 else np.kron(*factors)
                assert got == [v.hex() for v in want.ravel().tolist()]


def adapted_mesh(dim, rng):
    """Two rounds of random refinement: hanging nodes in 2D."""
    mesh = build_uniform(dim, 2)
    for _ in range(2):
        pick = rng.choice(mesh.n_leaves, size=max(1, mesh.n_leaves // 4), replace=False)
        mesh, _ = refine(mesh, pick)
    return mesh


def random_field(mesh, p, rng):
    return NodalField(mesh, p, rng.standard_normal(enumerate_nodes(mesh, p).n_dofs))


def same_bits(a: NodalField, b: NodalField) -> bool:
    return a.mesh is b.mesh and a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_q1_refined_nodal_is_independent_of_write_order(dim):
    # every Q1 row that holds a node after a refinement gives it the same
    # bits, so LeafField.nodal() may scatter in Morton order: reversed and
    # shuffled writes return the same bytes
    rng = np.random.default_rng(600 + dim)
    for _ in range(5):
        mesh = adapted_mesh(dim, rng)
        f = random_field(mesh, 1, rng)
        _, rec = refine(mesh, rng.choice(mesh.n_leaves, size=mesh.n_leaves // 3, replace=False))
        leaf = refine_leaf_field(f, rec)
        nn = enumerate_nodes(rec.mesh_new, 1)
        want = leaf.nodal().values.tobytes()
        n = rec.mesh_new.n_leaves
        for order in (np.arange(n)[::-1], rng.permutation(n)):
            node_vals = np.empty(nn.n_nodes)
            node_vals[nn.elem_nodes[order]] = leaf.values[order]
            assert node_vals[nn.dof_of_node >= 0].tobytes() == want


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
class TestLeafLocalTransfer:
    """Refinement and injection number only the mesh they return, and give
    the values of the numbering versions in ``tests/transfer_reference.py``."""

    def test_refine_matches_numbering_oracle(self, dim, p):
        rng = np.random.default_rng(100 + 10 * dim + p)
        for _ in range(5):
            mesh = adapted_mesh(dim, rng)
            f = random_field(mesh, p, rng)
            for pick in (rng.choice(mesh.n_leaves, size=3, replace=False), []):
                _, rec = refine(mesh, pick)
                got = refine_leaf_field(f, rec).nodal()
                assert same_bits(got, reference.transfer_refine(f, rec))

    def test_injection_matches_key_search_oracle(self, dim, p):
        rng = np.random.default_rng(200 + 10 * dim + p)
        for _ in range(5):
            mesh = adapted_mesh(dim, rng)
            assert dim == 1 or enumerate_nodes(mesh, p).hanging.size
            f = random_field(mesh, p, rng)
            for idx in (np.flatnonzero(mesh.levels == mesh.levels.max()), []):
                _, rec = coarsen(mesh, idx)
                got = transfer_coarsen_injection(f, rec)
                assert same_bits(got, reference.transfer_coarsen_injection(f, rec))

    def test_coarsening_a_leaf_field_matches_two_numbering_cycle(self, dim, p):
        # the adaptation cycle coarsens the per-leaf field on the refined
        # mesh; the numbering version first scatters it onto that mesh
        rng = np.random.default_rng(300 + 10 * dim + p)
        for _ in range(5):
            mesh = adapted_mesh(dim, rng)
            f = random_field(mesh, p, rng)
            refined, rrec = refine(mesh, rng.choice(mesh.n_leaves, size=3, replace=False))
            leaf = refine_leaf_field(f, rrec)
            _, crec = coarsen(refined, np.flatnonzero(refined.levels >= mesh.levels.max()))
            assert len(crec.merges)
            inj = transfer_coarsen_injection(leaf, crec)
            cons = transfer_coarsen_conservative(leaf, crec, tol=1e-14)
            assert not refined._numberings and refined._balanced is True
            on_refined = reference.transfer_refine(f, rrec)
            want_inj = reference.transfer_coarsen_injection(on_refined, crec)
            want_cons = transfer_coarsen_conservative(on_refined, crec, tol=1e-14)
            assert np.abs(inj.values - want_inj.values).max() <= 1e-13
            assert np.abs(cons.values - want_cons.values).max() <= 1e-13

    @pytest.mark.parametrize("n_refined", [1, 3])
    def test_block_moves_like_its_columns(self, dim, p, n_refined):
        # a (n_dofs, k) block through refinement, the scatter and injection
        # gives each column's single-field transfer, bit for bit; one refined
        # leaf makes one-row child groups, where a (k, n_loc) product would
        # take another BLAS kernel than k (1, n_loc) products
        rng = np.random.default_rng(500 + 10 * dim + p)
        for _ in range(5):
            mesh = adapted_mesh(dim, rng)
            assert dim == 1 or enumerate_nodes(mesh, p).hanging.size
            block = NodalField(mesh, p, rng.standard_normal((enumerate_nodes(mesh, p).n_dofs, 3)))
            refined, rrec = refine(mesh, rng.choice(mesh.n_leaves, size=n_refined, replace=False))
            _, crec = coarsen(refined, np.flatnonzero(refined.levels >= mesh.levels.max()))
            _, direct = coarsen(mesh, np.flatnonzero(mesh.levels == mesh.levels.max()))
            assert len(crec.merges) and len(direct.merges)

            def moves(f):
                leaf = refine_leaf_field(f, rrec)
                return [leaf, leaf.nodal(), transfer_coarsen_injection(leaf, crec),
                        transfer_coarsen_injection(f, direct)]

            got = moves(block)
            for j in range(3):
                want = moves(NodalField(mesh, p, block.values[:, j].copy()))
                for g, w in zip(got, want):
                    assert g.mesh is w.mesh
                    assert g.values[..., j].tobytes() == w.values.tobytes()

    def test_injection_matrix_picks_the_oracle_nodes(self, dim, p):
        # label each (child, node) of one family by its flat index, inject
        # the labels per axis and read back which (child, node) each parent
        # node took: the first child holding it, as the row search found
        n_loc = (p + 1) ** dim
        labels = np.arange(2**dim * n_loc, dtype=float)[None, :]
        picked = apply_restriction(injection_matrix(p), dim, labels)[0].astype(int)
        child, node = reference.parent_nodes_in_children(dim, p)
        assert np.array_equal(picked // n_loc, child)
        assert np.array_equal(picked % n_loc, node)

    def test_injection_takes_the_first_childs_value(self, dim, p):
        # sibling rows that differ at their shared nodes (as no NodalField's
        # do): the one parent reads each node off the first child holding it
        rng = np.random.default_rng(600 + 10 * dim + p)
        mesh = build_uniform(dim, 1)
        n_loc = (p + 1) ** dim
        rows = rng.standard_normal((mesh.n_leaves, n_loc, 2))
        coarse, rec = coarsen(mesh)
        assert coarse.n_leaves == 1 and rec.merges.tolist() == [list(range(2**dim))]
        got = transfer_coarsen_injection(LeafField(mesh, p, rows), rec)
        child, node = reference.parent_nodes_in_children(dim, p)
        want = rows[rec.merges[0, child], node]
        nn = enumerate_nodes(coarse, p)
        assert got.values[nn.dof_of_node[nn.elem_nodes[0]]].tobytes() == want.tobytes()

    def test_coarsening_nothing_copies_the_field(self, dim, p):
        rng = np.random.default_rng(400 + 10 * dim + p)
        mesh = adapted_mesh(dim, rng)
        f = random_field(mesh, p, rng)
        refined, rrec = refine(mesh, rng.choice(mesh.n_leaves, size=3, replace=False))
        leaf = refine_leaf_field(f, rrec)
        want = leaf.nodal()
        for transfer in (transfer_coarsen_injection, transfer_coarsen_conservative):
            assert same_bits(transfer(f, coarsen(mesh, [])[1]), f)
            # leaves are written in Morton order here, not in refinement order
            got = transfer(leaf, coarsen(refined, [])[1])
            assert got.mesh is refined
            assert np.abs(got.values - want.values).max() <= 1e-13

    def test_refined_mesh_is_balance_checked_not_numbered(self, dim, p):
        mesh = build_uniform(dim, 2)
        f = interpolate_nodal(mesh, p, lambda c: c[:, 0])
        n = mesh.n_leaves - 1  # drop the last leaf: a gap at the domain end
        holed = MeshTopology(dim, mesh.levels[:n], mesh.anchors[:n])
        rec = RefineRecord(mesh, holed, np.arange(n), np.full(n, -1))
        with pytest.raises(MeshStateError, match="does not end at the domain end"):
            refine_leaf_field(f, rec)
        assert not holed._numberings


class TestInjection:
    def test_demo_q1_value(self):
        mesh = build_uniform(1, 4)
        f = interpolate_nodal(mesh, 1, demo_profile)
        _, rec = coarsen(mesh)
        f2 = transfer_coarsen_injection(f, rec)
        assert mass(f2) == pytest.approx(10.6036, abs=1e-3)

    def test_demo_q2_value(self):
        mesh = build_uniform(1, 3)
        f = interpolate_nodal(mesh, 2, demo_profile)
        _, rec = coarsen(mesh)
        f2 = transfer_coarsen_injection(f, rec)
        assert mass(f2) == pytest.approx(10.6381, abs=1e-3)

    def test_coarse_representable_field_is_exact(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: 2.0 * c[:, 0] - c[:, 1] + 0.25)
        before = mass(f)
        _, rec = coarsen(mesh)
        f2 = transfer_coarsen_injection(f, rec)
        back = interpolate_nodal(rec.mesh_new, 1, lambda c: 2.0 * c[:, 0] - c[:, 1] + 0.25)
        assert np.abs(f2.values - back.values).max() <= 1e-14
        assert mass(f2) == pytest.approx(before, abs=1e-13)

    def test_mismatched_mesh_rejected(self):
        mesh = build_uniform(2, 3)
        other = build_uniform(2, 3)
        f = interpolate_nodal(other, 1, lambda c: c[:, 0])
        _, rec = coarsen(mesh)
        with pytest.raises(ValueError):
            transfer_coarsen_injection(f, rec)
        with pytest.raises(ValueError):
            transfer_coarsen_conservative(f, rec)


class TestConservative:
    def test_demo_q1_value_and_exact_conservation(self):
        mesh = build_uniform(1, 4)
        f = interpolate_nodal(mesh, 1, demo_profile)
        before = mass(f)
        _, rec = coarsen(mesh)
        f2 = transfer_coarsen_conservative(f, rec, tol=1e-14)
        assert mass(f2) == pytest.approx(10.6284, abs=1e-3)
        assert abs(mass(f2) - before) <= 1e-11

    def test_demo_q2_value(self):
        mesh = build_uniform(1, 3)
        f = interpolate_nodal(mesh, 2, demo_profile)
        before = mass(f)
        _, rec = coarsen(mesh)
        f2 = transfer_coarsen_conservative(f, rec, tol=1e-14)
        assert mass(f2) == pytest.approx(10.6367, abs=1e-3)
        assert abs(mass(f2) - before) <= 1e-11

    def test_constant_on_adapted_2d_mesh(self):
        mesh = build_uniform(2, 2)
        mesh, _ = refine(mesh, [0, 5])
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 1.7))
        fine_leaves = np.nonzero(mesh.levels == 3)[0]
        _, rec = coarsen(mesh, fine_leaves)
        assert len(rec.merges)
        f2 = transfer_coarsen_conservative(f, rec, tol=1e-14)
        assert np.abs(f2.values - 1.7).max() <= 1e-12
        assert mass(f2) == pytest.approx(1.7, abs=1e-13)

    def test_gauss_stage_is_bitwise_local(self):
        mesh = build_uniform(2, 3)
        rng = np.random.default_rng(6)
        f = NodalField(mesh, 1, rng.standard_normal(enumerate_nodes(mesh, 1).n_dofs))
        gf = eval_at_gauss(f)
        _, rec = coarsen(mesh, list(range(4)))
        assert len(rec.merges) == 1
        gf2 = restrict_gauss_field(gf, rec)
        copies = rec.copy_source >= 0
        assert np.array_equal(gf2.values[copies], gf.values[rec.copy_source[copies]])

    def test_roundtrip_refine_then_conservative_coarsen(self):
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, lambda c: 0.4 + c[:, 0] * c[:, 1])
        mesh2, rrec = refine(mesh, list(range(mesh.n_leaves)))
        f_fine = refine_leaf_field(f, rrec).nodal()
        _, crec = coarsen(mesh2)
        f_back = transfer_coarsen_conservative(f_fine, crec, tol=1e-14)
        assert f_back.mesh.n_leaves == mesh.n_leaves
        assert np.abs(f_back.values - f.values).max() <= 1e-11


class TestRandomisedConservation:
    def test_conservative_preserves_integral_injection_does_not(self):
        rng = np.random.default_rng(20240817)
        injection_failed_somewhere = False
        for trial in range(20):
            mesh = build_uniform(2, 2)
            for _ in range(2):
                pick = rng.choice(mesh.n_leaves, size=max(1, mesh.n_leaves // 4), replace=False)
                mesh, _ = refine(mesh, pick)
            p = 1 + trial % 2
            nn = enumerate_nodes(mesh, p)
            fine_levels = mesh.levels == mesh.levels.max()
            for _ in range(5):
                f = NodalField(mesh, p, rng.standard_normal(nn.n_dofs))
                m1 = mass(f)
                _, rec = coarsen(mesh, np.nonzero(fine_levels)[0])
                if not len(rec.merges):
                    break
                fc = transfer_coarsen_conservative(f, rec, tol=1e-13)
                assert abs(mass(fc) - m1) <= 1e-10 * max(1.0, abs(m1))
                fi = transfer_coarsen_injection(f, rec)
                if abs(mass(fi) - m1) > 1e-10 * max(1.0, abs(m1)):
                    injection_failed_somewhere = True
        assert injection_failed_somewhere


class TestOneRule:
    # the mass matrix integrates on the p + 1 rule only, so Gauss data on
    # another rule cannot be restricted or projected conservatively: no
    # GaussField holds it, so none reaches either
    OFF_RULE = r"gauss block shape \(16, 9\) != \(16, 4\)"

    def test_projection_rejects_another_rule(self):
        f = interpolate_nodal(build_uniform(2, 2), 1, demo_profile)
        values = f.element_values() @ _tables(2, 1, 3)[0]  # three points per axis
        with pytest.raises(ValueError, match=self.OFF_RULE):
            project_l2(GaussField(f.mesh, f.p, values))

    def test_restriction_rejects_another_rule(self):
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, demo_profile)
        _, rec = coarsen(mesh)
        values = f.element_values() @ _tables(2, 1, 3)[0]
        with pytest.raises(ValueError, match=self.OFF_RULE):
            restrict_gauss_field(replace(eval_at_gauss(f), values=values), rec)


class TestL2Optimality:
    """Conservative coarsening is the Galerkin L2 projection onto the coarse
    CG space: the error is M-orthogonal to every prolonged coarse field."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_conservative_coarsening_is_l2_optimal(self, p):
        mesh = build_uniform(2, 2)
        mesh, _ = refine(mesh, [0, 5, 6])
        mesh, _ = refine(mesh, np.nonzero(mesh.levels == 3)[0][::2])
        assert enumerate_nodes(mesh, p).hanging.size
        coarse_mesh, crec = coarsen(mesh, np.nonzero(mesh.levels == mesh.levels.max())[0])
        assert len(crec.merges)
        assert enumerate_nodes(coarse_mesh, p).hanging.size

        # prolongation P, column by column, through a refine-back record
        back_mesh, rrec = refine(coarse_mesh, np.flatnonzero(crec.copy_source < 0))
        assert np.array_equal(back_mesh.levels, mesh.levels)
        assert np.array_equal(back_mesh.anchors, mesh.anchors)
        n_coarse = enumerate_nodes(coarse_mesh, p).n_dofs
        prolong = np.column_stack(
            [
                refine_leaf_field(NodalField(coarse_mesh, p, e), rrec).nodal().values
                for e in np.eye(n_coarse)
            ]
        )
        m_fine = assemble_mass(mesh, p).toarray()

        rng = np.random.default_rng(31)
        nn = enumerate_nodes(mesh, p)
        smooth = np.sin(3.0 * nn.independent_coords()[:, 0])
        f = NodalField(mesh, p, smooth + rng.standard_normal(nn.n_dofs))
        cons = transfer_coarsen_conservative(f, crec, tol=1e-14)
        inj = transfer_coarsen_injection(f, crec)

        err_cons = f.values - prolong @ cons.values
        err_inj = f.values - prolong @ inj.values
        residual = prolong.T @ m_fine @ err_cons
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(prolong.T @ m_fine @ f.values)

        d_cons = coarsen_l2_distance(f, cons, crec)
        d_inj = coarsen_l2_distance(f, inj, crec)
        assert d_cons == pytest.approx(np.sqrt(err_cons @ m_fine @ err_cons), rel=1e-9)
        assert d_inj == pytest.approx(np.sqrt(err_inj @ m_fine @ err_inj), rel=1e-9)
        assert d_cons <= d_inj


class TestEnergyMismatch:
    def test_conservative_mismatch_smaller_on_phase_snapshot(self):
        # a settled tanh interface: coarsening the out-of-band cells perturbs
        # the energy less under the conservative transfer
        from amrfem.models import CahnHilliardProblem, energy

        prob = CahnHilliardProblem()
        mesh = build_uniform(2, 4)
        f = interpolate_nodal(
            mesh, 1, lambda c: np.tanh((c[:, 0] - 0.5) / (np.sqrt(2 * prob.eps2)))
        )
        out_of_band = np.nonzero(
            np.abs(f.element_values()).min(axis=1) > 0.9
        )[0]
        _, rec = coarsen(mesh, out_of_band)
        assert len(rec.merges)
        e_fine = energy(f, prob)
        de_cons = abs(e_fine - energy(transfer_coarsen_conservative(f, rec, tol=1e-14), prob))
        de_inj = abs(e_fine - energy(transfer_coarsen_injection(f, rec), prob))
        assert de_cons < de_inj

    def test_representable_field_mismatch_negligible(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: 1.0 + 0.5 * c[:, 0])
        _, rec = coarsen(mesh)
        fc = transfer_coarsen_conservative(f, rec, tol=1e-14)
        fi = transfer_coarsen_injection(f, rec)
        assert abs(mass(f) - mass(fc)) <= 1e-12
        assert abs(mass(f) - mass(fi)) <= 1e-12
