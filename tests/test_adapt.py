import numpy as np
import pytest

import transfer_reference as reference
from amrfem import adapt, fem
from amrfem.adapt import (
    InterfaceCriterion,
    MmsCriterion,
    adapt_cycle,
    element_gradient_norms,
    mark_interface,
    mark_mms,
)
from amrfem.fem import (
    NodalField,
    eval_at_gauss,
    integrate_gauss,
    interpolate_nodal,
)
from amrfem.mesh import MeshTopology, build_uniform, enumerate_nodes, execute_refine
from amrfem.models import (
    CahnHilliardProblem,
    DiffusionProblem,
    diffusion_step,
    energy,
    random_mixture_ic,
)
from amrfem.transfer import TransferMode


def field_mass(f):
    return integrate_gauss(eval_at_gauss(f))


class RefineOnly:
    """Criterion that refines the given leaves and never coarsens."""

    def __init__(self, leaves):
        self.leaves = leaves

    def refine(self, field):
        mask = np.zeros(field.mesh.n_leaves, dtype=bool)
        mask[self.leaves] = True
        return mask

    def coarsen(self, field):
        return np.zeros(field.mesh.n_leaves, dtype=bool)


@pytest.fixture
def refine_calls(monkeypatch):
    """(refined mesh, record) of every refine stage adapt_cycle executes."""
    calls = []

    def recording(mesh, refine):
        out = execute_refine(mesh, refine)
        calls.append(out)
        return out

    monkeypatch.setattr(adapt, "execute_refine", recording)
    return calls


class TestGradientIndicator:
    def test_constant_field_zero(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 1.5))
        assert np.abs(element_gradient_norms(f)).max() <= 1e-14

    def test_linear_field_value(self):
        # |grad phi| = 3 everywhere: eta_e = 3 * sqrt(cell area)
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, lambda c: 3.0 * c[:, 0])
        eta = element_gradient_norms(f)
        assert np.abs(eta - 3.0 * 0.25).max() <= 1e-12


class TestMarkMms:
    def test_constant_field_flags_all_fine_leaves(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.ones(len(c)))
        assert np.all(mark_mms(f, MmsCriterion(tau=1e-2, fine_level=3)))

    def test_huge_gradient_uses_fraction_clause_only(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: 100.0 * c[:, 0])
        n_flagged = np.count_nonzero(mark_mms(f, MmsCriterion(tau=1e-12, fine_level=3)))
        # whole families, as many as fit in the 10% element budget
        budget = int(0.10 * mesh.n_leaves)
        assert n_flagged == (budget // 4) * 4
        assert 0 < n_flagged <= budget

    def test_all_coarse_leaves_give_empty_plan(self):
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, lambda c: np.ones(len(c)))
        assert not np.any(mark_mms(f, MmsCriterion(tau=1e-2, fine_level=3)))

    def test_all_coarse_mesh_computes_no_indicator(self, monkeypatch):
        def unused(field):
            raise AssertionError("element_gradient_norms called")

        monkeypatch.setattr(adapt, "element_gradient_norms", unused)
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, lambda c: c[:, 0] ** 2)
        coarsen = mark_mms(f, MmsCriterion(tau=1e-2, fine_level=3))
        assert coarsen.dtype == bool and not coarsen.any()

    def test_refine_mask_is_empty(self, monkeypatch):
        def unused(field):
            raise AssertionError("element_gradient_norms called")

        monkeypatch.setattr(adapt, "element_gradient_norms", unused)
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.ones(len(c)))
        refine = MmsCriterion(tau=1e-2, fine_level=3).refine(f)
        assert refine.dtype == bool and refine.shape == (mesh.n_leaves,) and not refine.any()

    def test_fraction_ties_break_by_morton(self):
        # identical eta everywhere: the budgeted families must be the first
        # ones in Morton order
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: c[:, 0] + c[:, 1])
        flagged = np.flatnonzero(mark_mms(f, MmsCriterion(tau=1e-12, fine_level=3)))
        budget = (int(0.10 * mesh.n_leaves) // 4) * 4
        assert np.array_equal(flagged, np.arange(budget))

    def test_determinism(self):
        mesh = build_uniform(2, 3)
        rng = np.random.default_rng(0)
        f = NodalField(mesh, 1, rng.standard_normal(enumerate_nodes(mesh, 1).n_dofs))
        crit = MmsCriterion(tau=5e-3, fine_level=3)
        a = mark_mms(f, crit)
        b = mark_mms(f, crit)
        assert np.array_equal(a, b)


class TestMarkInterface:
    def crit(self, lo=-0.9, hi=0.9, closed=True):
        return InterfaceCriterion(lo, hi, bulk_level=2, interface_level=4, closed=closed)

    def test_mixed_state_refines_everywhere(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.zeros(len(c)))
        assert np.all(self.crit().refine(f))

    def test_pure_state_coarsens_everywhere(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 0.95))
        assert not np.any(mark_interface(f, self.crit()))
        assert np.all(self.crit().coarsen(f))
        assert not np.any(self.crit().refine(f))

    def test_open_band_for_flory_huggins(self):
        mesh = build_uniform(2, 3)
        crit = InterfaceCriterion(0.30, 0.70, 2, 4, closed=False)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 0.5))
        assert np.all(crit.refine(f))
        g = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 0.30))
        assert not np.any(crit.refine(g))  # boundary excluded

    def test_level_clamps(self):
        mesh = build_uniform(2, 4)
        f = interpolate_nodal(mesh, 1, lambda c: np.zeros(len(c)))
        assert np.all(mark_interface(f, self.crit()))
        assert not np.any(self.crit().refine(f))  # already at interface level
        mesh2 = build_uniform(2, 2)
        g = interpolate_nodal(mesh2, 1, lambda c: np.full(len(c), 0.99))
        assert not np.any(self.crit().coarsen(g))  # already at bulk level

    @pytest.mark.parametrize(
        "lo, hi, closed", [(0.7, 0.3, True), (0.7, 0.3, False), (0.5, 0.5, False), (-0.9, np.nan, True)]
    )
    def test_band_that_holds_no_value_rejected(self, lo, hi, closed):
        # no sample could mark an interface, so every cycle would coarsen to bulk
        with pytest.raises(ValueError, match=rf"band_lo \({lo}\).*band_hi \({hi}\)"):
            self.crit(lo, hi, closed)

    def test_single_value_closed_band_accepted(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 0.5))
        assert np.all(self.crit(0.5, 0.5).refine(f))

    def test_gauss_samples_counted_not_only_nodes(self):
        # Q2 bump: nodes outside the band, interior Gauss values inside
        mesh = build_uniform(2, 0)
        nn = enumerate_nodes(mesh, 2)
        values = np.full(nn.n_dofs, 0.95)
        centre = np.argmin(np.abs(nn.independent_coords() - 0.5).sum(axis=1))
        values[centre] = 0.95 - 0.5  # pulls interior Gauss samples into band
        f = NodalField(mesh, 2, values)
        crit = InterfaceCriterion(-0.9, 0.9, 0, 2, closed=True)
        assert np.any(crit.refine(f))


class TestAdaptCycle:
    def test_empty_plans_keep_everything(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.zeros(len(c)))
        crit = InterfaceCriterion(-0.9, 0.9, 2, 3)
        mesh2, fields, stats = adapt_cycle(
            {"phi": f}, {"phi": TransferMode.CONSERVATIVE}, "phi", crit
        )
        assert mesh2 is mesh
        assert fields["phi"] is not None
        assert stats.n_refined == 0 and stats.n_merged == 0 and stats.delta_e == 0.0

    def test_mms_cycle_conserves_mass(self):
        mesh = build_uniform(2, 4)
        f = interpolate_nodal(
            mesh, 1, lambda c: 1.0 + 0.1 * np.cos(2 * np.pi * c[:, 0]) * np.cos(2 * np.pi * c[:, 1])
        )
        crit = MmsCriterion(tau=2e-2, fine_level=4)
        m0 = field_mass(f)
        mesh2, fields, stats = adapt_cycle(
            {"phi": f}, {"phi": TransferMode.CONSERVATIVE}, "phi", crit, project_tol=1e-14
        )
        assert stats.n_merged > 0
        assert abs(field_mass(fields["phi"]) - m0) <= 1e-11

    def test_ch_cycle_respects_level_bounds(self):
        prob = CahnHilliardProblem()
        mesh = build_uniform(2, 4)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.98, 3)  # wide spread of values
        crit = InterfaceCriterion(-0.5, 0.5, 3, 5)
        fields = {"phi": phi}
        for _ in range(4):
            mesh, fields, _ = adapt_cycle(
                fields,
                {"phi": TransferMode.CONSERVATIVE},
                "phi",
                crit,
                energy_fn=lambda g: energy(g, prob),
            )
            assert mesh.levels.min() >= 3 and mesh.levels.max() <= 5
            count_bulk = 2 ** (2 * 3)
            count_fine = 2 ** (2 * 5)
            assert count_bulk <= mesh.n_leaves <= count_fine

    def test_delta_e_recorded_on_merge(self):
        prob = CahnHilliardProblem()
        mesh = build_uniform(2, 4)
        phi = interpolate_nodal(
            mesh, 1, lambda c: np.tanh((c[:, 0] - 0.5) / 0.1)
        )
        crit = InterfaceCriterion(-0.9, 0.9, 3, 4)
        mesh2, fields, stats = adapt_cycle(
            {"phi": phi},
            {"phi": TransferMode.CONSERVATIVE},
            "phi",
            crit,
            energy_fn=lambda g: energy(g, prob),
        )
        assert stats.n_merged > 0
        assert stats.delta_e >= 0.0
        assert stats.energy == energy(fields["phi"], prob)

    @pytest.mark.parametrize("p", [1, 2])
    def test_refine_and_merge_numbers_only_the_returned_mesh(self, p, refine_calls):
        mesh = build_uniform(2, 3)
        phi = interpolate_nodal(mesh, p, lambda c: np.tanh((c[:, 0] - 0.5) / 0.05))
        mu = interpolate_nodal(mesh, p, lambda c: c[:, 1] ** 2)
        mesh2, fields, stats = adapt_cycle(
            {"phi": phi, "mu": mu},
            {"phi": TransferMode.CONSERVATIVE, "mu": TransferMode.INJECTION},
            "phi",
            InterfaceCriterion(-0.9, 0.9, 2, 4),
        )
        assert stats.n_refined > 0 and stats.n_merged > 0
        (refined, _), = refine_calls
        assert not refined._numberings
        assert refined._balanced is True
        assert list(mesh2._numberings) == [p]
        assert all(f.mesh is mesh2 and isinstance(f, NodalField) for f in fields.values())

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("refine_only", [False, True], ids=["refine-and-merge", "refine-only"])
    def test_block_crosses_the_cycle_like_its_columns(self, p, refine_only):
        mesh = build_uniform(2, 3)
        phi = interpolate_nodal(mesh, p, lambda c: np.tanh((c[:, 0] - 0.5) / 0.05))
        rng = np.random.default_rng(9)
        block = rng.standard_normal((len(phi.values), 3))
        crit = RefineOnly([0, 9]) if refine_only else InterfaceCriterion(-0.9, 0.9, 2, 4)
        modes = {"phi": TransferMode.CONSERVATIVE}
        mesh2, fields, stats = adapt_cycle(
            {"phi": phi, "block": NodalField(mesh, p, block)}, modes, "phi", crit
        )
        assert stats.n_refined > 0 and (stats.n_merged == 0) == refine_only
        columns = {f"c{j}": NodalField(mesh, p, block[:, j].copy()) for j in range(3)}
        mesh3, singles, _ = adapt_cycle({"phi": phi, **columns}, modes, "phi", crit)
        assert mesh3.n_leaves == mesh2.n_leaves
        assert fields["block"].values.shape == (len(fields["phi"].values), 3)
        for j in range(3):
            assert fields["block"].values[:, j].tobytes() == singles[f"c{j}"].values.tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_refine_only_scatters_like_transfer_refine(self, p, refine_calls):
        mesh = build_uniform(2, 2)
        refine = np.zeros(mesh.n_leaves, dtype=bool)
        refine[5] = True  # hanging nodes around leaf 5's children
        mesh, _ = execute_refine(mesh, refine)
        rng = np.random.default_rng(8)
        f = NodalField(mesh, p, rng.standard_normal(enumerate_nodes(mesh, p).n_dofs))
        mesh2, fields, stats = adapt_cycle(
            {"phi": f}, {"phi": TransferMode.CONSERVATIVE}, "phi", RefineOnly([0, 4, 9])
        )
        (refined, record), = refine_calls
        assert mesh2 is refined and stats.n_refined > 0 and stats.n_merged == 0
        assert list(refined._numberings) == [p]
        want = reference.transfer_refine(f, record)
        assert fields["phi"].values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("case", ["coarsen-only", "refine-and-coarsen"])
    def test_replaced_mesh_holds_no_operator_when_the_coarse_mass_is_built(
        self, case, monkeypatch
    ):
        mesh = build_uniform(2, 4)
        if case == "coarsen-only":
            fn = lambda c: 1.0 + 0.1 * np.cos(2 * np.pi * c[:, 0]) * np.cos(2 * np.pi * c[:, 1])
            crit = MmsCriterion(tau=2e-2, fine_level=4)
        else:
            fn = lambda c: np.tanh((c[:, 0] - 0.5) / 0.05)
            crit = InterfaceCriterion(-0.9, 0.9, 3, 5)
        f = interpolate_nodal(mesh, 1, fn)
        diffusion_step(f, DiffusionProblem())  # caches mass, stiffness and the step's operators
        nn = enumerate_nodes(mesh, 1)
        derived = ("summation_map", "constraint_transpose", "dissection_order")
        for name in derived:
            getattr(nn, name)
        assert len(nn.cache) == 3 and all(name in vars(nn) for name in derived)
        built = []
        real = fem.assemble_mass

        def checking(m, p):
            if m is not mesh:
                assert not nn.cache and not any(name in vars(nn) for name in derived)
                built.append(m)
            return real(m, p)

        monkeypatch.setattr(fem, "assemble_mass", checking)
        mesh2, fields, stats = adapt_cycle(
            {"phi": f}, {"phi": TransferMode.CONSERVATIVE}, "phi", crit, project_tol=1e-14
        )
        assert stats.n_merged > 0 and built == [mesh2]
        assert (stats.n_refined > 0) == (case == "refine-and-coarsen")
        # the numbering stays, and its operators come back as a fresh mesh builds them
        assert enumerate_nodes(mesh, 1) is nn
        fresh = NodalField(MeshTopology(2, mesh.levels, mesh.anchors), 1, f.values)
        want = diffusion_step(fresh, DiffusionProblem()).values
        assert diffusion_step(f, DiffusionProblem()).values.tobytes() == want.tobytes()

    def test_cycle_that_keeps_its_mesh_keeps_its_operators(self):
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: c[:, 0] * c[:, 1])
        diffusion_step(f, DiffusionProblem())
        nn = enumerate_nodes(mesh, 1)
        cached, sums = dict(nn.cache), nn.summation_map
        # no leaf at the fine level: the coarsen stage has nothing to merge
        mesh2, _, stats = adapt_cycle(
            {"phi": f}, {"phi": TransferMode.CONSERVATIVE}, "phi", MmsCriterion(1.0, 4)
        )
        assert mesh2 is mesh and stats.n_merged == 0
        assert nn.cache.keys() == cached.keys()
        assert all(nn.cache[k] is v for k, v in cached.items())
        assert nn.summation_map is sums
