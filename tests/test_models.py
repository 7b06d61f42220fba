import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from amrfem import adapt, models, runs
from amrfem.config import ExperimentConfig
from amrfem.errors import NewtonError
from amrfem.fem import (
    NodalField,
    assemble_mass,
    eval_at_gauss,
    integrate_gauss,
    interpolate_nodal,
)
from amrfem.mesh import (
    CoarsenRecord,
    RefineRecord,
    build_uniform,
    enumerate_nodes,
    execute_refine,
)
from amrfem.models import (
    CahnHilliardProblem,
    Diagnostics,
    DiffusionProblem,
    FloryHugginsFreeEnergy,
    PolynomialFreeEnergy,
    ch_residual_and_jacobian,
    ch_step,
    chemical_potential_init,
    diffusion_step,
    energy,
    make_free_energy,
    mms_exact,
    random_mixture_ic,
)
from amrfem.transfer import refine_leaf_field, transfer_coarsen_injection


def field_mass(f):
    return integrate_gauss(eval_at_gauss(f))


def hanging_node_mesh():
    """A level-5 mesh with a few refined leaves."""
    mesh = build_uniform(2, 5)
    refine = np.zeros(mesh.n_leaves, dtype=bool)
    refine[[3, 200, 201, 700]] = True
    return execute_refine(mesh, refine)[0]


def hanging_node_step():
    """One Cahn-Hilliard step on ``hanging_node_mesh``."""
    mesh = hanging_node_mesh()
    prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
    phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 11)
    return ch_step(phi, chemical_potential_init(phi, prob), prob)


class DoublePrecisionLinalg:
    """Oracle for ``models.spla``: factors the Jacobian in float64.

    ``_ch_substep`` hands each solve a float32 right-hand side; the oracle
    promotes it exactly and solves in float64, so only the rounding of the
    right-hand side (6e-8 relative) remains of single precision.
    """

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(np.asarray(b, dtype=np.float64))

    def splu(self, a, **kwargs):
        return self.Factor(spla.splu(a.astype(np.float64), **kwargs))


def assert_every_iterate_keeps_the_old_mass(monkeypatch):
    # every iterate is an affine combination of chord images, and each
    # image is shifted by a constant onto the old mass, so 1'M phi never moves
    mesh = hanging_node_mesh()
    n = enumerate_nodes(mesh, 1).n_dofs
    prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
    mass = assemble_mass(mesh, 1)
    iterates = []
    real = models._anderson

    def recording(history):
        u = real(history)
        iterates.append(u[:n].copy())
        return u

    monkeypatch.setattr(models, "_anderson", recording)
    phi = random_mixture_ic(mesh, 1, 0.3, 0.1, 13)
    mu = chemical_potential_init(phi, prob)
    previous = None
    for _ in range(12):
        u = np.concatenate([phi.values, mu.values])
        start = None if previous is None else 2.0 * u - previous
        m_old = np.sum(mass @ phi.values)
        iterates.clear()
        phi, mu, iters = ch_step(phi, mu, prob, start)
        previous = u
        assert len(iterates) == iters
        for it in iterates:
            assert abs(np.sum(mass @ it) - m_old) <= 1e-14 * abs(m_old)
    assert iters >= 3  # late steps mix two differences


class TestMmsExact:
    def test_origin_at_t0(self):
        prob = DiffusionProblem()
        assert mms_exact(0.0, 0.0, 0.0, prob) == pytest.approx(1.1)

    def test_quarter_point_any_time(self):
        prob = DiffusionProblem()
        for t in (0.0, 0.3, 1.0):
            assert mms_exact(0.25, 0.25, t, prob) == pytest.approx(1.0, abs=1e-15)

    def test_total_mass_is_one(self):
        prob = DiffusionProblem()
        mesh = build_uniform(2, 4)
        for t in (0.0, 0.5):
            f = interpolate_nodal(mesh, 2, lambda c: mms_exact(c[:, 0], c[:, 1], t, prob))
            assert field_mass(f) == pytest.approx(1.0, abs=1e-12)


class TestDiffusionStep:
    def test_constant_is_steady_state(self):
        prob = DiffusionProblem(dt=0.05, mass_tol=1e-13)
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 2.5))
        f2 = diffusion_step(f, prob)
        assert np.abs(f2.values - 2.5).max() <= 1e-12

    def test_single_step_mass_conservation(self):
        prob = DiffusionProblem(dt=0.01, mass_tol=1e-13)
        mesh = build_uniform(2, 4)
        f = interpolate_nodal(mesh, 1, lambda c: mms_exact(c[:, 0], c[:, 1], 0.0, prob))
        f2 = diffusion_step(f, prob)
        assert abs(field_mass(f2) - field_mass(f)) <= 1e-12

    def test_crank_nicolson_second_order_in_time(self):
        # against a tiny-step reference on the same mesh the dt and dt/2
        # solutions differ by ~4x (pure temporal error)
        mesh = build_uniform(2, 4)
        t_final = 0.2

        def advance(dt):
            prob = DiffusionProblem(dt=dt, mass_tol=1e-14)
            f = interpolate_nodal(mesh, 1, lambda c: mms_exact(c[:, 0], c[:, 1], 0.0, prob))
            for _ in range(int(round(t_final / dt))):
                f = diffusion_step(f, prob)
            return f.values

        ref = advance(0.0125)
        e1 = np.linalg.norm(advance(0.1) - ref)
        e2 = np.linalg.norm(advance(0.05) - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


class TestFreeEnergies:
    def test_polynomial_well(self):
        fe = PolynomialFreeEnergy()
        assert fe.f(1.0) == 0.0 and fe.f(-1.0) == 0.0
        assert fe.df(1.0) == 0.0 and fe.df(-1.0) == 0.0
        assert fe.f(0.0) == 0.25

    def test_polynomial_derivatives_fd(self):
        fe = PolynomialFreeEnergy()
        x = np.linspace(-1.2, 1.2, 13)
        eps = 1e-6
        assert np.abs((fe.f(x + eps) - fe.f(x - eps)) / (2 * eps) - fe.df(x)).max() <= 1e-8
        assert np.abs((fe.df(x + eps) - fe.df(x - eps)) / (2 * eps) - fe.d2f(x)).max() <= 1e-7

    def test_flory_huggins_value_at_half(self):
        fe = FloryHugginsFreeEnergy(a=1.0, chi=3.0, beta=0.01)
        assert fe.f(0.5) == pytest.approx(np.log(0.5) + 0.75 + 0.04, abs=1e-14)

    def test_flory_huggins_no_nan_out_of_range(self):
        fe = FloryHugginsFreeEnergy()
        x = np.linspace(-0.5, 1.5, 101)
        for fn in (fe.f, fe.df, fe.d2f):
            assert np.all(np.isfinite(fn(x)))

    def test_flory_huggins_exact_inside_safe_range(self):
        fe = FloryHugginsFreeEnergy()
        x = np.array([1e-5, 0.2, 0.8, 1.0 - 1e-5])
        direct = (
            1.0 * (x * np.log(x) + (1 - x) * np.log(1 - x))
            + 3.0 * x * (1 - x)
            + 0.01 * (1.0 / x + 1.0 / (1 - x))
        )
        assert np.abs(fe.f(x) - direct).max() <= 1e-14

    def test_factory(self):
        assert isinstance(make_free_energy("polynomial"), PolynomialFreeEnergy)
        fh = make_free_energy("flory_huggins", chi=2.5)
        assert isinstance(fh, FloryHugginsFreeEnergy) and fh.chi == 2.5
        with pytest.raises(ValueError):
            make_free_energy("unknown")


class TestEnergy:
    def test_pure_phase_zero(self):
        prob = CahnHilliardProblem()
        mesh = build_uniform(2, 3)
        ones = interpolate_nodal(mesh, 1, lambda c: np.ones(len(c)))
        assert energy(ones, prob) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_state_quarter(self):
        prob = CahnHilliardProblem(eps2=0.5)
        mesh = build_uniform(2, 3)
        zeros = interpolate_nodal(mesh, 1, lambda c: np.zeros(len(c)))
        assert energy(zeros, prob) == pytest.approx(0.25, abs=1e-14)

    def test_flory_huggins_uniform_half(self):
        prob = CahnHilliardProblem(free_energy=FloryHugginsFreeEnergy())
        mesh = build_uniform(2, 3)
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 0.5))
        assert energy(f, prob) == pytest.approx(0.0968528194400546, abs=1e-12)


class TestChStep:
    def test_uniform_state_is_fixed_point(self):
        prob = CahnHilliardProblem(dt=5e-4)
        mesh = build_uniform(2, 3)
        nn = enumerate_nodes(mesh, 1)
        phi = NodalField(mesh, 1, np.full(nn.n_dofs, 0.3))
        mu = chemical_potential_init(phi, prob)
        phi2, mu2, iters = ch_step(phi, mu, prob)
        assert np.abs(phi2.values - 0.3).max() <= 1e-12
        assert iters == 0

    def test_one_step_mass_conservation_random_ic(self):
        prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
        mesh = build_uniform(2, 4)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 3)
        mu = chemical_potential_init(phi, prob)
        m0 = field_mass(phi)
        phi2, _, _ = ch_step(phi, mu, prob)
        assert abs(field_mass(phi2) - m0) <= 1e-11

    @pytest.mark.parametrize("variant", ["polynomial", "flory_huggins"])
    def test_jacobian_matches_finite_differences(self, variant):
        mesh = build_uniform(2, 2)
        nn = enumerate_nodes(mesh, 1)
        base = 0.5 if variant == "flory_huggins" else 0.0
        prob = CahnHilliardProblem(free_energy=make_free_energy(variant), dt=1e-3)
        rng = np.random.default_rng(77)
        for trial in range(10):
            phi = NodalField(mesh, 1, base + 0.2 * rng.uniform(-1, 1, nn.n_dofs))
            mu = NodalField(mesh, 1, rng.standard_normal(nn.n_dofs))
            residual, jacobian = ch_residual_and_jacobian(phi, mu, prob, prob.dt)
            u = np.concatenate([phi.values, mu.values])
            jac = jacobian(u)
            v = rng.standard_normal(len(u))
            eps = 1e-6
            fd = (residual(u + eps * v) - residual(u - eps * v)) / (2 * eps)
            jv = jac @ v
            denom = max(np.linalg.norm(jv), 1.0)
            assert np.linalg.norm(jv - fd) / denom <= 1e-5

    def test_factor_keeps_symmetric_ordering_and_cuts_fill(self, monkeypatch):
        mesh = build_uniform(2, 6)
        refine = np.zeros(mesh.n_leaves, dtype=bool)
        refine[[5, 40, 41, 100, 170, 2000]] = True
        mesh, _ = execute_refine(mesh, refine)
        nn = enumerate_nodes(mesh, 1)
        assert nn.n_nodes > nn.n_dofs  # hanging nodes
        prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 3)
        mu = chemical_potential_init(phi, prob)
        factored = []

        class RecordingLinalg:
            def splu(self, a, **kwargs):
                factored.append(a)
                return spla.splu(a, **kwargs)

        monkeypatch.setattr(models, "spla", RecordingLinalg())
        ch_step(phi, mu, prob)
        lu = nn.cache[("ch_lu", prob.dt, prob.mobility, prob.eps2)]
        jac = factored[-1]
        assert jac.dtype == np.float32  # the factor is single precision
        pivoted = spla.splu(jac.astype(np.float64))
        assert np.array_equal(lu.perm_r, lu.perm_c)  # no off-diagonal pivot
        assert lu.nnz <= 0.6 * pivoted.nnz
        rhs = np.random.default_rng(5).standard_normal(jac.shape[0])
        ref = pivoted.solve(rhs)
        got = lu.solve(rhs.astype(np.float32))
        assert got.dtype == np.float32
        # measured on this mesh: 1.07e-6 to 1.15e-6 over six right-hand
        # sides; the step-level agreement with a double-precision factor is
        # test_step_matches_double_precision_factor's
        assert np.linalg.norm(got - ref) <= 5e-6 * np.linalg.norm(ref)

    def test_dissection_factor_fills_less_than_minimum_degree(self):
        mesh = build_uniform(2, 7)
        prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 3)
        mu = chemical_potential_init(phi, prob)
        ch_step(phi, mu, prob)
        lu = enumerate_nodes(mesh, 1).cache[("ch_lu", prob.dt, prob.mobility, prob.eps2)]
        assert np.array_equal(lu.perm_c, np.arange(lu.shape[0]))  # no reordering by SuperLU
        # without pivots the fill depends on the pattern only, which any state shares
        _, jacobian = ch_residual_and_jacobian(phi, mu, prob, prob.dt)
        mmd = spla.splu(
            jacobian(np.concatenate([phi.values, mu.values])).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        assert lu.nnz <= 0.8 * mmd.nnz

    def test_step_matches_minimum_degree_factor(self, monkeypatch):
        phi, mu, iters = hanging_node_step()

        class MinimumDegreeLinalg:
            def splu(self, a, **kwargs):
                return spla.splu(a, **{**kwargs, "permc_spec": "MMD_AT_PLUS_A"})

        monkeypatch.setattr(models, "spla", MinimumDegreeLinalg())
        phi_ref, mu_ref, iters_ref = hanging_node_step()
        assert iters == iters_ref
        for got, ref in ((phi, phi_ref), (mu, mu_ref)):
            err = np.linalg.norm(got.values - ref.values)
            assert err <= 1e-10 * np.linalg.norm(ref.values)

    def test_step_matches_double_precision_factor(self, monkeypatch):
        phi, mu, iters = hanging_node_step()
        monkeypatch.setattr(models, "spla", DoublePrecisionLinalg())
        phi_ref, mu_ref, iters_ref = hanging_node_step()
        assert iters == iters_ref
        for got, ref in ((phi, phi_ref), (mu, mu_ref)):
            err = np.linalg.norm(got.values - ref.values)
            assert err <= 1e-10 * np.linalg.norm(ref.values)

    @pytest.mark.parametrize(
        "fe, phi0, amplitude, spd",
        [(PolynomialFreeEnergy(), 0.0, 0.9, True), (FloryHugginsFreeEnergy(), 0.5, 0.48, False)],
        ids=["polynomial", "flory_huggins"],
    )
    def test_scaled_jacobian_symmetric_part(self, fe, phi0, amplitude, spd):
        # with D = diag(I, mobility/eps2 I), D J has symmetric part
        # [[M/dt, -c J_f], [-c J_f, 2c M]], c = mobility/(2 eps2). It is SPD,
        # so the LU needs no pivots, while mobility dt max|f''|^2 < 4 eps2:
        # true for the desk polynomial run, false for Flory-Huggins near its
        # pure phases
        prob = CahnHilliardProblem(free_energy=fe, dt=5e-4, eps2=1e-3, mobility=1.0)
        mesh = build_uniform(2, 3)
        phi = random_mixture_ic(mesh, 1, phi0, amplitude, 3)
        mu = chemical_potential_init(phi, prob)
        _, jacobian = ch_residual_and_jacobian(phi, mu, prob, prob.dt)
        jac = jacobian(np.concatenate([phi.values, mu.values])).toarray()
        n = len(phi.values)
        scaled = np.concatenate([np.ones(n), np.full(n, prob.mobility / prob.eps2)])[:, None] * jac
        min_eig = np.linalg.eigvalsh(0.5 * (scaled + scaled.T)).min()
        bound = prob.mobility * prob.dt * np.abs(fe.d2f(phi.values)).max() ** 2 / (4 * prob.eps2)
        assert (bound < 1) == spd
        assert (min_eig > 0) == spd

    def test_factor_failure_raises_newton_error_after_retry(self, monkeypatch):
        calls = []

        class SingularLinalg:
            def splu(self, a, **kwargs):
                calls.append(a.shape)
                raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(models, "spla", SingularLinalg())
        prob = CahnHilliardProblem(dt=5e-4)
        mesh = build_uniform(2, 3)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 3)
        mu = chemical_potential_init(phi, prob)
        with pytest.raises(NewtonError, match=r"64 leaves, 81 dofs, dt=0.00025") as info:
            ch_step(phi, mu, prob)
        assert len(calls) == 2  # the full step, then the first half step
        assert isinstance(info.value.__cause__, RuntimeError)
        assert len(info.value.trace) == 1 and info.value.trace[0] > 0

    def test_every_iterate_keeps_the_old_mass(self, monkeypatch):
        assert_every_iterate_keeps_the_old_mass(monkeypatch)

    def test_every_iterate_keeps_the_old_mass_with_an_inexact_factor(self, monkeypatch):
        # the factor's values carry 1e-3 relative noise, so its first block
        # row is no longer the exact mass equation; the constant correction
        # of each chord image keeps the mass regardless
        rng = np.random.default_rng(17)

        class NoisyLinalg:
            def splu(self, a, **kwargs):
                noisy = a.copy()
                noisy.data *= (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, a.nnz)).astype(a.dtype)
                return spla.splu(noisy, **kwargs)

        monkeypatch.setattr(models, "spla", NoisyLinalg())
        assert_every_iterate_keeps_the_old_mass(monkeypatch)

    def test_mixing_cuts_chord_iterations(self):
        # 30 steps on one uniform level-5 mesh, one frozen factor: the plain
        # chord iteration (refactorising below 2x contraction) took 222
        prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
        mesh = build_uniform(2, 5)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 7)
        mu = chemical_potential_init(phi, prob)
        total = 0
        for _ in range(30):
            phi, mu, iters = ch_step(phi, mu, prob)
            total += iters
        assert total <= 0.8 * 222

    def test_quadratic_start_carried_across_mesh_changes(self, monkeypatch):
        calls, cycles = [], []
        real_step, real_cycle = runs.ch_step, runs.adapt_cycle

        def recording_step(phi, mu, problem, start=None):
            out = real_step(phi, mu, problem, start)
            calls.append((phi, mu, start, out))
            return out

        def recording_cycle(*args, **kwargs):
            cycles.append([])
            return real_cycle(*args, **kwargs)

        def recording(execute):
            def wrapped(mesh, mask):
                out = execute(mesh, mask)
                cycles[-1].append(out[1])
                return out

            return wrapped

        monkeypatch.setattr(runs, "ch_step", recording_step)
        monkeypatch.setattr(runs, "adapt_cycle", recording_cycle)
        monkeypatch.setattr(adapt, "execute_refine", recording(adapt.execute_refine))
        monkeypatch.setattr(adapt, "execute_coarsen", recording(adapt.execute_coarsen))
        cfg = ExperimentConfig(
            kind="spinodal", degree=1, bulk_level=2, interface_level=4,
            band_lo=-0.05, band_hi=0.05, dt=5e-4, t_final=0.01, seed=1, mass_tol=1e-13,
        )  # the narrow band makes the mesh change at some steps and not at others
        res = runs.run_spinodal(cfg, "conservative")
        assert res.completed and len(calls) == len(cycles) == 20

        def carry(f, records):
            # what the cycle does to a field without a TransferMode
            for rec in records:
                if isinstance(rec, RefineRecord) and rec.mesh_new is not rec.mesh_old:
                    f = refine_leaf_field(f, rec)
                elif isinstance(rec, CoarsenRecord) and len(rec.merges):
                    f = transfer_coarsen_injection(f, rec)
            return f if isinstance(f, NodalField) else f.nodal()

        increments, mesh = [], calls[0][0].mesh  # increments as carried onto mesh
        for (phi, mu, start, out), records in zip(calls, cycles):
            assert phi.mesh is mesh
            u = np.concatenate([phi.values, mu.values])
            if not increments:
                assert start is None
            elif len(increments) == 1:
                assert np.array_equal(start, u + increments[0])
            else:
                assert np.array_equal(start, u + 2.0 * increments[0] - increments[1])
            new = np.concatenate([out[0].values, out[1].values]) - u
            parts = [
                [carry(NodalField(mesh, 1, part), records) for part in np.split(d, 2)]
                for d in [new] + increments[:1]
            ]
            increments = [np.concatenate([f.values for f in pair]) for pair in parts]
            mesh = parts[0][0].mesh
        changed = [a[0].mesh is not b[0].mesh for a, b in zip(calls, calls[1:])]
        assert any(changed) and not all(changed)
        assert res.newton_iterations == sum(c[3][2] for c in calls) > 0

    def test_retry_counts_the_failed_full_step(self, monkeypatch):
        real = models._ch_substep
        traces = []

        def failing_full_step(phi, mu, problem, dt, start=None):
            out = real(phi, mu, problem, dt, start)
            traces.append(out[2])
            if dt == problem.dt:
                raise NewtonError("forced failure", out[2])
            return out

        monkeypatch.setattr(models, "_ch_substep", failing_full_step)
        prob = CahnHilliardProblem(dt=5e-4)
        mesh = build_uniform(2, 4)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 3)
        _, _, iters = ch_step(phi, chemical_potential_init(phi, prob), prob)
        assert len(traces) == 3 and len(traces[0]) > 1
        assert iters == sum(len(t) - 1 for t in traces)

    def test_one_factor_alive_at_every_factorisation(self, monkeypatch):
        # every splu runs after the stale factor left the numbering: on a
        # refactorisation within a step, and on a half-step retry, whose
        # factor replaces the failed full step's
        prob = CahnHilliardProblem(dt=1e-3)
        mesh = build_uniform(2, 4)
        nn = enumerate_nodes(mesh, 1)
        lu_keys = lambda: [k for k in nn.cache if k[0] == "ch_lu"]
        calls = []

        class RecordingLinalg:
            def splu(self, a, **kwargs):
                assert not lu_keys()
                calls.append(a.shape)
                return spla.splu(a, **kwargs)

        monkeypatch.setattr(models, "spla", RecordingLinalg())
        phi = random_mixture_ic(mesh, 1, 0.0, 0.9, 3)
        mu = chemical_potential_init(phi, prob)
        phi, mu, _ = ch_step(phi, mu, prob)
        assert len(calls) == 2 and len(lu_keys()) == 1
        real = models._ch_substep

        def failing_full_step(phi, mu, problem, dt, start=None):
            out = real(phi, mu, problem, dt, start)
            if dt == problem.dt:
                raise NewtonError("forced failure", out[2])
            return out

        monkeypatch.setattr(models, "_ch_substep", failing_full_step)
        ch_step(phi, mu, prob)
        assert len(calls) > 2
        assert lu_keys() == [("ch_lu", prob.dt / 2, prob.mobility, prob.eps2)]

    def test_substep_is_independent_of_blas_threads(self):
        # OpenBLAS splits dot products above 10,000 entries across threads;
        # the Newton norms and Gram entries must not see that
        script = textwrap.dedent(
            """
            import hashlib
            from amrfem.mesh import build_uniform
            from amrfem.models import CahnHilliardProblem, _ch_substep, random_mixture_ic
            prob = CahnHilliardProblem(dt=5e-4)
            mesh = build_uniform(2, 7)
            phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 3)
            mu = random_mixture_ic(mesh, 1, 0.0, 0.5, 5)
            phi2, mu2, trace = _ch_substep(phi, mu, prob, prob.dt)
            print(" ".join(t.hex() for t in trace))
            print(hashlib.sha256(phi2.values.tobytes() + mu2.values.tobytes()).hexdigest())
            """
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].split()) >= 4  # two or more iterations, so the mixing ran
        assert outputs[0] == outputs[1]

    def test_energy_decay_over_a_few_steps(self):
        prob = CahnHilliardProblem(dt=5e-4, mass_tol=1e-13)
        mesh = build_uniform(2, 4)
        phi = random_mixture_ic(mesh, 1, 0.0, 0.1, 5)
        mu = chemical_potential_init(phi, prob)
        e_prev = energy(phi, prob)
        for _ in range(5):
            phi, mu, _ = ch_step(phi, mu, prob)
            e_now = energy(phi, prob)
            assert e_now <= e_prev + 1e-6 * e_prev
            e_prev = e_now


class TestDiagnostics:
    def test_mass_drift_series(self):
        d = Diagnostics()
        d.add(0.0, 1.0, 5.0, 0.0, 4, 9)
        d.add(0.1, 1.25, 4.0, 1e-9, 4, 9)
        assert d.mass_drift() == pytest.approx([0.0, 0.25])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            Diagnostics().mass_drift()

    def test_rows_strictly_increasing(self):
        d = Diagnostics()
        d.add(0.0, 1.0, 5.0, 0.0, 4, 9)
        with pytest.raises(ValueError):
            d.add(0.0, 1.0, 5.0, 0.0, 4, 9)

    def test_csv_format(self, tmp_path):
        d = Diagnostics()
        d.add(0.0, 1.0, 5.0, 0.0, 4, 9)
        path = tmp_path / "diag.csv"
        d.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,mass,mass_drift,energy,delta_E_coarsen,num_elements,num_dofs"
        assert len(lines) == 2

    def test_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        Diagnostics().write_csv(path)
        assert path.read_text() == (
            "time,mass,mass_drift,energy,delta_E_coarsen,num_elements,num_dofs\n"
        )


class TestRandomMixtureIc:
    def test_zero_amplitude_is_constant(self):
        mesh = build_uniform(2, 3)
        f = random_mixture_ic(mesh, 1, 0.4, 0.0, 9)
        assert np.all(f.values == 0.4)

    def test_determinism(self):
        mesh = build_uniform(2, 3)
        a = random_mixture_ic(mesh, 1, 0.0, 0.1, 42)
        b = random_mixture_ic(mesh, 1, 0.0, 0.1, 42)
        assert np.array_equal(a.values, b.values)
        c = random_mixture_ic(mesh, 1, 0.0, 0.1, 43)
        assert not np.array_equal(a.values, c.values)

    def test_mesh_independence_at_shared_nodes(self):
        coarse = build_uniform(2, 3)
        fine = build_uniform(2, 4)
        fc = random_mixture_ic(coarse, 1, 0.0, 0.1, 7)
        ff = random_mixture_ic(fine, 1, 0.0, 0.1, 7)
        nc = enumerate_nodes(coarse, 1)
        nf = enumerate_nodes(fine, 1)
        pos = np.searchsorted(nf.node_keys, nc.node_keys)
        assert np.array_equal(nf.node_keys[pos], nc.node_keys)
        assert np.array_equal(ff.values[pos], fc.values)

    def test_sample_statistics(self):
        mesh = build_uniform(2, 8)  # 66049 nodes
        a = 0.1
        f = random_mixture_ic(mesh, 1, 0.2, a, 1)
        n = len(f.values)
        assert n > 1e5 / 2
        tol = 3 * a / np.sqrt(3 * n)
        assert abs(f.values.mean() - 0.2) <= tol
        assert f.values.min() >= 0.2 - a and f.values.max() <= 0.2 + a

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            random_mixture_ic(build_uniform(2, 2), 1, 0.0, -0.1, 0)
