import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from amrfem import models
from amrfem.adapt import InterfaceCriterion, adapt_cycle, element_gradient_norms
from amrfem.errors import SolverError
from amrfem.fem import (
    _element_rule,
    _gauss_mass,
    _gauss_rhs,
    _scatter_matrix,
    _square_sum,
    GaussField,
    NodalField,
    SparseSystem,
    assemble_mass,
    assemble_stiffness,
    eval_at_gauss,
    eval_grad_at_gauss,
    gauss_point_coords,
    integrate_gauss,
    interpolate_nodal,
    project_l2,
    solve_spd,
)
from amrfem.mesh import (
    MAX_LEVEL,
    NodeNumbering,
    build_uniform,
    enumerate_nodes,
    execute_coarsen,
    execute_refine,
)
from amrfem.models import (
    CahnHilliardProblem,
    FloryHugginsFreeEnergy,
    PolynomialFreeEnergy,
    ch_residual_and_jacobian,
)

import assembly_reference as ref


def refined_mesh(level=2, leaves=(0,)):
    mesh = build_uniform(2, level)
    refine = np.zeros(mesh.n_leaves, dtype=bool)
    refine[list(leaves)] = True
    mesh2, _ = execute_refine(mesh, refine)
    return mesh2


class TestEvalAtGauss:
    def test_constant_field(self):
        mesh = refined_mesh()
        f = interpolate_nodal(mesh, 1, lambda c: np.full(len(c), 4.2))
        gf = eval_at_gauss(f)
        assert np.abs(gf.values - 4.2).max() <= 1e-13

    def test_linear_field_hits_gauss_coordinates(self):
        mesh = build_uniform(2, 1)
        f = interpolate_nodal(mesh, 1, lambda c: c[:, 0])
        gf = eval_at_gauss(f)
        pts = gauss_point_coords(mesh, 2)
        assert np.abs(gf.values - pts[:, :, 0]).max() <= 1e-14

    def test_quadratic_reproduction_q2(self):
        mesh = refined_mesh()
        f = interpolate_nodal(mesh, 2, lambda c: c[:, 0] ** 2 + 0.5 * c[:, 1] ** 2)
        gf = eval_at_gauss(f)
        pts = gauss_point_coords(mesh, 3)
        exact = pts[:, :, 0] ** 2 + 0.5 * pts[:, :, 1] ** 2
        assert np.abs(gf.values - exact).max() <= 1e-12

    def test_gradients_of_linear_field(self):
        mesh = refined_mesh()
        f = interpolate_nodal(mesh, 1, lambda c: 3.0 * c[:, 0] - 2.0 * c[:, 1])
        g = eval_grad_at_gauss(f)
        assert np.abs(g[:, :, 0] - 3.0).max() <= 1e-12
        assert np.abs(g[:, :, 1] + 2.0).max() <= 1e-12


class TestIntegrate:
    def test_unit_volume(self):
        for dim, level in ((1, 3), (2, 2)):
            mesh = build_uniform(dim, level)
            f = interpolate_nodal(mesh, 1, lambda c: np.ones(len(c)))
            assert integrate_gauss(eval_at_gauss(f)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_independent_loop_oracle(self):
        from amrfem.quadrature import gauss_legendre

        mesh = refined_mesh(2, (0, 5))
        rng = np.random.default_rng(8)
        f = NodalField(mesh, 1, rng.standard_normal(enumerate_nodes(mesh, 1).n_dofs))
        gf = eval_at_gauss(f)
        rule = gauss_legendre(2)
        total = 0.0
        for e in range(mesh.n_leaves):
            h = mesh.leaf_sizes_physical[e]
            jac = (0.5 * h) ** 2
            q = 0
            for qy in range(2):
                for qx in range(2):
                    total += rule.weights[qx] * rule.weights[qy] * jac * gf.values[e, q]
                    q += 1
        assert integrate_gauss(gf) == pytest.approx(total, rel=1e-13)

    def test_demo_profile_integral_16_linear_elements(self):
        mesh = build_uniform(1, 4)
        f = interpolate_nodal(
            mesh, 1, lambda c: np.abs(np.cos(2 * np.pi * c[:, 0])) + 10.0
        )
        assert integrate_gauss(eval_at_gauss(f)) == pytest.approx(10.6284, abs=1e-3)

    def test_demo_profile_integral_8_quadratic_elements(self):
        mesh = build_uniform(1, 3)
        f = interpolate_nodal(
            mesh, 2, lambda c: np.abs(np.cos(2 * np.pi * c[:, 0])) + 10.0
        )
        assert integrate_gauss(eval_at_gauss(f)) == pytest.approx(10.6367, abs=1e-3)


class TestAssemble:
    def test_1d_single_element_mass(self):
        mesh = build_uniform(1, 0)  # one element of length 1
        m = assemble_mass(mesh, 1).toarray()
        h = 1.0
        assert m == pytest.approx(h / 6.0 * np.array([[2, 1], [1, 2]]), abs=1e-14)

    def test_row_sums_are_lumped_volumes(self):
        mesh = build_uniform(2, 2)
        m = assemble_mass(mesh, 1)
        assert m.sum() == pytest.approx(1.0, abs=1e-13)
        row_sums = np.asarray(m.sum(axis=1)).ravel()
        # interior node of a uniform mesh owns 4 quarter-cells
        h2 = (1.0 / 4) ** 2
        assert np.isclose(row_sums.max(), h2, atol=1e-13)

    def test_symmetry(self):
        mesh = refined_mesh(2, (0, 3))
        for p in (1, 2):
            m = assemble_mass(mesh, p)
            assert abs(m - m.T).max() <= 1e-12
            k = assemble_stiffness(mesh, p)
            assert abs(k - k.T).max() <= 1e-12

    def test_mass_alone_builds_no_stiffness(self):
        mesh = refined_mesh()
        assemble_mass(mesh, 1)
        assert list(enumerate_nodes(mesh, 1).cache) == [("mass_c",)]

    def test_stiffness_annihilates_constants(self):
        mesh = refined_mesh()
        k = assemble_stiffness(mesh, 1)
        ones = np.ones(k.shape[0])
        assert np.abs(k @ ones).max() <= 1e-13

    def test_traversal_order_invariance(self):
        # same mesh content, reversed leaf order: matrices agree to 1e-13
        mesh = refined_mesh(2, (0, 7))
        from amrfem.mesh import MeshTopology

        rev = MeshTopology(2, mesh.levels[::-1].copy(), mesh.anchors[::-1].copy())
        # reversed leaves are not Morton-sorted, but assembly only relies on
        # the per-leaf data; node numbering is key-canonical in both cases
        m1 = assemble_mass(mesh, 1).toarray()
        m2 = assemble_mass(rev, 1).toarray()
        assert np.abs(m1 - m2).max() <= 1e-13


class TestProjectL2:
    def test_projection_is_identity_on_cg_fields(self):
        mesh = build_uniform(2, 2)
        f = interpolate_nodal(mesh, 1, lambda c: 1.0 + c[:, 0] - 2.0 * c[:, 1])
        back = project_l2(eval_at_gauss(f), tol=1e-14)
        assert np.abs(back.values - f.values).max() <= 1e-11

    def test_projection_identity_with_hanging_nodes(self):
        mesh = refined_mesh(2, (0, 5))
        f = interpolate_nodal(mesh, 1, lambda c: 0.3 + c[:, 1])
        back = project_l2(eval_at_gauss(f), tol=1e-14)
        assert np.abs(back.values - f.values).max() <= 1e-11

    def test_integral_preserved(self):
        mesh = refined_mesh(2, (0, 5, 9))
        rng = np.random.default_rng(5)
        nn = enumerate_nodes(mesh, 1)
        gf = GaussField(mesh, 1, 2, rng.standard_normal((mesh.n_leaves, 4)))
        proj = project_l2(gf, tol=1e-13)
        assert integrate_gauss(eval_at_gauss(proj)) == pytest.approx(
            integrate_gauss(gf), rel=1e-11
        )

    def test_global_conservation_on_random_adapted_meshes(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            mesh = build_uniform(2, 2)
            for _ in range(2):
                refine = np.zeros(mesh.n_leaves, dtype=bool)
                refine[rng.choice(mesh.n_leaves, size=mesh.n_leaves // 4, replace=False)] = True
                mesh, _ = execute_refine(mesh, refine)
            p = 1 + trial % 2
            for _ in range(10):
                gf = GaussField(
                    mesh,
                    p,
                    p + 1,
                    rng.standard_normal((mesh.n_leaves, (p + 1) ** 2)) + 2.0,
                )
                proj = project_l2(gf, tol=1e-12)
                target = integrate_gauss(gf)
                got = integrate_gauss(eval_at_gauss(proj))
                assert abs(got - target) <= 10 * 1e-12 * abs(target)


class TestFieldValidation:
    def test_nodal_field_length_checked(self):
        mesh = build_uniform(2, 2)
        with pytest.raises(ValueError):
            NodalField(mesh, 1, np.zeros(7))

    def test_gauss_field_shape_checked(self):
        mesh = build_uniform(2, 2)
        with pytest.raises(ValueError):
            GaussField(mesh, 1, 2, np.zeros((mesh.n_leaves, 3)))


class TestSolveSpd:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        x = solve_spd(SparseSystem(sp.identity(3, format="csr"), rhs))
        assert x == pytest.approx(list(rhs), abs=1e-14)

    def test_diagonal(self):
        d = np.array([2.0, 5.0, 0.5, 4.0])
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        x = solve_spd(SparseSystem(sp.diags(d).tocsr(), rhs))
        assert x == pytest.approx(list(rhs / d), abs=1e-14)

    def test_random_spd_matches_dense_factorisation(self):
        rng = np.random.default_rng(23)
        b = rng.standard_normal((50, 50))
        a = b.T @ b + np.eye(50)
        rhs = rng.standard_normal(50)
        x = solve_spd(SparseSystem(sp.csr_matrix(a), rhs, tol=1e-13))
        assert np.abs(x - np.linalg.solve(a, rhs)).max() <= 1e-10

    def test_indefinite_detected(self):
        a = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(SolverError):
            solve_spd(SparseSystem(a, np.array([1.0, 1.0])))

    def test_iteration_cap(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((30, 30))
        a = sp.csr_matrix(b.T @ b + np.eye(30))
        with pytest.raises(SolverError):  # the cap, 20 n + 200 = 800 iterations
            solve_spd(SparseSystem(a, rng.standard_normal(30), tol=1e-30))

    @pytest.mark.parametrize("tol", [1e-300, 0.0])
    def test_underflowing_tolerance_reaches_the_cap(self, tol):
        # r @ z underflows to 0 long before the recursive residual reaches
        # tol: PCG restarts from b - A x instead of dividing by it, and the
        # cap reports the true residual, which stays at roundoff (the
        # recursive one read 3e-73)
        rng = np.random.default_rng(1)
        b = rng.standard_normal((30, 30))
        a = sp.csr_matrix(b.T @ b + np.eye(30))
        with pytest.raises(SolverError, match=r"in 800 iterations") as info:
            solve_spd(SparseSystem(a, rng.standard_normal(30), tol=tol))
        residual = float(re.search(r"relative residual (\S+)\)", str(info.value)).group(1))
        assert 1e-17 < residual < 1e-13

    def test_zero_rhs(self):
        a = sp.identity(4, format="csr")
        assert np.all(solve_spd(SparseSystem(a, np.zeros(4))) == 0.0)


def _assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def kernel_test_mesh(dim):
    """A refined mesh: non-uniform in 1D, with hanging nodes in 2D."""
    if dim == 1:
        mesh = build_uniform(1, 3)
        refine = np.zeros(mesh.n_leaves, dtype=bool)
        refine[[1, 2, 6]] = True
        mesh, _ = execute_refine(mesh, refine)
        return mesh
    return refined_mesh(2, (0, 5, 9))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_square_sums_match_the_axis_reduction(dim, p):
    # energy and the gradient indicator sum squared gradient components one
    # at a time; that must equal the reduction over the last axis bit for bit
    mesh = kernel_test_mesh(dim)
    nn = enumerate_nodes(mesh, p)
    assert dim == 1 or nn.n_nodes > nn.n_dofs
    phi = NodalField(mesh, p, np.random.default_rng(5 + dim + p).uniform(-1.0, 1.0, nn.n_dofs))
    grads = eval_grad_at_gauss(phi)
    sq = np.sum(grads * grads, axis=-1)
    assert np.array_equal(_square_sum(grads), sq)

    problem = CahnHilliardProblem()
    gf = eval_at_gauss(phi)
    density = problem.free_energy.f(gf.values) + 0.5 * problem.eps2 * sq
    assert models.energy(phi, problem) == integrate_gauss(replace(gf, values=density))
    w, jac = _element_rule(mesh, p, p + 1)
    assert np.array_equal(element_gradient_norms(phi), np.sqrt(np.maximum((sq @ w) * jac, 0.0)))


def test_integrals_are_independent_of_blas_threads():
    # OpenBLAS splits dot products above about 10,000 entries across
    # threads; the mass and energy columns sum over 16,384 leaves
    script = textwrap.dedent(
        """
        import numpy as np
        from amrfem import models
        from amrfem.fem import NodalField, eval_at_gauss, integrate_gauss
        from amrfem.mesh import build_uniform, enumerate_nodes
        mesh = build_uniform(2, 7)
        values = np.random.default_rng(7).uniform(-1.0, 1.0, enumerate_nodes(mesh, 1).n_dofs)
        phi = NodalField(mesh, 1, values)
        print(integrate_gauss(eval_at_gauss(phi)).hex())
        print(models.energy(phi, models.CahnHilliardProblem()).hex())
        """
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 2
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("energy", ["polynomial", "flory_huggins"])
@pytest.mark.parametrize("n_q_extra", [None, 2])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_assembly_kernels_match_per_module_reference(dim, p, n_q_extra, energy):
    # the fem kernels reproduce the hand-written per-module assembly bit for
    # bit: mass, stiffness, load vector, f'(phi) vector and f''(phi) matrix;
    # the operators use the p + 1 rule, and the load vector is also checked
    # for Gauss data on p + n_q_extra points
    mesh = kernel_test_mesh(dim)
    nn = enumerate_nodes(mesh, p)
    assert dim == 1 or nn.n_nodes > nn.n_dofs  # 2D cases carry hanging nodes
    for kind, assemble in (("mass", assemble_mass), ("stiff", assemble_stiffness)):
        _assert_same_csr(assemble(mesh, p), ref.assembled_reference(mesh, p, kind))

    rng = np.random.default_rng(31 + 7 * dim + p)
    nq = p + 1 if n_q_extra is None else p + n_q_extra
    gf = GaussField(mesh, p, nq, rng.standard_normal((mesh.n_leaves, nq**dim)))
    assert np.array_equal(_gauss_rhs(gf), ref._gauss_rhs(gf))

    if energy == "polynomial":
        fe, phi = PolynomialFreeEnergy(), rng.uniform(-1.0, 1.0, nn.n_dofs)
    else:
        fe, phi = FloryHugginsFreeEnergy(), rng.uniform(0.05, 0.95, nn.n_dofs)
    problem = CahnHilliardProblem(free_energy=fe)
    mu = rng.standard_normal(nn.n_dofs)
    dt = 1e-3
    residual, jacobian = ch_residual_and_jacobian(
        NodalField(mesh, p, phi), NodalField(mesh, p, mu), problem, dt
    )
    u = np.concatenate([phi + 0.01 * rng.standard_normal(nn.n_dofs), mu])
    mass, stiff = assemble_mass(mesh, p), assemble_stiffness(mesh, p)
    phi_v, mu_v = u[: nn.n_dofs], u[nn.n_dofs :]
    r1 = (mass @ phi_v - mass @ phi) / dt + problem.mobility * (stiff @ mu_v)
    r2 = mass @ mu_v - ref._nonlinear_rhs(mesh, p, phi_v, fe) - problem.eps2 * (stiff @ phi_v)
    eps_stiff = (problem.eps2 * stiff).tocsr()
    assert np.array_equal(residual(u), np.concatenate([r1, r2]))
    jf = ref._nonlinear_jacobian(mesh, p, phi_v, fe)
    want = sp.bmat(
        [[(mass / dt).tocsr(), (problem.mobility * stiff).tocsr()], [-(jf + eps_stiff), mass]],
        format="csr",
    )
    _assert_same_csr(jacobian(u), want)


@pytest.mark.parametrize("n_q_extra", [None, 2])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_gauss_mass_table_matches_einsum(dim, p, n_q_extra):
    # the basis-product matmul sums over the Gauss points in another order
    # than the einsum it replaced, so the two agree to roundoff, not bitwise
    mesh = kernel_test_mesh(dim)
    n_q = p + 1 if n_q_extra is None else p + n_q_extra
    rng = np.random.default_rng(43 + 7 * dim + p)
    gf = GaussField(mesh, p, n_q, rng.standard_normal((mesh.n_leaves, n_q**dim)))
    want = _scatter_matrix(enumerate_nodes(mesh, p), ref.gauss_mass_einsum(gf))
    assert abs(_gauss_mass(gf) - want).max() <= 1e-14 * abs(want).max()


def _coarsened_level7():
    """A level-7 mesh coarsened twice outside a disc, as the MMS runs coarsen
    where the solution is smooth; hanging nodes ring the disc."""
    mesh = build_uniform(2, 7)
    for _ in range(2):
        half = (1 << (MAX_LEVEL - mesh.levels))[:, None] // 2
        centres = np.ldexp((mesh.anchors + half).astype(float), -MAX_LEVEL)
        mesh, _ = execute_coarsen(mesh, np.hypot(*(centres - 0.5).T) > 0.3)
    return mesh


def _interface_l4_l8():
    """Levels 4 to 8 around a circle, as the adaptation benchmark's set-up
    refines a uniform level-4 mesh toward an interface; ~960 hanging nodes."""
    mesh = build_uniform(2, 4)
    crit = InterfaceCriterion(-0.9, 0.9, 4, 8)
    for _ in range(4):
        marker = interpolate_nodal(
            mesh, 1, lambda c: np.tanh((np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5) - 0.25) / 2**-7)
        )
        mesh, _, _ = adapt_cycle({"marker": marker}, {}, "marker", crit)
    return mesh


def _structure(m):
    """m's sparsity pattern with unit values: products of it never cancel."""
    return sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), shape=m.shape)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("case", ["uniform-l6", "coarsened-l7", "interface-l4-l8"])
def test_scatter_matrix_matches_coo_reference_at_benchmark_scale(case, p):
    # the summation map, the skipped T'AT on conforming meshes and the CSR
    # product with the cached T' give the element-order sum and both scipy
    # products bit for bit at benchmark sizes; for Q1 that sum is SciPy's
    # own COO sum (rows of at most 16 terms sort stably), for Q2 the
    # np.add.at oracle, since SciPy's sort orders longer rows' ties otherwise
    mesh = {
        "uniform-l6": lambda: build_uniform(2, 6),
        "coarsened-l7": _coarsened_level7,
        "interface-l4-l8": _interface_l4_l8,
    }[case]()
    nn = enumerate_nodes(mesh, p)
    assert (nn.n_nodes > nn.n_dofs) == (case != "uniform-l6")
    rng = np.random.default_rng(5 + p)
    shape = (mesh.n_leaves, (p + 1) ** 2, (p + 1) ** 2)
    # small integers cancel exactly, in sums and against T's dyadic weights;
    # the normals make a wrong order of summation visible in the last bit
    ints = rng.choice([-8.0, -6.0, -3.0, -1.0, 1.0, 3.0, 6.0, 8.0], shape)
    elem_mats = np.where(rng.random(shape) < 0.3, rng.standard_normal(shape), ints)
    element_sum = ref.element_sum_reference if p == 1 else ref.element_order_sum
    want = ref.scatter_matrix_reference(nn, elem_mats, element_sum)
    _assert_same_csr(_scatter_matrix(nn, elem_mats), want)

    # scipy prunes exact zeros of A, and cancellations of its own in AT and T'AT
    a = ref.element_sum_reference(nn, elem_mats)
    assert np.count_nonzero(a.data == 0) > 0
    if case != "uniform-l6":
        t = nn.constraint_matrix
        a.eliminate_zeros()
        at = a @ t
        assert (_structure(a) @ abs(t)).nnz > at.nnz
        assert (abs(t).T @ _structure(at)).nnz > want.nnz


@pytest.mark.parametrize("p", [1, 2])
def test_summation_map_holds_one_int32_per_element_entry(p):
    # the map is one int32 slot per (leaf, a, b) entry, next to A's own
    # pattern: 1.00 MiB on a uniform level-7 Q1 mesh
    mesh = build_uniform(2, 7) if p == 1 else refined_mesh(2, (0, 5))
    nn = enumerate_nodes(mesh, p)
    slot, indptr, indices = nn.summation_map
    n_entries = mesh.n_leaves * (p + 1) ** 4
    assert slot.dtype == np.int32 and slot.shape == (n_entries,)
    assert indptr.dtype == indices.dtype == np.int32 and indptr[-1] == len(indices)
    assert np.array_equal(np.unique(slot), np.arange(len(indices)))  # each entry of A is a sum
    if p == 1:
        assert slot.nbytes == 2**20


def test_one_summation_map_per_numbering(monkeypatch):
    # mass, stiffness and every f''-weighted mass on a numbering share one sort
    builds = []
    original = NodeNumbering.__dict__["summation_map"]

    def counted(nn):
        builds.append(nn.p)
        return original.func(nn)

    prop = type(original)(counted)  # the same caching descriptor, counting its builds
    prop.__set_name__(NodeNumbering, "summation_map")
    monkeypatch.setattr(NodeNumbering, "summation_map", prop)
    mesh = refined_mesh(2, (0, 5))
    for p in (1, 2):
        assemble_mass(mesh, p)
        assemble_stiffness(mesh, p)
        gf = eval_at_gauss(interpolate_nodal(mesh, p, lambda c: c[:, 0] * c[:, 1]))
        _gauss_mass(gf)
        _gauss_mass(gf)
    assert builds == [1, 2]
