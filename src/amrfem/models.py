"""Time-dependent drivers: manufactured-solution diffusion and Cahn-Hilliard.

Both use continuous Galerkin in space with homogeneous Neumann boundaries.
Diffusion is integrated with Crank-Nicolson steps;
Cahn-Hilliard uses fully implicit backward Euler on the split (phi, mu)
system solved by Newton.

``models.spla`` is the one seam for the sparse direct solver
(``scipy.sparse.linalg``): it loads on first access, which is the first
Cahn-Hilliard factorisation unless something reads it earlier, so the
diffusion path never loads SuperLU. Rebinding ``models.spla`` swaps the
solver for every later factorisation, before or after that first load.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.sparse as sp

from .config import _check_positive
from .errors import NewtonError
from .fem import (
    NodalField,
    SparseSystem,
    _gauss_mass,
    _gauss_rhs,
    assemble_mass,
    assemble_stiffness,
    eval_at_gauss,
    grad_sq_at_gauss,
    integrate_gauss,
    solve_spd,
)
from .mesh import MeshTopology, enumerate_nodes

__all__ = [
    "DiffusionProblem",
    "PolynomialFreeEnergy",
    "FloryHugginsFreeEnergy",
    "make_free_energy",
    "CahnHilliardProblem",
    "Diagnostics",
    "mms_exact",
    "diffusion_step",
    "ch_step",
    "ch_residual_and_jacobian",
    "chemical_potential_init",
    "energy",
    "random_mixture_ic",
]


def __getattr__(name):
    # PEP 562: runs only while ``spla`` is unbound, then the import binds it.
    if name == "spla":
        global spla
        import scipy.sparse.linalg as spla

        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class DiffusionProblem:
    """Diffusion with the separable cosine manufactured solution."""

    amplitude: float = 0.1
    kappa: float = 0.03
    dt: float = 0.01
    mass_tol: float = 1e-12

    def __post_init__(self):
        _check_positive(kappa=self.kappa)


def mms_exact(x, y, t, problem: DiffusionProblem):
    """1 + A cos(2 pi x) cos(2 pi y) exp(-8 pi^2 kappa t)."""
    decay = np.exp(-8.0 * np.pi**2 * problem.kappa * t)
    return 1.0 + problem.amplitude * np.cos(2 * np.pi * np.asarray(x)) * np.cos(
        2 * np.pi * np.asarray(y)
    ) * decay


def diffusion_step(field: NodalField, problem: DiffusionProblem) -> NodalField:
    """One Crank-Nicolson step of the diffusion equation on the field's mesh.

    Solves (M/dt + kappa/2 K) u = (M/dt - kappa/2 K) u_old with
    the SPD conjugate-gradient solver; on a static mesh the v=1 test function
    makes the step conservative to solver tolerance.
    """
    mesh, p = field.mesh, field.p
    nn = enumerate_nodes(mesh, p)
    key = ("diffusion_ops", problem.dt, problem.kappa)
    ops = nn.cache.get(key)
    if ops is None:
        mass = assemble_mass(mesh, p)
        stiff = assemble_stiffness(mesh, p)
        lhs = (mass / problem.dt + (0.5 * problem.kappa) * stiff).tocsr()
        rhs_op = (mass / problem.dt - (0.5 * problem.kappa) * stiff).tocsr()
        ops = (lhs, rhs_op)
        nn.cache[key] = ops
    lhs, rhs_op = ops
    sol = solve_spd(SparseSystem(lhs, rhs_op @ field.values, tol=problem.mass_tol), x0=field.values)
    return NodalField(mesh, p, sol)


@dataclass(frozen=True)
class PolynomialFreeEnergy:
    """Double-well f = (1 - phi^2)^2 / 4 with pure phases at +-1."""

    def f(self, phi):
        return 0.25 * (1.0 - phi * phi) ** 2

    def df(self, phi):
        return phi * phi * phi - phi

    def d2f(self, phi):
        return 3.0 * phi * phi - 1.0


FH_CLAMP = 1e-6


@dataclass(frozen=True)
class FloryHugginsFreeEnergy:
    """Logarithmic mixture energy with pure phases at 0 and 1.

    Arguments of the logarithms and reciprocals are clamped to the fixed
    interval [``FH_CLAMP``, 1 - ``FH_CLAMP``] (1e-6), so evaluations stay
    finite for out-of-range states; derivatives use the same clamped
    argument for Newton consistency.
    """

    a: float = 1.0
    chi: float = 3.0
    beta: float = 0.01

    def _clamped(self, phi):
        return np.clip(phi, FH_CLAMP, 1.0 - FH_CLAMP)

    def f(self, phi):
        phi = np.asarray(phi, dtype=float)
        c = self._clamped(phi)
        return (
            self.a * (phi * np.log(c) + (1.0 - phi) * np.log(1.0 - c))
            + self.chi * phi * (1.0 - phi)
            + self.beta * (1.0 / c + 1.0 / (1.0 - c))
        )

    def df(self, phi):
        phi = np.asarray(phi, dtype=float)
        c = self._clamped(phi)
        return (
            self.a * (np.log(c) - np.log(1.0 - c))
            + self.chi * (1.0 - 2.0 * phi)
            + self.beta * (1.0 / (1.0 - c) ** 2 - 1.0 / c**2)
        )

    def d2f(self, phi):
        phi = np.asarray(phi, dtype=float)
        c = self._clamped(phi)
        return (
            self.a * (1.0 / c + 1.0 / (1.0 - c))
            - 2.0 * self.chi
            + 2.0 * self.beta * (1.0 / c**3 + 1.0 / (1.0 - c) ** 3)
        )


def make_free_energy(variant: str, **params):
    """The named free energy; only Flory-Huggins reads ``params`` (a, chi, beta)."""
    if variant == "polynomial":
        return PolynomialFreeEnergy()
    if variant == "flory_huggins":
        return FloryHugginsFreeEnergy(**params)
    raise ValueError(f"unknown free energy variant {variant!r}")


@dataclass
class CahnHilliardProblem:
    free_energy: object = dc_field(default_factory=PolynomialFreeEnergy)
    eps2: float = 1e-3
    mobility: float = 1.0
    dt: float = 5e-4
    mass_tol: float = 1e-12

    def __post_init__(self):
        _check_positive(eps2=self.eps2, mobility=self.mobility)


def _df_load(phi: NodalField, fe) -> np.ndarray:
    """Constrained vector of integral f'(phi) N_a using the element rule."""
    gf = eval_at_gauss(phi)
    return _gauss_rhs(replace(gf, values=fe.df(gf.values)))


def ch_residual_and_jacobian(phi: NodalField, mu: NodalField, problem: CahnHilliardProblem, dt: float):
    """Residual/Jacobian closures of the backward-Euler split system.

    The unknown is the stacked vector [phi; mu]. Exposed so the Jacobian can
    be checked against finite differences of the residual.
    """
    mesh, p = phi.mesh, phi.p
    fe = problem.free_energy
    mass = assemble_mass(mesh, p)
    stiff = assemble_stiffness(mesh, p)
    n = len(phi.values)
    m_phi_old = mass @ phi.values

    def residual(u):
        phi_v, mu_v = u[:n], u[n:]
        r1 = (mass @ phi_v - m_phi_old) / dt + problem.mobility * (stiff @ mu_v)
        r2 = mass @ mu_v - _df_load(NodalField(mesh, p, phi_v), fe) - problem.eps2 * (stiff @ phi_v)
        return np.concatenate([r1, r2])

    def jacobian(u):
        gf = eval_at_gauss(NodalField(mesh, p, u[:n]))
        jf = _gauss_mass(replace(gf, values=fe.d2f(gf.values)))  # integral f''(phi) N_a N_b
        return sp.bmat(
            [[mass / dt, problem.mobility * stiff], [-(jf + problem.eps2 * stiff), mass]],
            format="csr",
        )

    return residual, jacobian


def _norm(v: np.ndarray) -> float:
    """Euclidean norm by numpy's pairwise sum.

    ``np.linalg.norm`` calls the BLAS dot, which splits long vectors across
    threads, so its last bits depend on the thread count; the Newton
    decisions read these norms and must not.
    """
    return float(np.sqrt(np.add.reduce(v * v)))


def _anderson(history: list) -> np.ndarray:
    """Type-II Anderson mixing of the last (update, image) pairs, depth <= 2.

    With updates f_i = g_i - u_i and the differences dF, dG of successive
    updates and images, gamma solves the Gram system (dF' dF) gamma = dF' f_k
    and the next iterate is g_k - dG gamma, an affine combination of the
    chord images (H. F. Walker and P. Ni, SIAM J. Numer. Anal. 2011). The
    plain image g_k is returned when the system is singular (two differences
    parallel to roundoff) or not finite.
    """
    f, g = history[-1]
    dfs = [new[0] - old[0] for old, new in zip(history, history[1:])]
    dgs = [new[1] - old[1] for old, new in zip(history, history[1:])]
    dot = lambda a, b: float(np.add.reduce(a * b))
    gamma = [np.nan]
    if len(dfs) == 1:
        a11 = dot(dfs[0], dfs[0])
        if a11 > 0.0:
            gamma = [dot(dfs[0], f) / a11]
    elif len(dfs) == 2:
        a11, a12, a22 = dot(dfs[0], dfs[0]), dot(dfs[0], dfs[1]), dot(dfs[1], dfs[1])
        b1, b2 = dot(dfs[0], f), dot(dfs[1], f)
        det = a11 * a22 - a12 * a12
        if det > 1e-14 * a11 * a22:
            gamma = [(a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det]
    if not np.all(np.isfinite(gamma)):
        return g
    for c, dg in zip(gamma, dgs):
        g = g - c * dg
    return g


NEWTON_RTOL = 1e-10  # a step converges at residual norm <= NEWTON_RTOL * max(1, initial norm)
NEWTON_ITER_CAP = 30  # iterations before a step raises NewtonError


def _ch_substep(
    phi: NodalField, mu: NodalField, problem: CahnHilliardProblem, dt: float, start=None
):
    """One backward-Euler step of the split system at timestep dt.

    Newton with a frozen factorisation, from ``start`` ([phi; mu], default
    the old state): the Jacobian is factorised at the start of the step and
    reused across iterations (the state moves little per step). Each
    iteration forms the chord image g_k = u_k - J_LU^-1 r(u_k), and type-II
    Anderson mixing of depth 2 (``_anderson``) combines it with the last two
    images, which turns the linear convergence of the chord iteration into
    nearly Newton-like convergence. The history is cleared at every
    factorisation, and the Jacobian is refactorised at the current iterate
    when an iteration cuts the residual by less than a factor 4. The step
    converges once the residual norm is at most ``NEWTON_RTOL`` (1e-10) times
    max(1, initial norm) and raises NewtonError after ``NEWTON_ITER_CAP``
    (30) iterations that do not get there.

    Mass is exact by construction: each chord image g gets its phi part
    shifted by the constant c = (w'phi_old - w'g_phi) / sum(w), where
    w = M 1 holds the column sums of the constrained mass matrix. Because
    T 1 = 1, the dof vector 1 is the constant function even with hanging
    nodes, so w'phi is the integral of phi and the shift is the
    M-orthogonal correction onto the old mass (P. E. Farrell and
    J. R. Maddison, CMAME 2011). An iterate is an affine combination of
    images, so it keeps the mass too, whatever the start and whatever the
    accuracy of the factor. The residual norms and Gram entries are numpy
    pairwise sums (``_norm``), so the iteration does not depend on the BLAS
    thread count.

    The factor is only a preconditioner, so it is single precision: the
    permuted Jacobian is cast to float32 for SuperLU, each right-hand side
    is cast to float32 and each update promoted back, while the residual,
    the mixing, the norms and the iterate stay in float64. The chord
    iteration converges to the float64 residual with any factor that
    contracts, and a float32 factor's own error (a relative solve residual
    of about 2.5e-4 on the level-6 desk Jacobian) is far below the 1/4
    contraction that the refactorisation threshold accepts from a frozen
    Jacobian, so the iteration counts barely move (A. Buttari, J. Dongarra,
    J. Kurzak, P. Luszczek and S. Tomov, ACM TOMS 2008).

    SuperLU factorises the Jacobian symmetrically permuted into the mesh's
    nested-dissection order of the dofs (``NodeNumbering.dissection_order``),
    with phi_i and mu_i adjacent, and keeps that order (``NATURAL``): the
    quadtree's midlines are the separators, so SuperLU computes no ordering
    of its own and the fill is below that of its minimum-degree order. Each
    solve is scattered back to the [phi; mu] layout. The LU takes no row
    pivots (``diag_pivot_thresh=0``): threshold pivoting swaps rows away
    from the symmetric order and more than doubles the fill. Every update
    is checked against the true residual, so a poor factor can cost
    iterations or raise NewtonError but cannot give a wrong answer. The
    factor exists with bounded growth when, with
    D = diag(I, (mobility/eps2) I), the symmetric part of D J,
    [[M/dt, -(mobility/2 eps2) J_f], [-(mobility/2 eps2) J_f, (mobility/eps2) M]]
    (the K cross terms cancel), is SPD, which holds when
    mobility * dt * max|f''|^2 < 4 eps2: then every symmetric permutation of
    J has an LU without pivoting. The polynomial double well meets this at
    the desk dt, eps2 and mobility. Flory-Huggins near its pure phases does
    not, since f'' grows there; on its desk run the pivot-free factor (then
    in float64) still gave the same meshes and Newton iterations as partial
    pivoting. A zero pivot raises NewtonError with the mesh size and dt.

    The factor is cached on the numbering under ``("ch_lu", dt, mobility,
    eps2)`` for the next step. Before a refactorisation builds its
    Jacobian, every cached factor of the numbering is released
    (``NodeNumbering.release_operators("ch_lu")``), so one L+U is alive at a
    time and a half-step retry's factor replaces the full step's.
    """
    mesh, p = phi.mesh, phi.p
    residual, jacobian = ch_residual_and_jacobian(phi, mu, problem, dt)
    n = len(phi.values)
    nn = enumerate_nodes(mesh, p)
    perm = np.empty(2 * n, dtype=np.int64)  # factor row and column i is unknown perm[i]
    perm[0::2] = nn.dissection_order
    perm[1::2] = perm[0::2] + n
    slot = np.empty_like(perm)
    slot[perm] = np.arange(2 * n)
    lu_key = ("ch_lu", dt, problem.mobility, problem.eps2)
    w = assemble_mass(mesh, p) @ np.ones(n)
    w_sum = np.add.reduce(w)
    mass_old = np.add.reduce(w * phi.values)
    u = np.concatenate([phi.values, mu.values]) if start is None else np.array(start, dtype=float)
    r = residual(u)
    trace = [_norm(r)]
    r0 = max(1.0, trace[0])
    lu = nn.cache.get(lu_key)
    refactor = lu is None
    history = []  # (update, image) of the iterations since the last factorisation
    while True:
        if refactor:
            lu = jac = None  # free the stale factor before its successor's Jacobian exists
            nn.release_operators("ch_lu")
            # Take the rows in factor order and relabel the columns: the
            # conversion to CSC then yields sorted columns without a sort.
            jac = jacobian(u)[perm]
            jac = sp.csr_matrix(
                (jac.data.astype(np.float32), slot[jac.indices], jac.indptr), shape=jac.shape
            ).tocsc()
            try:
                # an attribute read, not a bare name, so the first one loads SuperLU
                lu = sys.modules[__name__].spla.splu(
                    jac,
                    permc_spec="NATURAL",
                    diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:
                raise NewtonError(
                    f"Jacobian factorisation failed ({exc}) on {mesh.n_leaves} leaves, "
                    f"{n} dofs, dt={dt:g}",
                    trace,
                ) from exc
            nn.cache[lu_key] = lu
            history.clear()
        if trace[-1] <= NEWTON_RTOL * r0:
            return NodalField(mesh, p, u[:n]), NodalField(mesh, p, u[n:]), trace
        if len(trace) > NEWTON_ITER_CAP:
            raise NewtonError(
                f"no convergence in {NEWTON_ITER_CAP} iterations "
                f"(residuals {trace[0]:.3e} -> {trace[-1]:.3e})",
                trace,
            )
        update = -np.take(lu.solve(np.take(r, perm).astype(np.float32)), slot).astype(float)
        update[:n] += (mass_old - np.add.reduce(w * (u[:n] + update[:n]))) / w_sum
        history = history[-2:] + [(update, u + update)]
        u = _anderson(history)
        r = residual(u)
        trace.append(_norm(r))
        if not np.isfinite(trace[-1]):
            raise NewtonError("residual is not finite", trace)
        refactor = trace[-1] > 0.25 * trace[-2]  # frozen Jacobian no longer contracting


def ch_step(phi: NodalField, mu: NodalField, problem: CahnHilliardProblem, start=None):
    """Advance (phi, mu) by one backward-Euler step of length problem.dt.

    Newton starts from ``start`` ([phi; mu] on the same mesh), by default
    the old state; ``run_spinodal`` passes the polynomial predictor of its
    last increments, u_n + 2 d_0 - d_1 from the third step on. The start
    steers Newton only: every iterate keeps the old state's mass. If Newton
    fails, the step is retried once as two half steps from the old state,
    not from ``start``; a second failure propagates NewtonError with
    the residual trace. The count returned is every Newton iteration taken,
    those of a failed full step included.
    """
    try:
        phi2, mu2, trace = _ch_substep(phi, mu, problem, problem.dt, start)
        return phi2, mu2, len(trace) - 1
    except NewtonError as exc:
        failed = len(exc.trace) - 1
        half = problem.dt / 2.0
        phi1, mu1, t1 = _ch_substep(phi, mu, problem, half)
        phi2, mu2, t2 = _ch_substep(phi1, mu1, problem, half)
        return phi2, mu2, failed + len(t1) + len(t2) - 2


def chemical_potential_init(phi: NodalField, problem: CahnHilliardProblem) -> NodalField:
    """Consistent initial mu: solve M mu = F(phi) + eps2 K phi."""
    mesh, p = phi.mesh, phi.p
    mass = assemble_mass(mesh, p)
    stiff = assemble_stiffness(mesh, p)
    rhs = _df_load(phi, problem.free_energy) + problem.eps2 * (stiff @ phi.values)
    system = SparseSystem(mass, rhs, tol=problem.mass_tol)
    return NodalField(mesh, p, solve_spd(system))


def energy(phi: NodalField, problem) -> float:
    """Ginzburg-Landau energy: integral of f(phi) + eps2/2 |grad phi|^2."""
    fe = problem.free_energy
    gf = eval_at_gauss(phi)
    density = fe.f(gf.values) + 0.5 * problem.eps2 * grad_sq_at_gauss(phi)
    return integrate_gauss(replace(gf, values=density))


@dataclass
class Diagnostics:
    """Per-timestep bookkeeping written to CSV.

    Columns: time, mass, mass_drift, energy, delta_E_coarsen, num_elements,
    num_dofs. ``delta_E_coarsen`` is zero on steps without coarsening.
    """

    times: list = dc_field(default_factory=list)
    masses: list = dc_field(default_factory=list)
    energies: list = dc_field(default_factory=list)
    delta_e: list = dc_field(default_factory=list)
    n_elements: list = dc_field(default_factory=list)
    n_dofs: list = dc_field(default_factory=list)

    def add(self, t, mass, energy_value, delta_e_value, n_elements, n_dofs):
        if self.times and t <= self.times[-1]:
            raise ValueError("diagnostic rows must be strictly increasing in t")
        self.times.append(float(t))
        self.masses.append(float(mass))
        self.energies.append(float(energy_value))
        self.delta_e.append(float(delta_e_value))
        self.n_elements.append(int(n_elements))
        self.n_dofs.append(int(n_dofs))

    def mass_drift(self) -> np.ndarray:
        if not self.masses:
            raise ValueError("empty diagnostics series")
        m = np.asarray(self.masses)
        return m - m[0]

    def write_csv(self, path):
        drift = self.mass_drift() if self.masses else []
        with open(path, "w") as fh:
            fh.write("time,mass,mass_drift,energy,delta_E_coarsen,num_elements,num_dofs\n")
            for i in range(len(self.times)):
                fh.write(
                    f"{self.times[i]:.17g},{self.masses[i]:.17g},{drift[i]:.17g},"
                    f"{self.energies[i]:.17g},{self.delta_e[i]:.17g},"
                    f"{self.n_elements[i]},{self.n_dofs[i]}\n"
                )


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function of each state; uint64 arrays wrap modulo 2^64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def random_mixture_ic(
    mesh: MeshTopology, p: int, phi0: float, amplitude: float, seed: int
) -> NodalField:
    """Seeded uniform perturbation in [phi0 - a, phi0 + a] per node.

    The draw is a counter-style hash of the node's integer lattice key and
    the seed, so a node at the same physical location receives the same
    value on any mesh.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    nn = enumerate_nodes(mesh, p)
    keys = nn.node_keys[nn.dof_of_node >= 0].astype(np.uint64)
    mixed = _splitmix64(keys ^ _splitmix64(np.full_like(keys, seed, dtype=np.uint64)))
    uniform = (mixed >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return NodalField(mesh, p, phi0 + amplitude * (2.0 * uniform - 1.0))
