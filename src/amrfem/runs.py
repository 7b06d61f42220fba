"""End-to-end experiment drivers and their file outputs."""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapt import InterfaceCriterion, MmsCriterion, adapt_cycle
from .config import ExperimentConfig
from .errors import NewtonError, SolverError
from .fem import (
    NodalField,
    eval_at_gauss,
    gauss_point_coords,
    integrate_gauss,
    interpolate_nodal,
)
from .mesh import build_uniform, enumerate_nodes, execute_coarsen
from .models import (
    CahnHilliardProblem,
    Diagnostics,
    DiffusionProblem,
    chemical_potential_init,
    diffusion_step,
    ch_step,
    energy,
    make_free_energy,
    mms_exact,
    random_mixture_ic,
)
from .transfer import (
    TransferMode,
    transfer_coarsen_conservative,
    transfer_coarsen_injection,
)
from .vtkio import write_vtk

__all__ = [
    "DEMO_FUNCTION",
    "run_demo1d",
    "run_mms",
    "run_spinodal",
    "emit_outputs",
    "convergence_slope",
    "MmsResult",
    "SpinodalResult",
]


def DEMO_FUNCTION(x):
    """The 1D showcase profile |cos(2 pi x)| + 10."""
    return np.abs(np.cos(2.0 * np.pi * np.asarray(x))) + 10.0


@dataclass
class Timers:
    pde_solve: float = 0.0
    transfer: float = 0.0
    total: float = 0.0

    def as_summary(self) -> dict:
        return {
            "wall_total_s": f"{self.total:.3f}",
            "wall_pde_solve_s": f"{self.pde_solve:.3f}",
            "wall_transfer_s": f"{self.transfer:.3f}",
        }


def _field_mass(f: NodalField) -> float:
    return integrate_gauss(eval_at_gauss(f))


def run_demo1d(degree: int, mass_tol: float = 1e-13) -> dict:
    """Reproduce the 1D coarsening showcase.

    Builds the fine mesh (16 linear or 8 quadratic elements), interpolates
    |cos(2 pi x)| + 10 nodally, coarsens uniformly one level with both
    transfer modes, and reports the three integrals.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    level = 4 if degree == 1 else 3
    mesh = build_uniform(1, level)
    fine = interpolate_nodal(mesh, degree, lambda c: DEMO_FUNCTION(c[:, 0]))
    original = _field_mass(fine)

    coarse_mesh, record = execute_coarsen(mesh, np.ones(mesh.n_leaves, dtype=bool))
    assert coarse_mesh.n_leaves == mesh.n_leaves // 2

    injected = transfer_coarsen_injection(fine, record)
    conservative = transfer_coarsen_conservative(fine, record, tol=mass_tol)
    return {
        "degree": degree,
        "original": original,
        "injection": _field_mass(injected),
        "conservative": _field_mass(conservative),
        "n_fine_elements": mesh.n_leaves,
        "n_coarse_elements": coarse_mesh.n_leaves,
    }


@dataclass
class MmsResult:
    level: int
    degree: int
    mode: str
    l2_error: float
    mass_drift_final: float
    diagnostics: Diagnostics
    timers: Timers
    n_coarsen_events: int

    def summary_dict(self) -> dict:
        out = {
            "experiment": "mms",
            "level": str(self.level),
            "degree": str(self.degree),
            "mode": self.mode,
            "l2_error": f"{self.l2_error:.17g}",
            "mass_drift_final": f"{self.mass_drift_final:.17g}",
            "coarsen_events": str(self.n_coarsen_events),
            "final_elements": str(self.diagnostics.n_elements[-1]),
            "final_dofs": str(self.diagnostics.n_dofs[-1]),
        }
        out.update(self.timers.as_summary())
        return out


def _l2_error_vs_exact(field: NodalField, problem: DiffusionProblem, t: float) -> float:
    """Gauss-quadrature L2 error against the manufactured solution.

    Uses a rule two points above the element order so the error functional
    is resolved independently of the solution's own quadrature.
    """
    n_q = field.p + 3
    gf = eval_at_gauss(field, n_q)
    pts = gauss_point_coords(field.mesh, n_q)
    exact = mms_exact(pts[:, :, 0], pts[:, :, 1], t, problem)
    return float(np.sqrt(integrate_gauss(replace(gf, values=(gf.values - exact) ** 2))))


def run_mms(config: ExperimentConfig, mode: str | None = None) -> MmsResult:
    """Manufactured-solution diffusion run with per-step coarsening.

    The mesh starts uniform at ``config.level``; each step advances the
    solution and then runs the two-level coarsening criterion, so octants
    live at level l or l-1 throughout. ``mode`` (default ``config.mode``)
    names one TransferMode; "both" is not one.
    """
    mode = mode or config.mode
    tmode = TransferMode(mode)
    p = config.degree
    problem = DiffusionProblem(
        amplitude=config.mms_amplitude,
        kappa=config.kappa,
        dt=config.dt,
        t_final=config.t_final,
        theta=config.theta,
        mass_tol=config.mass_tol,
    )
    timers = Timers()
    t_start = time.perf_counter()

    mesh = build_uniform(2, config.level)
    phi = interpolate_nodal(
        mesh, p, lambda c: mms_exact(c[:, 0], c[:, 1], 0.0, problem)
    )
    crit = MmsCriterion(tau=config.tau, fine_level=config.level, fraction=config.fraction)
    diag = Diagnostics()
    nn = enumerate_nodes(mesh, p)
    diag.add(0.0, _field_mass(phi), 0.0, 0.0, mesh.n_leaves, nn.n_dofs)

    n_steps = int(round(problem.t_final / problem.dt))
    events = 0
    t = 0.0
    for step in range(1, n_steps + 1):
        t = step * problem.dt
        t0 = time.perf_counter()
        phi = diffusion_step(phi, problem)
        timers.pde_solve += time.perf_counter() - t0
        if step % config.adapt_every == 0:
            t0 = time.perf_counter()
            mesh, fields, stats = adapt_cycle(
                {"phi": phi},
                {"phi": tmode},
                "phi",
                crit,
                project_tol=config.mass_tol,
            )
            phi = fields["phi"]
            timers.transfer += time.perf_counter() - t0
            if stats.n_merged:
                events += 1
        nn = enumerate_nodes(mesh, p)
        diag.add(t, _field_mass(phi), 0.0, 0.0, mesh.n_leaves, nn.n_dofs)

    err = _l2_error_vs_exact(phi, problem, t)
    timers.total = time.perf_counter() - t_start
    drift = diag.mass_drift()
    return MmsResult(
        level=config.level,
        degree=p,
        mode=mode,
        l2_error=err,
        mass_drift_final=float(drift[-1]),
        diagnostics=diag,
        timers=timers,
        n_coarsen_events=events,
    )


@dataclass
class SpinodalResult:
    mode: str
    diagnostics: Diagnostics
    max_abs_drift: float
    delta_e_events: list
    timers: Timers
    completed: bool
    failure: str = ""
    newton_iterations: int = 0

    def summary_dict(self) -> dict:
        med = float(np.median(self.delta_e_events)) if self.delta_e_events else 0.0
        out = {
            "experiment": "spinodal",
            "mode": self.mode,
            "max_abs_mass_drift": f"{self.max_abs_drift:.17g}",
            "median_delta_E": f"{med:.17g}",
            "coarsen_events": str(len(self.delta_e_events)),
            "final_energy": f"{self.diagnostics.energies[-1]:.17g}",
            "final_elements": str(self.diagnostics.n_elements[-1]),
            "completed": "true" if self.completed else "false",
            "newton_iterations": str(self.newton_iterations),
        }
        out.update(self.timers.as_summary())
        return out


def run_spinodal(
    config: ExperimentConfig, mode: str | None = None, out_dir: str | None = None
) -> SpinodalResult:
    """Spinodal decomposition on the two-level adaptive mesh.

    Starts from the seeded random mixture on a uniform interface-level mesh
    (the whole domain is interface at t=0) and adapts after every step.
    Snapshots go into ``out_dir``, which is created if missing. A
    ``SolverError`` (a Newton failure or a PCG breakdown) or an ``OSError``
    from a snapshot write ends the run with ``completed = False``, a failure
    message and the diagnostics rows of the steps done so far.

    Newton starts from a polynomial predictor of the state u = [phi; mu],
    whether or not the mesh changed: from u_n at step 1, from u_n + d_0 at
    step 2 and from the quadratic extrapolation u_n + 2 d_0 - d_1 after
    that, with the increments d_0 = u_n - u_(n-1) and
    d_1 = u_(n-1) - u_(n-2), on the current mesh. mu and the increments'
    phi and mu parts cross each adaptation cycle as one block field:
    interpolated on refinement, injected on coarsening. The start only
    steers Newton; ``ch_step`` keeps the mass of u_n whatever it is.
    ``mode`` (default ``config.mode``) names the TransferMode of phi;
    "both" is not one.
    """
    mode = mode or config.mode
    tmode = TransferMode(mode)
    p = config.degree
    fe_params = (
        {"a": config.fh_a, "chi": config.fh_chi, "beta": config.fh_beta}
        if config.free_energy == "flory_huggins"
        else {}
    )
    problem = CahnHilliardProblem(
        free_energy=make_free_energy(config.free_energy, **fe_params),
        eps2=config.eps2,
        mobility=config.mobility,
        dt=config.dt,
        t_final=config.t_final,
        newton_tol=config.newton_tol,
        newton_max_iter=config.newton_max_iter,
        mass_tol=config.mass_tol,
    )
    crit = InterfaceCriterion(
        band_lo=config.band_lo,
        band_hi=config.band_hi,
        bulk_level=config.bulk_level,
        interface_level=config.interface_level,
        closed=config.band_closed,
    )
    timers = Timers()
    t_start = time.perf_counter()

    mesh = build_uniform(2, config.interface_level)
    phi = random_mixture_ic(mesh, p, config.phi0, config.amplitude, config.seed)
    mu = chemical_potential_init(phi, problem)
    energy_fn = lambda f: energy(f, problem)

    diag = Diagnostics()
    nn = enumerate_nodes(mesh, p)
    diag.add(0.0, _field_mass(phi), energy_fn(phi), 0.0, mesh.n_leaves, nn.n_dofs)
    delta_e_events: list[float] = []
    completed = True
    failure = ""
    newton_iterations = 0
    increments: list[np.ndarray] = []  # d_0 = u_n - u_(n-1), then d_1, on the current mesh

    n_steps = int(round(problem.t_final / problem.dt))
    snapshots = out_dir if out_dir and config.snapshot_every > 0 else None
    if snapshots:
        os.makedirs(snapshots, exist_ok=True)
    try:
        for step in range(1, n_steps + 1):
            t = step * problem.dt
            u = np.concatenate([phi.values, mu.values])
            if len(increments) == 2:
                start = u + 2.0 * increments[0] - increments[1]
            else:
                start = u + increments[0] if increments else None
            t0 = time.perf_counter()
            phi, mu, iterations = ch_step(phi, mu, problem, start)
            timers.pde_solve += time.perf_counter() - t0
            newton_iterations += iterations
            increments = [np.concatenate([phi.values, mu.values]) - u] + increments[:1]
            step_delta_e, step_energy = 0.0, None
            if step % config.adapt_every == 0:
                t0 = time.perf_counter()
                # columns mu, d_0 phi, d_0 mu, d_1 phi, d_1 mu; no TransferMode: injected
                carried = np.concatenate([mu.values, *increments]).reshape(-1, len(mu.values)).T
                mesh, fields, stats = adapt_cycle(
                    {"phi": phi, "carried": NodalField(mesh, p, carried)},
                    {"phi": tmode},
                    "phi",
                    crit,
                    energy_fn=energy_fn,
                    project_tol=config.mass_tol,
                )
                phi, carried = fields["phi"], np.ascontiguousarray(fields["carried"].values.T)
                mu = NodalField(mesh, p, carried[0])
                increments = list(carried[1:].reshape(len(increments), -1))
                timers.transfer += time.perf_counter() - t0
                if stats.n_merged:
                    delta_e_events.append(stats.delta_e)
                    step_delta_e = stats.delta_e
                step_energy = stats.energy  # phi's energy, when the cycle computed it
            if step_energy is None:
                step_energy = energy_fn(phi)
            nn = enumerate_nodes(mesh, p)
            diag.add(t, _field_mass(phi), step_energy, step_delta_e, mesh.n_leaves, nn.n_dofs)
            if snapshots and step % config.snapshot_every == 0:
                write_vtk(
                    os.path.join(snapshots, f"snapshot_{mode}_{step:06d}.vtk"),
                    mesh,
                    p,
                    {"phi": phi, "mu": mu},
                )
    except NewtonError as exc:
        completed = False
        failure = f"newton failure at t={t:.6g}: {exc} (trace {exc.trace})"
    except (SolverError, OSError) as exc:  # a PCG breakdown or a failed snapshot write
        completed = False
        failure = f"{type(exc).__name__} at t={t:.6g}: {exc}"

    drift = diag.mass_drift()
    timers.total = time.perf_counter() - t_start
    return SpinodalResult(
        mode=mode,
        diagnostics=diag,
        max_abs_drift=float(np.max(np.abs(drift))),
        delta_e_events=delta_e_events,
        timers=timers,
        completed=completed,
        failure=failure,
        newton_iterations=newton_iterations,
    )


def convergence_slope(levels, errors) -> float:
    """Least-squares slope of log2(error) against refinement level.

    Positive values mean error decays as h^slope with h = 2^-level.
    """
    levels = np.asarray(levels, dtype=float)
    errors = np.asarray(errors, dtype=float)
    # error ~ C * h^s = C * 2^(-level * s): regress log2(err) on -level
    coeffs = np.polyfit(-levels, np.log2(errors), 1)
    return float(coeffs[0])


def write_summary(path, entries: dict):
    with open(path, "w") as fh:
        for key in entries:
            fh.write(f"{key}={entries[key]}\n")


def emit_outputs(result, config: ExperimentConfig, out_dir: str, mode: str | None = None):
    """Write diagnostics CSV and the machine-readable summary for one run."""
    os.makedirs(out_dir, exist_ok=True)
    mode = mode or getattr(result, "mode", config.mode)
    if isinstance(result, dict):  # demo1d report
        summary = {
            "experiment": "demo1d",
            "degree": str(result["degree"]),
            "integral_original": f"{result['original']:.17g}",
            "integral_injection": f"{result['injection']:.17g}",
            "integral_conservative": f"{result['conservative']:.17g}",
        }
        write_summary(os.path.join(out_dir, "summary.txt"), summary)
        return summary
    result.diagnostics.write_csv(os.path.join(out_dir, f"diagnostics_{mode}.csv"))
    summary = result.summary_dict()
    write_summary(os.path.join(out_dir, f"summary_{mode}.txt"), summary)
    return summary
