"""End-to-end experiment drivers and their file outputs."""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapt import CycleStats, InterfaceCriterion, MmsCriterion, adapt_cycle
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


def _evolve(state, advance, tmode, criterion, problem, config, timers, energy_fn=None,
            snapshot=None, stop_on=()):
    """Row 0, then steps 1..N of a run: the one time loop of both drivers.

    ``state`` maps names to NodalFields on one mesh, the conserved field
    under "phi". Each step merges ``advance(state)`` into it (timed into
    ``timers.pde_solve``); every ``config.adapt_every`` steps ``adapt_cycle``
    moves it, phi by ``tmode`` and the rest by injection (timed into
    ``timers.transfer``); then a Diagnostics row takes phi's mass and energy
    (the cycle's, else ``energy_fn(phi)``, else 0) and ``snapshot(step,
    state)`` runs. The dict is updated in place and the mesh read from phi,
    so no earlier mesh outlives its step. An error of a ``stop_on`` type
    ends the loop. Returns (diagnostics, delta_e of each merging cycle, t of
    the last step begun, that error or None).

    ``ch_step``, ``diffusion_step``, ``adapt_cycle``, ``energy`` and
    ``write_vtk`` are looked up in this module at each call, never bound
    early: perfbench's step stamp (``clock.StepLaps``) swaps the step for
    one run and ends a set-up-only run at its first call, which a step
    bound before the swap would turn into a full run. Tests patch them too.
    """
    diag, delta_e_events, modes = Diagnostics(), [], {"phi": tmode}

    def add_row(t, stats):
        phi = state["phi"]
        e = stats.energy  # set only by a cycle that merged, given energy_fn
        if e is None:
            e = energy_fn(phi) if energy_fn else 0.0
        n_dofs = enumerate_nodes(phi.mesh, phi.p).n_dofs
        diag.add(t, _field_mass(phi), e, stats.delta_e, phi.mesh.n_leaves, n_dofs)

    t = 0.0
    add_row(t, CycleStats())
    try:
        for step in range(1, int(round(problem.t_final / problem.dt)) + 1):
            t = step * problem.dt
            t0 = time.perf_counter()
            state.update(advance(state))
            timers.pde_solve += time.perf_counter() - t0
            stats = CycleStats()
            if step % config.adapt_every == 0:
                t0 = time.perf_counter()
                _, fields, stats = adapt_cycle(
                    state, modes, "phi", criterion, energy_fn=energy_fn, project_tol=config.mass_tol
                )
                state.update(fields)
                timers.transfer += time.perf_counter() - t0
                if stats.n_merged:
                    delta_e_events.append(stats.delta_e)
            add_row(t, stats)
            if snapshot:
                snapshot(step, state)
    except stop_on as exc:
        return diag, delta_e_events, t, exc
    return diag, delta_e_events, t, None


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

    initial = lambda c: mms_exact(c[:, 0], c[:, 1], 0.0, problem)
    state = {"phi": interpolate_nodal(build_uniform(2, config.level), p, initial)}
    crit = MmsCriterion(tau=config.tau, fine_level=config.level, fraction=config.fraction)
    advance = lambda s: {"phi": diffusion_step(s["phi"], problem)}
    diag, events, t, _ = _evolve(state, advance, tmode, crit, problem, config, timers)
    err = _l2_error_vs_exact(state["phi"], problem, t)
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
        n_coarsen_events=len(events),
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
    d_1 = u_(n-1) - u_(n-2), on the current mesh. The loop state is phi and
    one block field "carried", the columns [mu, d_0 phi, d_0 mu, d_1 phi,
    d_1 mu] (k = 1, 3, 5 of them before steps 1, 2, 3): each step rebuilds
    it, and each adaptation cycle moves it as one field, interpolated on
    refinement and injected on coarsening. The start only steers Newton;
    ``ch_step`` keeps the mass of u_n whatever it is. ``mode`` (default
    ``config.mode``) names the TransferMode of phi; "both" is not one.
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

    phi = random_mixture_ic(
        build_uniform(2, config.interface_level), p, config.phi0, config.amplitude, config.seed
    )
    mu = chemical_potential_init(phi, problem)
    state = {"phi": phi, "carried": NodalField(phi.mesh, p, mu.values[:, None])}
    del phi, mu
    newton_iterations = 0

    def chemical_potential(state):
        return NodalField(state["phi"].mesh, p, state["carried"].values[:, 0])

    def advance(state):
        nonlocal newton_iterations
        phi, carried, mu = state["phi"], state["carried"].values, chemical_potential(state)
        u = np.concatenate([phi.values, mu.values])
        d = [np.concatenate(carried.T[j : j + 2]) for j in range(1, carried.shape[1], 2)]
        start = u + 2.0 * d[0] - d[1] if len(d) == 2 else (u + d[0] if d else None)
        phi_new, mu_new, iterations = ch_step(phi, mu, problem, start)
        newton_iterations += iterations
        d_0 = [phi_new.values - phi.values, mu_new.values - mu.values]
        block = np.stack([mu_new.values, *d_0, *carried.T[1:3]], axis=1)  # the old d_0 is d_1
        return {"phi": phi_new, "carried": NodalField(phi.mesh, p, block)}

    snapshots = out_dir if out_dir and config.snapshot_every > 0 else None
    if snapshots:
        os.makedirs(snapshots, exist_ok=True)

    def snapshot(step, state):
        if snapshots and step % config.snapshot_every == 0:
            name = os.path.join(snapshots, f"snapshot_{mode}_{step:06d}.vtk")
            fields = {"phi": state["phi"], "mu": chemical_potential(state)}
            write_vtk(name, state["phi"].mesh, p, fields)

    energy_fn = lambda f: energy(f, problem)
    diag, delta_e_events, t, error = _evolve(
        state, advance, tmode, crit, problem, config, timers, energy_fn, snapshot,
        stop_on=(SolverError, OSError),  # a Newton failure, a PCG breakdown, a snapshot write
    )
    failure = "" if error is None else f"{type(error).__name__} at t={t:.6g}: {error}"
    if isinstance(error, NewtonError):
        failure = f"newton failure at t={t:.6g}: {error} (trace {error.trace})"

    drift = diag.mass_drift()
    timers.total = time.perf_counter() - t_start
    return SpinodalResult(
        mode=mode,
        diagnostics=diag,
        max_abs_drift=float(np.max(np.abs(drift))),
        delta_e_events=delta_e_events,
        timers=timers,
        completed=error is None,
        failure=failure,
        newton_iterations=newton_iterations,
    )


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
