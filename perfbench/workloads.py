"""The benchmark's workloads: one episode each, and the output checks.

An episode is a closed loop: one process advances the simulation and each
step starts when the previous one ends. Every episode starts from a fresh
set-up on new mesh objects, timed as its first lap, so no numbering or
factorisation cache survives from one episode to the next, and the same
seed replays the same trajectory; the harness compares the episodes'
outputs exactly.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import amrfem
from amrfem import runs
from amrfem.config import ExperimentConfig, parse_config
from amrfem.errors import MeshStateError, SolverError

from clock import Laps, StepLaps
from spans import paused

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_SPINODAL = os.path.join(ROOT, "configs", "spinodal_poly.cfg")


@dataclass
class Episode:
    lap_s: list  # wall time of the set-up (lap 0), then of each step
    calib_s: list  # calibration loop time measured just before each lap
    steps: int
    steps_failed: int
    checks: list = field(default_factory=list)  # (name, ok, detail)
    signature: tuple = ()  # outputs that must repeat exactly for the same seed
    timers: dict = field(default_factory=dict)  # the run's own Timers summary

    @property
    def wall_s(self) -> float:
        """Wall time of the episode's program calls, calibration excluded."""
        return float(sum(self.lap_s))


def _failed(laps: Laps, steps: int, exc: Exception) -> Episode:
    """An episode whose run raised: every step counts as failed."""
    checks = [("completed", False, f"{type(exc).__name__}: {exc}")]
    return Episode(laps.lap_s, laps.calib_s, steps, steps, checks)


def _diag_signature(diag) -> tuple:
    return (
        tuple(diag.times),
        tuple(diag.masses),
        tuple(diag.energies),
        tuple(diag.delta_e),
        tuple(diag.n_elements),
        tuple(diag.n_dofs),
    )


class Spinodal:
    """Desk spinodal decomposition, conservative transfer, cut short.

    The initial mixture always uses the desk config's seed (7): the work per
    step depends strongly on the mixture, and 100 steps ran at 7.5 to 10.5
    steps/s across seeds 1-7, more than any bound the benchmark may set.
    The benchmark seed is recorded but changes nothing.
    """

    name = "spinodal-l6"
    unit = "step"

    def __init__(self, interface_level=6, bulk_level=3, steps=100):
        self.interface_level = interface_level
        self.bulk_level = bulk_level
        self.steps = steps

    def config(self) -> ExperimentConfig:
        cfg = parse_config(DESK_SPINODAL)
        cfg.interface_level = self.interface_level
        cfg.bulk_level = self.bulk_level
        cfg.mode = "conservative"
        cfg.t_final = self.steps * cfg.dt
        cfg.snapshot_every = 0
        return cfg.validate()

    def setup_laps(self, seed: int) -> Laps:
        """Times ``run_spinodal`` up to its first step, which it does not take."""
        cfg = self.config()
        with StepLaps(runs, "ch_step", setup_only=True) as laps:
            runs.run_spinodal(cfg)
        return laps

    def episode(self, seed: int, tracer=None) -> Episode:
        cfg = self.config()
        # lap 0 is run_spinodal's set-up; a step is ch_step plus the
        # adaptation and diagnostics that follow it
        with StepLaps(runs, "ch_step") as laps:
            try:
                res = runs.run_spinodal(cfg)
            except (SolverError, MeshStateError) as exc:
                res, failure = None, exc
        if res is None:
            return _failed(laps, self.steps, failure)
        diag = res.diagnostics
        done = len(diag.times) - 1
        e = diag.energies
        e_tol = 1e-6 * e[0]
        rises = [i for i in range(len(e) - 1) if e[i + 1] > e[i] + e_tol]
        checks = [
            ("completed", res.completed, res.failure or f"{done} steps"),
            ("mass_drift", res.max_abs_drift <= 1e-10, f"max|dm|={res.max_abs_drift:.3e} (<=1e-10)"),
            ("energy_decay", not rises, f"rises beyond 1e-6*E0 at steps {rises[:5]}"),
        ]
        return Episode(
            lap_s=laps.lap_s,
            calib_s=laps.calib_s,
            steps=self.steps,
            steps_failed=self.steps - done,
            checks=checks,
            signature=_diag_signature(diag),
            timers=res.timers.as_summary(),
        )


class Mms:
    """Manufactured-solution diffusion with the acceptance-suite settings.

    The run has no random input: the seed is recorded but changes nothing.
    """

    name = "mms-q1-l7"
    unit = "step"

    def __init__(self, level=7, tau=2.5e-3, t_final=1.0, l2_expected=1.1260521059136358e-05):
        self.level = level
        self.tau = tau
        self.t_final = t_final
        self.dt = 0.01
        self.steps = int(round(t_final / self.dt))
        self.l2_expected = l2_expected

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            kind="mms", degree=1, level=self.level, dt=self.dt, t_final=self.t_final,
            tau=self.tau, mass_tol=1e-14, mode="conservative",
        ).validate()

    def setup_laps(self, seed: int) -> Laps:
        """Times ``run_mms`` up to its first step, which it does not take."""
        cfg = self.config()
        with StepLaps(runs, "diffusion_step", setup_only=True) as laps:
            runs.run_mms(cfg)
        return laps

    def episode(self, seed: int, tracer=None) -> Episode:
        cfg = self.config()
        # lap 0 is run_mms's set-up; a step is diffusion_step plus what follows it
        with StepLaps(runs, "diffusion_step") as laps:
            try:
                res = runs.run_mms(cfg)
            except (SolverError, MeshStateError) as exc:
                res, failure = None, exc
        if res is None:
            return _failed(laps, self.steps, failure)
        drift = float(np.max(np.abs(res.diagnostics.mass_drift())))
        rel = abs(res.l2_error - self.l2_expected) / self.l2_expected
        checks = [
            ("mass_drift", drift <= 1e-11, f"max|dm|={drift:.3e} (<=1e-11)"),
            ("l2_error", rel <= 1e-6, f"L2={res.l2_error:.10e}, pinned {self.l2_expected:.10e} (rel {rel:.1e} <= 1e-6)"),
        ]
        return Episode(
            lap_s=laps.lap_s,
            calib_s=laps.calib_s,
            steps=self.steps,
            steps_failed=0,
            checks=checks,
            signature=_diag_signature(res.diagnostics) + (res.l2_error,),
            timers=res.timers.as_summary(),
        )


class AmrCycle:
    """Adaptation-only loop: one ``adapt_cycle`` per step, no PDE solve.

    A tanh circle marker (radius 0.25, half-width two fine cells) sits on a
    quadtree that starts uniform at the bulk level. Set-up adapts the mesh
    around the circle up to the interface level, one level per cycle; each
    step then moves the centre 0.75 fine cells in the seeded direction and
    runs one cycle. The marker is injected and then re-interpolated at its
    new centre; a smooth tracer is transferred conservatively.
    """

    name = "amr-cycle-l8"
    unit = "cycle"
    radius = 0.25
    band = 0.9
    mass_tol = 1e-13  # relative tracer-mass defect per cycle
    modes = {"marker": amrfem.TransferMode.INJECTION, "tracer": amrfem.TransferMode.CONSERVATIVE}

    def __init__(self, bulk_level=4, interface_level=8, steps=10):
        self.crit = amrfem.InterfaceCriterion(
            band_lo=-self.band, band_hi=self.band,
            bulk_level=bulk_level, interface_level=interface_level, closed=True,
        )
        self.fine_h = 2.0 ** -interface_level
        self.steps = steps

    def marker(self, centre):
        width = 2.0 * self.fine_h

        def fn(c):
            return np.tanh((np.hypot(c[:, 0] - centre[0], c[:, 1] - centre[1]) - self.radius) / width)

        return fn

    @staticmethod
    def tracer_fn(c):
        return 1.0 + 0.5 * np.sin(2.0 * np.pi * c[:, 0] + 0.3) * np.cos(3.0 * np.pi * c[:, 1])

    def cycle(self, mesh, tracer_field, centre):
        marker = amrfem.interpolate_nodal(mesh, 1, self.marker(centre))
        mesh, fields, stats = amrfem.adapt_cycle(
            {"marker": marker, "tracer": tracer_field}, self.modes, "marker", self.crit,
            project_tol=1e-14,
        )
        return mesh, fields["tracer"], stats

    def setup(self):
        """Uniform bulk mesh, tracer, and cycles up to the interface level."""
        mesh = amrfem.build_uniform(2, self.crit.bulk_level)
        tracer_field = amrfem.interpolate_nodal(mesh, 1, self.tracer_fn)
        for _ in range(self.crit.interface_level - self.crit.bulk_level):
            mesh, tracer_field, _ = self.cycle(mesh, tracer_field, (0.5, 0.5))
        return mesh, tracer_field

    def setup_laps(self, seed: int) -> Laps:
        """Times the set-up alone."""
        laps = Laps()
        laps.lap()
        self.setup()
        laps.close()
        return laps

    def episode(self, seed: int, tracer=None) -> Episode:
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        direction = np.array([np.cos(angle), np.sin(angle)])
        laps, rows, defects = Laps(), [], []
        laps.lap()
        try:
            mesh, tracer_field = self.setup()
            laps.stop()
            with paused(tracer):
                mass = amrfem.integrate_gauss(amrfem.eval_at_gauss(tracer_field))
            for k in range(1, self.steps + 1):
                centre = 0.5 + 0.75 * self.fine_h * k * direction
                laps.lap()
                mesh, tracer_field, stats = self.cycle(mesh, tracer_field, centre)
                laps.stop()
                with paused(tracer):
                    new_mass = amrfem.integrate_gauss(amrfem.eval_at_gauss(tracer_field))
                    nn = amrfem.enumerate_nodes(mesh, 1)
                rows.append((mesh.n_leaves, nn.n_dofs, len(nn.hanging), stats.n_refined, stats.n_merged, new_mass))
                defects.append(abs(new_mass - mass) / abs(mass))
                mass = new_mass
        except (SolverError, MeshStateError) as exc:
            laps.close()
            return _failed(laps, self.steps, exc)
        laps.close()
        worst = max(defects)
        lo, hi = int(mesh.levels.min()), int(mesh.levels.max())
        checks = [
            ("tracer_mass", worst <= self.mass_tol, f"max relative defect per cycle {worst:.2e} (<={self.mass_tol:.0e})"),
            ("level_bounds", self.crit.bulk_level <= lo and hi <= self.crit.interface_level, f"levels {lo}..{hi}"),
        ]
        return Episode(
            lap_s=laps.lap_s,
            calib_s=laps.calib_s,
            steps=self.steps,
            steps_failed=0,
            checks=checks,
            signature=tuple(rows),
        )


WORKLOADS = {w.name: w for w in (Spinodal(), Mms(), AmrCycle())}
