import os

import numpy as np
import pytest

from amrfem import adapt, runs
from amrfem.errors import SolverError
from amrfem.config import ExperimentConfig
from amrfem.fem import NodalField, eval_at_gauss, integrate_gauss, interpolate_nodal
from amrfem.models import energy
from amrfem.mesh import build_uniform, execute_refine
from amrfem.runs import emit_outputs, run_mms, run_spinodal
from convergence import convergence_slope
from amrfem.vtkio import write_vtk


class TestConvergenceSlope:
    def test_exact_power_law(self):
        levels = [4, 5, 6]
        errors = [0.1 * (2.0**-l) ** 2 for l in levels]
        assert convergence_slope(levels, errors) == pytest.approx(2.0, abs=1e-12)

    def test_two_point_slope(self):
        assert convergence_slope([5, 6], [8e-5, 1e-5]) == pytest.approx(3.0, abs=1e-12)


class TestMmsSmall:
    def test_conservative_short_run(self):
        cfg = ExperimentConfig(
            kind="mms", degree=1, level=4, dt=0.02, t_final=0.2, tau=2e-2, mass_tol=1e-13
        )
        res = run_mms(cfg, "conservative")
        assert abs(res.mass_drift_final) <= 1e-11
        assert res.l2_error < 5e-3
        assert res.diagnostics.n_elements[-1] <= 256
        assert np.all(np.asarray(res.diagnostics.n_elements) >= 64)

    def test_levels_stay_in_pair(self):
        cfg = ExperimentConfig(
            kind="mms", degree=1, level=4, dt=0.02, t_final=0.1, tau=2e-2, mass_tol=1e-13
        )
        res = run_mms(cfg, "injection")
        for n in res.diagnostics.n_elements:
            assert 64 <= n <= 256  # levels {3, 4} only


class TestMmsSeams:
    """run_mms reads ``runs.diffusion_step`` at each step, and a transfer error leaves it."""

    cfg = ExperimentConfig(
        kind="mms", degree=1, level=4, dt=0.02, t_final=0.1, tau=2e-2, mass_tol=1e-13
    )

    def test_each_step_goes_through_the_module_seam(self, monkeypatch):
        # the wrapper shifts each new state by 1, so a row taken from anything
        # but its output would miss the shifted mass
        outputs, real = [], runs.diffusion_step

        def counting(phi, problem):
            out = real(phi, problem)
            outputs.append(NodalField(out.mesh, out.p, out.values + 1.0))
            return outputs[-1]

        monkeypatch.setattr(runs, "diffusion_step", counting)
        res = run_mms(self.cfg, "conservative")
        diag = res.diagnostics
        assert len(outputs) == round(self.cfg.t_final / self.cfg.dt) == len(diag.times) - 1
        merged = 0
        for row, out in enumerate(outputs, start=1):
            mass = integrate_gauss(eval_at_gauss(out))
            if diag.n_elements[row] == out.mesh.n_leaves:  # no merge after this step
                assert diag.masses[row] == mass
            else:  # conservatively coarsened
                merged += 1
                assert diag.masses[row] == pytest.approx(mass, rel=1e-12, abs=0.0)
        assert merged == res.n_coarsen_events > 0

    def test_transfer_error_propagates(self, monkeypatch):
        # perfbench counts a raise out of run_mms as failed steps
        def broken(*args, **kwargs):
            raise SolverError("injected")

        monkeypatch.setattr(adapt, "transfer_coarsen_conservative", broken)
        with pytest.raises(SolverError, match="injected"):
            run_mms(self.cfg, "conservative")


class TestDriverMode:
    """Each driver runs one TransferMode; expanding "both" into two runs is the CLI's job."""

    @pytest.mark.parametrize(
        "run, cfg",
        [
            (
                run_mms,
                ExperimentConfig(kind="mms", degree=1, level=3, dt=0.02, t_final=0.04, mode="both"),
            ),
            (
                run_spinodal,
                ExperimentConfig(
                    kind="spinodal", degree=1, bulk_level=2, interface_level=3,
                    dt=5e-4, t_final=1e-3, seed=1, mode="both",
                ),
            ),
        ],
        ids=["mms", "spinodal"],
    )
    def test_both_is_rejected_not_run_as_injection(self, run, cfg):
        with pytest.raises(ValueError, match="'both'"):
            run(cfg)


class TestSpinodalSmall:
    def test_tiny_run_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            kind="spinodal",
            degree=1,
            bulk_level=2,
            interface_level=4,
            dt=5e-4,
            t_final=0.01,
            seed=1,
            mass_tol=1e-13,
            snapshot_every=10,
        )
        res = run_spinodal(cfg, "conservative", out_dir=str(tmp_path))
        assert res.completed
        assert res.max_abs_drift <= 1e-10
        summary = emit_outputs(res, cfg, str(tmp_path), "conservative")
        assert (tmp_path / "diagnostics_conservative.csv").exists()
        assert summary["completed"] == "true"
        snapshots = [p for p in os.listdir(tmp_path) if p.endswith(".vtk")]
        assert len(snapshots) == 2  # steps 10 and 20

    @pytest.mark.parametrize("where", ["coarsening", "snapshot"])
    def test_failure_keeps_the_rows_so_far(self, where, monkeypatch, tmp_path):
        # a PCG breakdown in the first conservative coarsening, or a failed
        # snapshot write, ends the run but keeps the diagnostics up to it
        cfg = ExperimentConfig(
            kind="spinodal", degree=1, bulk_level=2, interface_level=4, band_lo=-0.05,
            band_hi=0.05, dt=5e-4, t_final=0.006, seed=1, mass_tol=1e-13, snapshot_every=3,
        )  # the narrow band merges first at step 10
        full = run_spinodal(cfg, "conservative")
        assert full.completed and full.delta_e_events

        def broken(*args, **kwargs):
            raise (SolverError("injected") if where == "coarsening" else OSError("injected"))

        steps, real_step = [], runs.ch_step
        monkeypatch.setattr(runs, "ch_step", lambda *a: steps.append(1) or real_step(*a))
        target = (adapt, "transfer_coarsen_conservative") if where == "coarsening" else (runs, "write_vtk")
        monkeypatch.setattr(*target, broken)
        res = run_spinodal(cfg, "conservative", out_dir=str(tmp_path))
        kind = "SolverError" if where == "coarsening" else "OSError"
        assert not res.completed and res.failure.startswith(f"{kind} at t=")
        # the failing step has a row only when its snapshot failed (step 3)
        rows = len(res.diagnostics.times)
        assert rows == len(steps) + (where == "snapshot") and 1 < rows < len(full.diagnostics.times)
        assert res.diagnostics.energies == full.diagnostics.energies[:rows]
        summary = emit_outputs(res, cfg, str(tmp_path), "conservative")
        assert summary["completed"] == "false"

    def test_energy_evaluated_once_per_field(self, monkeypatch):
        # a coarsening step evaluates the energy before and after the
        # transfer; the diagnostics row reuses the second value
        calls = []

        def counting(phi, problem):
            calls.append(phi)
            return energy(phi, problem)

        monkeypatch.setattr(runs, "energy", counting)
        cfg = ExperimentConfig(
            kind="spinodal", degree=1, bulk_level=2, interface_level=4,
            dt=5e-4, t_final=0.005, seed=1, phi0=1.0, amplitude=0.05, mass_tol=1e-13,
        )
        res = run_spinodal(cfg, "conservative")
        n_steps = len(res.diagnostics.times) - 1
        assert res.delta_e_events
        assert len(calls) == 1 + n_steps + len(res.delta_e_events)

    def test_summary_reports_newton_iterations(self, tmp_path):
        cfg = ExperimentConfig(
            kind="spinodal", degree=1, bulk_level=2, interface_level=3,
            dt=5e-4, t_final=0.005, seed=2, mass_tol=1e-13,
        )
        res = run_spinodal(cfg, "conservative")
        assert res.newton_iterations > 0
        emit_outputs(res, cfg, str(tmp_path), "conservative")
        lines = (tmp_path / "summary_conservative.txt").read_text().splitlines()
        assert f"newton_iterations={res.newton_iterations}" in lines
        assert not any(line.startswith("wall_marking_s=") for line in lines)

    def test_predicted_start_cuts_newton_iterations(self, monkeypatch):
        # desk physics at interface level 5 with a narrow band, so the mesh
        # changes at 34 of the 40 steps: only a predictor carried across
        # mesh changes helps here (measured 121 against 144 iterations, 0.84)
        cfg = ExperimentConfig(
            kind="spinodal", degree=1, bulk_level=2, interface_level=5,
            band_lo=-0.05, band_hi=0.05, dt=5e-4, t_final=0.02, seed=1, mass_tol=1e-14,
        )
        shipped = run_spinodal(cfg, "conservative")
        real = runs.ch_step
        monkeypatch.setattr(
            runs, "ch_step", lambda phi, mu, problem, start=None: real(phi, mu, problem)
        )
        plain = run_spinodal(cfg, "conservative")
        assert shipped.completed and plain.completed
        a, b = shipped.diagnostics, plain.diagnostics
        assert len(a.times) == 41
        assert a.n_elements == b.n_elements and a.n_dofs == b.n_dofs
        assert sum(x != y for x, y in zip(a.n_elements, a.n_elements[1:])) >= 30
        assert shipped.newton_iterations <= 0.9 * plain.newton_iterations


class TestVtk:
    def test_legacy_ascii_structure(self, tmp_path):
        mesh = build_uniform(2, 1)
        mesh, _ = execute_refine(mesh, np.array([True, False, False, False]))
        f = interpolate_nodal(mesh, 1, lambda c: c[:, 0] + c[:, 1])
        path = tmp_path / "snap.vtk"
        write_vtk(path, mesh, 1, {"phi": f})
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in text[3]
        n_points = int([l for l in text if l.startswith("POINTS")][0].split()[1])
        assert n_points == len(f.numbering.node_keys)
        cells_line = [l for l in text if l.startswith("CELLS")][0]
        assert int(cells_line.split()[1]) == mesh.n_leaves
        assert any(l.startswith("SCALARS phi") for l in text)
        assert any(l.startswith("SCALARS level") for l in text)

    def test_1d_mesh_export(self, tmp_path):
        mesh = build_uniform(1, 2)
        f = interpolate_nodal(mesh, 1, lambda c: c[:, 0])
        path = tmp_path / "line.vtk"
        write_vtk(path, mesh, 1, {"g": f})
        assert "CELL_TYPES 4" in path.read_text()
