import glob
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from amrfem.adapt import MmsCriterion
from amrfem.config import ExperimentConfig, parse_config, serialize_config
from amrfem.models import CahnHilliardProblem, DiffusionProblem
from amrfem.runs import emit_outputs, run_demo1d


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig(kind="spinodal", degree=2, seed=5, dt=2.5e-4, band_hi=0.95)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_unknown_key_is_hard_error(self):
        text = "[experiment]\nkind = mms\ntypo_key = 3\n"
        with pytest.raises(ValueError, match="typo_key"):
            parse_config(text)

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ValueError, match="section"):
            parse_config("[mystery]\nx = 1\n")

    def test_bad_enum_values(self):
        with pytest.raises(ValueError):
            parse_config("[experiment]\nkind = warp\n")
        with pytest.raises(ValueError):
            parse_config("[transfer]\nmode = sometimes\n")

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nkind = mms\ndegree = 2\n\n[mesh]\nlevel = 6\n")
        cfg = parse_config(str(path))
        assert cfg.kind == "mms" and cfg.degree == 2 and cfg.level == 6

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", -0.01),
            ("dt", 0.0),
            ("t_final", 0.0),
            ("quad_points", 1),
            ("pcg_max_iter", -3),
            ("newton_max_iter", 0),
            ("mass_tol", 0.0),
            ("newton_tol", -1e-10),
            ("snapshot_every", -1),
        ],
    )
    def test_bad_solver_and_time_inputs_rejected(self, field, value):
        cfg = ExperimentConfig(kind="mms", degree=1)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            cfg.validate()

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("mms", "tau", 0.0),
            ("mms", "kappa", -0.03),
            ("mms", "fraction", 1.5),
            ("mms", "theta", float("nan")),
            ("spinodal", "eps2", 0.0),
            ("spinodal", "mobility", -1.0),
        ],
    )
    def test_physics_checked_for_the_kind_that_reads_it(self, kind, field, value):
        cfg = ExperimentConfig(kind=kind)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        cfg.kind = "spinodal" if kind == "mms" else "mms"
        cfg.validate()

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: MmsCriterion(tau=float("nan"), fine_level=5), "tau"),
            (lambda: MmsCriterion(tau=0.1, fine_level=5, fraction=-0.5), "fraction"),
            (lambda: DiffusionProblem(kappa=0.0), "kappa"),
            (lambda: DiffusionProblem(theta=2.0), "theta"),
            (lambda: CahnHilliardProblem(eps2=float("nan")), "eps2"),
            (lambda: CahnHilliardProblem(mobility=0.0), "mobility"),
        ],
    )
    def test_dataclasses_share_the_checks(self, make, field):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            make()

    def test_parse_from_a_path_with_an_equals_sign(self, tmp_path):
        path = tmp_path / "run=1" / "exp.cfg"
        path.parent.mkdir()
        path.write_text("[experiment]\nkind = mms\n")
        assert parse_config(str(path)).kind == "mms"
        assert parse_config(path).kind == "mms"

    def test_malformed_text_and_values_are_value_errors(self):
        with pytest.raises(ValueError, match="malformed config"):
            parse_config("kind = mms\n")
        with pytest.raises(ValueError, match="invalid float for dt: 'soon'"):
            parse_config("[time]\ndt = soon\n")
        with pytest.raises(FileNotFoundError):
            parse_config("no_such_file.cfg")

    def test_quad_points_bound_follows_degree(self):
        assert ExperimentConfig(degree=1, quad_points=2).validate().quad_points == 2
        with pytest.raises(ValueError, match="quad_points"):
            ExperimentConfig(degree=2, quad_points=2).validate()

    def test_shipped_configs_validate(self):
        # each file parses, and to the same canonical text (SHA-256 prefixes)
        digests = {
            "demo1d.cfg": "f3b0a5969b226899",
            "mms_q1_l5.cfg": "5660559290a915b3",
            "mms_q2_l5.cfg": "c78ed4160d801d60",
            "spinodal_fh.cfg": "1919aa39d9bf9eec",
            "spinodal_poly.cfg": "c7e2ac085ebc6fb4",
        }
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        assert sorted(map(os.path.basename, glob.glob(os.path.join(root, "*.cfg")))) == sorted(digests)
        for name, digest in digests.items():
            text = serialize_config(parse_config(os.path.join(root, name)))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, name

    @pytest.mark.parametrize(
        "lo, hi, closed",
        [("0.7", "0.3", "true"), ("0.7", "0.3", "false"), ("0.5", "0.5", "false"), ("nan", "0.9", "true")],
    )
    def test_spinodal_band_that_holds_no_value_rejected(self, lo, hi, closed):
        text = (
            "[experiment]\nkind = spinodal\n\n"
            f"[adapt]\nband_lo = {lo}\nband_hi = {hi}\nband_closed = {closed}\n"
        )
        with pytest.raises(ValueError, match=rf"band_lo \({lo}\).*band_hi \({hi}\)"):
            parse_config(text)

    def test_band_checked_only_where_it_is_read(self):
        cfg = parse_config("[experiment]\nkind = spinodal\n\n[adapt]\nband_lo = 0.5\nband_hi = 0.5\n")
        assert cfg.band_lo == cfg.band_hi == 0.5  # a closed band holds its one value
        parse_config("[experiment]\nkind = mms\n\n[adapt]\nband_lo = 0.7\nband_hi = 0.3\n")

    def test_boolean_parsing(self):
        cfg = parse_config("[adapt]\nband_closed = false\n")
        assert cfg.band_closed is False
        with pytest.raises(ValueError):
            parse_config("[adapt]\nband_closed = maybe\n")


class TestDemoRun:
    def test_report_values(self):
        rep = run_demo1d(1)
        assert rep["original"] == pytest.approx(10.6284, abs=1e-3)
        assert rep["injection"] == pytest.approx(10.6036, abs=1e-3)
        assert rep["conservative"] == pytest.approx(10.6284, abs=1e-3)
        assert abs(rep["conservative"] - rep["original"]) <= 1e-11

    def test_quadratic_report_values(self):
        rep = run_demo1d(2)
        assert rep["original"] == pytest.approx(10.6367, abs=1e-3)
        assert rep["injection"] == pytest.approx(10.6381, abs=1e-3)
        assert rep["conservative"] == pytest.approx(10.6367, abs=1e-3)

    def test_emit_summary_passthrough(self, tmp_path):
        rep = run_demo1d(1)
        summary = emit_outputs(rep, ExperimentConfig(kind="demo1d"), str(tmp_path))
        text = (tmp_path / "summary.txt").read_text()
        assert f"integral_original={rep['original']:.17g}" in text
        assert summary["experiment"] == "demo1d"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "amrfem", *args], capture_output=True, text=True
    )


class TestCli:
    def test_restriction_dump_q1(self):
        proc = run_cli("restriction", "dump", "--p", "1")
        assert proc.returncode == 0
        rows = [list(map(float, line.split())) for line in proc.stdout.strip().splitlines()]
        assert np.asarray(rows).shape == (2, 4)
        assert rows[0][0] == pytest.approx(0.5915063509461096, abs=1e-15)

    def test_restriction_dump_elevated_quadrature(self):
        proc = run_cli("restriction", "dump", "--p", "1", "--nq", "3")
        assert proc.returncode == 0
        rows = [list(map(float, line.split())) for line in proc.stdout.strip().splitlines()]
        assert np.asarray(rows).shape == (3, 6)

    def test_restriction_dump_loads_no_scipy(self):
        # the package namespace is lazy, so the dump stays off the solver stack
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "amrfem", "restriction", "dump", "--p", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        loaded = [
            line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "amrfem.restriction" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_restriction_dump_rejects_too_few_points(self):
        proc = run_cli("restriction", "dump", "--p", "2", "--nq", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = proc.stderr.strip().splitlines()[-1]
        assert "--nq must be at least p+1=3, got 2" in error

    @staticmethod
    def parse_demo(stdout):
        vals = {}
        for line in stdout.strip().splitlines():
            name, value = line.split()
            vals[name] = float(value)
        return vals

    def test_demo1d_linear(self):
        proc = run_cli("demo1d", "--basis", "linear")
        assert proc.returncode == 0
        vals = self.parse_demo(proc.stdout)
        assert vals["original"] == pytest.approx(10.6284, abs=1e-3)
        assert vals["injection"] == pytest.approx(10.6036, abs=1e-3)
        assert vals["conservative"] == pytest.approx(10.6284, abs=1e-3)

    def test_demo1d_quad(self):
        proc = run_cli("demo1d", "--basis", "quad")
        assert proc.returncode == 0
        vals = self.parse_demo(proc.stdout)
        assert vals["original"] == pytest.approx(10.6367, abs=1e-3)
        assert vals["injection"] == pytest.approx(10.6381, abs=1e-3)
        assert vals["conservative"] == pytest.approx(10.6367, abs=1e-3)

    def test_mms_cli_with_config(self, tmp_path):
        cfg = tmp_path / "mms.cfg"
        cfg.write_text(
            "[experiment]\nkind = mms\ndegree = 1\n\n[mesh]\nlevel = 4\n\n"
            "[time]\ndt = 0.05\nt_final = 0.2\n\n[adapt]\ntau = 0.02\n\n"
            "[solver]\nmass_tol = 1e-13\n"
        )
        out = tmp_path / "out"
        proc = run_cli("mms", "--config", str(cfg), "--mode", "conservative", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "diagnostics_conservative.csv").exists()
        assert (out / "summary_conservative.txt").exists()

    def test_mode_both_runs_each_mode_once(self, tmp_path):
        cfg = tmp_path / "mms.cfg"
        cfg.write_text(
            "[experiment]\nkind = mms\ndegree = 1\n\n[mesh]\nlevel = 3\n\n"
            "[time]\ndt = 0.05\nt_final = 0.1\n\n[transfer]\nmode = both\n"
        )
        out = tmp_path / "out"
        proc = run_cli("mms", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        modes = [line.split()[3] for line in proc.stdout.splitlines()]
        assert modes == ["mode=conservative", "mode=injection"]
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnostics_conservative.csv",
            "diagnostics_injection.csv",
            "summary_conservative.txt",
            "summary_injection.txt",
        ]
        proc = run_cli("mms", "--config", str(cfg), "--mode", "injection", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[3] for line in proc.stdout.splitlines()] == ["mode=injection"]

    @pytest.mark.parametrize(
        "command, kind", [("demo1d", "mms"), ("mms", "spinodal"), ("spinodal", "demo1d")]
    )
    def test_config_of_another_kind_is_refused(self, tmp_path, command, kind):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(
            f"[experiment]\nkind = {kind}\ndegree = 1\n\n"
            "[mesh]\nlevel = 3\nbulk_level = 2\ninterface_level = 3\n\n"
            "[time]\ndt = 5e-4\nt_final = 0.001\n"
        )
        out = tmp_path / "out"
        proc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert f"describes a {kind} run, not {command}" in proc.stderr
        assert proc.stdout == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, text, named",
        [
            ("mms", "[experiment]\nkind = mms\n\n[time]\ndt = 0\n", "dt"),
            ("mms", "[experiment]\nkind = mms\n\n[adapt]\ntau = 0\n", "tau"),
            ("mms", "[experiment]\nkind = mms\n\n[adapt]\nfraction = 1.5\n", "fraction"),
            ("spinodal", "[experiment]\nkind = spinodal\n\n[physics]\neps2 = 0\n", "eps2"),
            ("spinodal", "[experiment]\nkind = spinodal\n\n[physics]\nmobility = -1\n", "mobility"),
            ("mms", "[experiment]\nkind = mms\n\n[time]\ndt = soon\n", "dt"),
            ("mms", "kind = mms\n", "section header"),
            ("mms", None, "missing.cfg"),
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, command, text, named):
        cfg = tmp_path / ("missing.cfg" if text is None else "bad.cfg")
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        proc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr and f"--config {cfg}" in proc.stderr
        assert proc.stdout == "" and not out.exists()

    def test_spinodal_snapshots_into_a_new_out_directory(self, tmp_path):
        # the desk configs write snapshots; a fresh checkout has no out/
        cfg = tmp_path / "sp.cfg"
        cfg.write_text(
            "[experiment]\nkind = spinodal\ndegree = 1\nseed = 3\n\n"
            "[mesh]\nbulk_level = 2\ninterface_level = 3\n\n"
            "[time]\ndt = 5e-4\nt_final = 0.002\n\n"
            "[output]\nsnapshot_every = 2\n"
        )
        out = tmp_path / "not" / "there"
        proc = run_cli("spinodal", "--config", str(cfg), "--mode", "conservative", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in out.glob("*.vtk")) == [
            "snapshot_conservative_000002.vtk",
            "snapshot_conservative_000004.vtk",
        ]
        assert (out / "diagnostics_conservative.csv").exists()

    def test_determinism_byte_identical_csv(self, tmp_path):
        cfg = tmp_path / "sp.cfg"
        cfg.write_text(
            "[experiment]\nkind = spinodal\ndegree = 1\nseed = 3\n\n"
            "[mesh]\nbulk_level = 2\ninterface_level = 4\n\n"
            "[time]\ndt = 5e-4\nt_final = 0.005\n\n"
            "[adapt]\nband_lo = -0.9\nband_hi = 0.9\n\n"
            "[solver]\nmass_tol = 1e-13\n"
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = run_cli("spinodal", "--config", str(cfg), "--mode", "conservative", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "diagnostics_conservative.csv").read_bytes())
        assert outs[0] == outs[1]
