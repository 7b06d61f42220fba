"""What each path imports: SuperLU loads with the first Cahn-Hilliard factorisation.

Each SuperLU test runs in a fresh interpreter, since ``sys.modules`` is
shared by the whole test session. The package's lazy exports are checked
against the modules that define them.
"""
import importlib
import os
import subprocess
import sys
import textwrap

import amrfem

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

NON_FACTORISING_PATHS = """
    import sys

    import numpy as np

    from amrfem.runs import run_demo1d, run_mms
    from amrfem.adapt import InterfaceCriterion, adapt_cycle
    from amrfem.config import ExperimentConfig
    from amrfem.fem import interpolate_nodal
    from amrfem.mesh import build_uniform
    from amrfem.transfer import TransferMode

    run_mms(ExperimentConfig(kind="mms", degree=1, level=4, dt=0.01, t_final=0.03))
    phi = interpolate_nodal(build_uniform(2, 4), 1, lambda c: np.tanh((c[:, 0] - 0.5) / 0.1))
    _, _, stats = adapt_cycle(
        {"phi": phi, "mu": phi},
        {"phi": TransferMode.CONSERVATIVE, "mu": TransferMode.INJECTION},
        "phi",
        InterfaceCriterion(-0.9, 0.9, 3, 4),
    )
    assert stats.n_merged > 0
    run_demo1d(1)
"""

ONE_CH_STEP = """
    from amrfem import models

    prob = models.CahnHilliardProblem(dt=5e-4)
    phi = models.random_mixture_ic(build_uniform(2, 3), 1, 0.0, 0.1, 3)
    mu = models.chemical_potential_init(phi, prob)
    models.ch_step(phi, mu, prob)
"""


def run_fresh(*parts):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    script = "".join(textwrap.dedent(part) for part in parts)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_transfer_mms_and_demo_paths_load_no_superlu():
    run_fresh(NON_FACTORISING_PATHS, 'assert "scipy.sparse.linalg" not in sys.modules\n')


def test_first_factorisation_loads_superlu_as_models_spla():
    run_fresh(
        NON_FACTORISING_PATHS,
        ONE_CH_STEP,
        """
        assert "scipy.sparse.linalg" in sys.modules and "spla" in vars(models)
        assert models.spla is sys.modules["scipy.sparse.linalg"]
        """,
    )


def test_rebinding_before_the_first_factorisation_is_honoured():
    run_fresh(
        """
        import sys

        from amrfem import models
        from amrfem.mesh import build_uniform

        class Recording:
            def __init__(self):
                self.calls = 0

            def splu(self, a, **kwargs):
                import scipy.sparse.linalg

                self.calls += 1
                return scipy.sparse.linalg.splu(a, **kwargs)

        models.spla = stand_in = Recording()
        """,
        ONE_CH_STEP,
        """
        assert stand_in.calls >= 1
        assert models.spla is stand_in
        """,
    )


def test_every_lazy_export_is_public_in_its_module():
    for module, names in amrfem._EXPORTS.items():
        mod = importlib.import_module(f"amrfem.{module}")
        for name in names.split():
            assert name in mod.__all__, f"amrfem.{module}.__all__ lacks {name}"
            assert getattr(amrfem, name) is getattr(mod, name)
