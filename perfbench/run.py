"""amrfem benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload spinodal-l6 --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run. Human-readable report lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The package is
imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS to one thread and put ``src/`` first on the import path.

    Must run before numpy is imported: the pin is read when BLAS loads.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    if not os.path.isfile(os.path.join(SRC, "amrfem", "__init__.py")):
        raise FileNotFoundError(f"amrfem sources not found under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    import numpy as np
    import scipy

    import amrfem

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "amrfem": os.path.dirname(amrfem.__file__),
        "workload": workload.name,
        "seed": args.seed,
        "steps_per_episode": workload.steps,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def execute(workload, seed: int, seconds: float, trace: bool):
    import harness

    if trace:
        return harness.run_traced(workload, seed, seconds)
    return harness.run_untraced(workload, seed, seconds)


def result_json(outcome) -> str:
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="spinodal-l6, mms-q1-l7 or amr-cycle-l8")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
    except (RuntimeError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args, workload)), flush=True)
    outcome = execute(workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    for label, ok, detail in outcome.checks:
        print(f"check {label} {'PASS' if ok else 'FAIL'} {detail}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(result_json(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
