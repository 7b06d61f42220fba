"""Tiny-size self-test of the benchmark itself.

Runs every workload at a low level for a few steps, untraced and traced,
and checks that every metric named in BENCHMARK.json comes out with its
unit, that the result line has the contract's keys, and that the
conservation and determinism checks fail when they should. Run from the
repository root:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.prepare()
    import numpy as np

    import amrfem.adapt
    import amrfem.runs
    import harness
    import workloads as wl
    from amrfem.errors import SolverError
    from amrfem.fem import NodalField

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    tiny = [
        wl.Spinodal(interface_level=4, bulk_level=2, steps=6),
        wl.Mms(level=4, tau=2e-2, t_final=0.1, l2_expected=0.0019136369158382375),
        wl.AmrCycle(bulk_level=2, interface_level=5, steps=3),
    ]
    results = []

    def check(label, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label} {detail}", flush=True)

    check("workload names", list(wl.WORKLOADS) == [w["name"] for w in spec["workloads"]])
    for w in tiny:
        for traced, expected in ((False, end_to_end), (True, per_layer)):
            out = run.execute(w, seed=1, seconds=0.0, trace=traced)
            units = {k: u for k, (_, u) in out.metrics.items()}
            mode = "tiny traced" if traced else "tiny untraced"
            check(f"{w.name} {mode} all checks pass", out.failed == 0,
                  f"{[c for c in out.checks if not c[1]]}")
            check(f"{w.name} {mode} metrics and units", units == expected,
                  f"missing {sorted(set(expected) - set(units))} extra {sorted(set(units) - set(expected))}")
            line = json.loads(run.result_json(out))
            check(f"{w.name} {mode} result keys", sorted(line) == ["attempted", "correct", "failed", "metrics"]
                  and line["attempted"] >= 1 and line["correct"] is True)

    # a transfer that leaks tracer mass must trip the conservation check
    amr = tiny[2]
    real = amrfem.adapt.transfer_coarsen_conservative

    def leaky(field, record, **kw):
        kept = real(field, record, **kw)
        return NodalField(kept.mesh, kept.p, kept.values * (1.0 + 1e-12))

    amrfem.adapt.transfer_coarsen_conservative = leaky
    try:
        out = run.execute(amr, seed=1, seconds=0.0, trace=False)
    finally:
        amrfem.adapt.transfer_coarsen_conservative = real
    tripped = [label for label, ok, _ in out.checks if not ok and label.endswith("tracer_mass")]
    check("perturbed tracer mass trips the conservation check", bool(tripped) and out.failed > 0,
          f"failed {out.failed}/{out.attempted}")

    # a solver error inside the run must count every step as failed, not crash
    real_step = amrfem.runs.ch_step

    def broken(*args, **kwargs):
        raise SolverError("injected")

    amrfem.runs.ch_step = broken
    try:
        out = run.execute(tiny[0], seed=1, seconds=0.0, trace=False)
    finally:
        amrfem.runs.ch_step = real_step
    check("a solver error counts as failed steps", out.failed >= 2 * tiny[0].steps,
          f"failed {out.failed}/{out.attempted}")

    # episodes whose outputs differ must trip the determinism check
    a = wl.Episode([0.1, 1.0], [1e-3, 1e-3], 1, 0, signature=((1, 2.0),))
    b = wl.Episode([0.1, 1.0], [1e-3, 1e-3], 1, 0, signature=((1, float(np.nextafter(2.0, 3.0))),))
    flags = harness._episode_checks([a, b], a)
    check("differing outputs trip the determinism check", flags == [
        ("episode1.determinism", False, "outputs equal the reference episode's")])

    print(f"selftest: {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
