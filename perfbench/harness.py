"""Runs one workload for a time budget and turns its episodes into metrics.

Untraced run: episodes until the budget is spent (at least two). Every
episode times its set-up and each of its steps, and every time is scaled to
the reference host speed (see ``clock.py``). Before each episode the
program's set-up alone runs a few more times: one set-up is short and
host noise moves it by a third. ``setup_s`` is the median scaled set-up
time; ``steps_per_s`` is steps over the median scaled time of the
episodes' steps.

Traced run: one untraced episode as the reference, then traced episodes
(at least two) with every layer wrapped, set-up included. Per-layer times
are medians over the traced episodes; counts must repeat exactly from one
traced episode to the next, and every episode's outputs must equal the
reference's.
"""
from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

from amrfem.errors import MeshStateError, SolverError

import clock
from spans import Tracer, instrument

MIN_EPISODES = 2
SETUP_SAMPLES = 3  # set-up-only runs before each episode

# per-layer metric -> spans whose self time it sums
SELF_TIMES = {
    "mesh.execute_refine.self_s": ("mesh.execute_refine",),
    "mesh.execute_coarsen.self_s": ("mesh.execute_coarsen",),
    "mesh.enumerate_nodes.self_s": ("mesh.enumerate_nodes",),
    "mesh.is_balanced.self_s": ("mesh.is_balanced",),
    "mesh.sibling_families.self_s": ("mesh.sibling_families",),
    "fem.assemble_mass.self_s": ("fem.assemble_mass",),
    "fem.assemble_stiffness.self_s": ("fem.assemble_stiffness",),
    "fem.project_l2.self_s": ("fem.project_l2",),
    "fem.eval_at_gauss.self_s": ("fem.eval_at_gauss",),
    "fem.solve_spd.self_s": ("fem.solve_spd",),
    "restriction.apply_restriction.self_s": ("restriction.apply_restriction",),
    "transfer.transfer_refine.self_s": ("transfer.transfer_refine",),
    "transfer.transfer_coarsen_conservative.self_s": ("transfer.transfer_coarsen_conservative",),
    "transfer.transfer_coarsen_injection.self_s": ("transfer.transfer_coarsen_injection",),
    "transfer.restrict_gauss_field.self_s": ("transfer.restrict_gauss_field",),
    "models.ch_step.self_s": ("models.ch_step",),
    "models.splu.self_s": ("models.splu",),
    "models.lu_solve.self_s": ("models.lu_solve",),
    "models.diffusion_step.self_s": ("models.diffusion_step",),
    "models.energy.self_s": ("models.energy",),
    "adapt.mark.self_s": ("adapt.mark_interface", "adapt.mark_mms"),
    "adapt.adapt_cycle.self_s": ("adapt.adapt_cycle",),
}


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    checks: list  # (label, ok, detail)
    lines: list = field(default_factory=list)  # human-readable report


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _tally(episodes, checks):
    attempted = sum(ep.steps for ep in episodes) + len(checks)
    failed = sum(ep.steps_failed for ep in episodes) + sum(not ok for _, ok, _ in checks)
    return attempted, failed


def _episode_checks(episodes, reference):
    checks = []
    for r, ep in enumerate(episodes):
        checks += [(f"episode{r}.{name}", ok, detail) for name, ok, detail in ep.checks]
        if ep is not reference:
            same = ep.signature == reference.signature
            checks.append((f"episode{r}.determinism", same, "outputs equal the reference episode's"))
    return checks


def scaled_setup_s(laps) -> float:
    return clock.scaled(laps.lap_s, laps.calib_s)[0]


def _setup_samples(workload, seed, samples):
    """Append (raw, scaled) times of ``SETUP_SAMPLES`` set-ups."""
    for _ in range(SETUP_SAMPLES):
        try:
            laps = workload.setup_laps(seed)
        except (SolverError, MeshStateError):
            return  # the episode's own set-up fails too and is counted there
        samples.append((laps.lap_s[0], scaled_setup_s(laps)))


def scaled_steps_s(ep) -> float:
    return sum(clock.scaled(ep.lap_s, ep.calib_s)[1:])


def steps_per_second(episodes, time_of) -> float:
    """Completed steps over the median time of the steps; 0 if none completed."""
    done = statistics.median(ep.steps - ep.steps_failed for ep in episodes)
    return _ratio(done, statistics.median(time_of(ep) for ep in episodes))


def run_untraced(workload, seed: int, seconds: float) -> Outcome:
    episodes, setups = [], []
    start = time.perf_counter()
    while len(episodes) < MIN_EPISODES or time.perf_counter() - start < seconds:
        gc.collect()  # no episode pays for the previous one's garbage
        _setup_samples(workload, seed, setups)
        gc.collect()
        ep = workload.episode(seed)
        episodes.append(ep)
        setups.append((ep.lap_s[0], scaled_setup_s(ep)))
    checks = _episode_checks(episodes, episodes[0])
    attempted, failed = _tally(episodes, checks)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "steps_per_s": (steps_per_second(episodes, scaled_steps_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    calib = [c for ep in episodes for c in ep.calib_s]
    lines = [
        f"episodes {len(episodes)} x {workload.steps} {workload.unit}s, set-ups {len(setups)}",
        f"raw (unscaled) setup_s {statistics.median(raw for raw, _ in setups):.6g} s, "
        f"steps_per_s {steps_per_second(episodes, lambda ep: sum(ep.lap_s[1:])):.6g} 1/s",
        f"calibration loop median {statistics.median(calib) * 1e3:.4f} ms "
        f"(reference {clock.REFERENCE_S * 1e3:g} ms), min {min(calib) * 1e3:.4f}, max {max(calib) * 1e3:.4f}",
        f"scaled setup_s {['%.4g' % scaled for _, scaled in setups]}",
        f"scaled steps_per_s per episode {['%.4g' % steps_per_second([ep], scaled_steps_s) for ep in episodes]}",
        f"failed_frac {_ratio(failed, attempted):.6g} frac ({failed}/{attempted})",
    ]
    return Outcome(metrics, attempted, failed, checks, lines)


def _snapshot(tracer: Tracer, ep) -> dict:
    return {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "maxima": dict(tracer.maxima),
        "phase_s": dict(tracer.phase_s),
        "covered_s": tracer.covered_s,
        "window_s": ep.wall_s,
        "scaled_s": sum(clock.scaled(ep.lap_s, ep.calib_s)),
    }


def _layer_metrics(snaps, reference_s, failed_frac) -> dict:
    def med(fn):
        return statistics.median(fn(s) for s in snaps)

    first = snaps[0]
    calls, counts = first["calls"], first["counts"]
    out = {
        name: (med(lambda s, spans=spans: sum(s["self_s"].get(n, 0.0) for n in spans)), "s")
        for name, spans in SELF_TIMES.items()
    }
    out["runs.other.self_s"] = (med(lambda s: s["window_s"] - s["covered_s"]), "s")
    out.update({
        "mesh.refine.leaves_added": (counts.get("mesh.refine.leaves_added", 0), "count"),
        "mesh.coarsen.families_merged": (counts.get("mesh.coarsen.families_merged", 0), "count"),
        "mesh.coarsen.merge_ratio": (_ratio(
            counts.get("mesh.coarsen.families_merged", 0),
            counts.get("mesh.coarsen.candidate_families", 0)), "ratio"),
        "mesh.enumerate_nodes.miss_ratio": (_ratio(
            counts.get("mesh.enumerate_nodes.misses", 0), calls.get("mesh.enumerate_nodes", 0)), "ratio"),
        "mesh.hanging_nodes": (counts.get("mesh.hanging_nodes", 0), "count"),
        "fem.solve_spd.calls": (calls.get("fem.solve_spd", 0), "count"),
        "fem.solve_spd.matvecs": (counts.get("fem.solve_spd.matvecs", 0), "count"),
        "restriction.apply_restriction.families": (counts.get("restriction.apply_restriction.families", 0), "count"),
        "models.newton_iters": (counts.get("models.newton_iters", 0), "count"),
        "models.splu.calls": (calls.get("models.splu", 0), "count"),
        "models.lu_nnz": (first["maxima"].get("models.lu_nnz", 0), "count"),
        "trace.coverage": (med(lambda s: _ratio(s["covered_s"], s["window_s"])), "frac"),
        "trace.overhead": (med(lambda s: s["scaled_s"]) / reference_s - 1.0, "frac"),
        "failed_frac": (failed_frac, "frac"),
    })
    return out


def _phase_lines(snap, timers) -> list:
    """Where the traced time went, by outermost span and layer, beside Timers."""
    lines = []
    if timers:
        lines.append("Timers " + " ".join(f"{k}={v}" for k, v in timers.items()))
    phases = {}
    for (phase, layer), s in snap["phase_s"].items():
        phases.setdefault(phase, {})[layer] = s
    for phase, layers in sorted(phases.items(), key=lambda kv: -sum(kv[1].values())):
        split = " ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        lines.append(f"phase {phase} {sum(layers.values()):.3f}s: {split}")
    top = sorted(snap["self_s"].items(), key=lambda kv: -kv[1])[:12]
    lines.append("top self " + " ".join(f"{k}={v:.3f}" for k, v in top))
    return lines


def run_traced(workload, seed: int, seconds: float) -> Outcome:
    start = time.perf_counter()
    gc.collect()
    reference = workload.episode(seed)
    tracer = Tracer()
    inst = instrument(tracer)
    episodes, snaps = [], []
    try:
        while len(episodes) < MIN_EPISODES or time.perf_counter() - start < seconds:
            gc.collect()
            tracer.reset()
            tracer.enabled = True
            try:
                ep = workload.episode(seed, tracer=tracer)
            finally:
                tracer.enabled = False
            episodes.append(ep)
            snaps.append(_snapshot(tracer, ep))
    finally:
        inst.uninstall()
    checks = _episode_checks([reference, *episodes], reference)
    for r, snap in enumerate(snaps[1:], start=1):
        same = all(snap[k] == snaps[0][k] for k in ("calls", "counts", "maxima"))
        checks.append((f"traced{r}.counts", same, "span calls and counters equal the first traced episode's"))
    attempted, failed = _tally([reference, *episodes], checks)
    reference_s = sum(clock.scaled(reference.lap_s, reference.calib_s))
    metrics = _layer_metrics(snaps, reference_s, _ratio(failed, attempted))
    lines = [f"reference episode {reference.wall_s:.3f}s untraced; traced {['%.3f' % e.wall_s for e in episodes]}"]
    lines += _phase_lines(snaps[0], episodes[0].timers)
    return Outcome(metrics, attempted, failed, checks, lines)
