"""Command-line entry point.

Subcommands mirror the experiments: ``demo1d``, ``mms``, ``spinodal``, and
``restriction dump``. Imports are deferred per subcommand so the quick
matrix dump does not pay for the solver stack, and SuperLU loads only with
the first Cahn-Hilliard factorisation, so ``mms`` and ``demo1d`` never load
it. Exit code 0 means every internal sanity assertion passed; 2 means bad
arguments, among them a ``--config`` that cannot be read, does not parse or
validate, or whose ``kind`` is not the subcommand.
"""
from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo1d", help="1D coarsening demo (three integrals)")
    p_demo.add_argument("--basis", choices=("linear", "quad"), default=None)
    p_demo.add_argument("--config", default=None)
    p_demo.add_argument("--out", default=None)

    p_mms = sub.add_parser("mms", help="manufactured-solution diffusion run")
    p_mms.add_argument("--config", required=True)
    p_mms.add_argument("--mode", choices=("injection", "conservative"), default=None)
    p_mms.add_argument("--out", default=None)

    p_sp = sub.add_parser("spinodal", help="Cahn-Hilliard spinodal decomposition")
    p_sp.add_argument("--config", required=True)
    p_sp.add_argument("--mode", choices=("injection", "conservative"), default=None)
    p_sp.add_argument("--out", default=None)

    p_rest = sub.add_parser("restriction", help="restriction-operator utilities")
    rest_sub = p_rest.add_subparsers(dest="action", required=True)
    p_dump = rest_sub.add_parser("dump", help="print the 1D restriction matrix")
    p_dump.add_argument("--p", type=int, required=True, choices=(1, 2))

    return parser


def _cmd_restriction_dump(args) -> int:
    from .restriction import restriction_matrix

    for row in restriction_matrix(args.p):
        print(" ".join(f"{v:.17g}" for v in row))
    return 0


def _cmd_demo1d(args, cfg) -> int:
    """Print the three integrals; the basis is ``--basis``, else the config's, else linear."""
    from .runs import emit_outputs, run_demo1d

    degree = {"linear": 1, "quad": 2}.get(args.basis, cfg.degree if cfg else 1)
    out_dir = args.out or (cfg.directory if cfg else None)
    report = run_demo1d(degree)
    print(f"original     {report['original']:.6f}")
    print(f"injection    {report['injection']:.6f}")
    print(f"conservative {report['conservative']:.6f}")
    if out_dir:
        emit_outputs(report, out_dir)
    if abs(report["conservative"] - report["original"]) > 1e-10:
        print("FAIL: conservative transfer changed the integral", file=sys.stderr)
        return 1
    return 0


def _run_modes(args, cfg, run, report) -> int:
    """Run the experiment once per transfer mode and write its outputs.

    ``--mode``, else the config's mode, "both" as conservative then
    injection. ``run(mode, out_dir)`` returns a run's result, and
    ``report(cfg, mode, result)`` prints it and says whether it passed.
    """
    from .runs import emit_outputs

    out_dir = args.out or cfg.directory
    modes = ("conservative", "injection") if cfg.mode == "both" else (cfg.mode,)
    ok = True
    for mode in (args.mode,) if args.mode else modes:
        result = run(mode, out_dir)
        emit_outputs(result, out_dir)
        ok = report(cfg, mode, result) and ok
    return 0 if ok else 1


def _report_mms(cfg, mode, result) -> bool:
    print(
        f"mms level={cfg.level} p={cfg.degree} mode={mode} "
        f"l2_error={result.l2_error:.6e} drift={result.mass_drift_final:.3e}"
    )
    return result.l2_error < 1.0


def _report_spinodal(cfg, mode, result) -> bool:
    print(
        f"spinodal mode={mode} max|dm|={result.max_abs_drift:.3e} "
        f"events={len(result.delta_e_events)} completed={result.completed}"
    )
    if not result.completed:
        print(f"FAIL: {result.failure}", file=sys.stderr)
    return result.completed


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "restriction":
        return _cmd_restriction_dump(args)
    cfg = None
    if args.config:
        from .config import parse_config

        try:
            cfg = parse_config(args.config)
        except (ValueError, OSError) as exc:
            parser.error(f"--config {args.config}: {exc}")
        if cfg.kind != args.command:
            parser.error(f"--config {args.config} describes a {cfg.kind} run, not {args.command}")
    if args.command == "demo1d":
        return _cmd_demo1d(args, cfg)
    from . import runs

    if args.command == "mms":
        return _run_modes(args, cfg, lambda mode, _: runs.run_mms(cfg, mode), _report_mms)
    return _run_modes(
        args, cfg, lambda mode, out_dir: runs.run_spinodal(cfg, mode, out_dir), _report_spinodal
    )


if __name__ == "__main__":
    sys.exit(main())
