"""Command-line interface.

Subcommands:

* ``run <config>``      — run the campaign, write results.csv + summary.json
* ``validate <config>`` — parse, validate, and report identifiability
* ``sweep <config>``    — run one campaign per point of the declared grid

Exit codes: 0 success, 2 usage (argparse), 3 configuration error, 4 I/O
error, 5 estimation failure.  Errors print one JSON object to stderr:
``{"error": <category>, "detail": <message>}``.
"""

import argparse
import dataclasses
import itertools
import json
import sys

from .campaign import _strict, run_campaign, snr_grid
from .config import ConfigError, load_config_file, validate_config
from .receiver import EstimationError
from .signals import identifiability_preflight

EXIT_CONFIG = 3
EXIT_IO = 4
EXIT_ESTIMATION = 5


def _fail(category: str, detail: str, code: int) -> int:
    print(json.dumps({"error": category, "detail": detail}), file=sys.stderr)
    return code


def _apply_overrides(cfg, args):
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.noiseless:
        updates["noiseless"] = True
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
        validate_config(cfg)
    return cfg


def _cmd_run(args) -> int:
    cfg, _ = load_config_file(args.config)
    cfg = _apply_overrides(cfg, args)
    for warning in validate_config(cfg):
        print(f"warning: {warning}", file=sys.stderr)
    rows = run_campaign(cfg, out_dir=args.out)
    for row in rows:
        print(
            f"snr={row.snr_db:g} dB  nmse_H={row.nmse_h_db:.2f} dB  "
            f"nmse_m={row.nmse_m_db:.2f} dB  ser={row.ser:.3g}  "
            f"iters={row.mean_iters:.1f}  trials={row.trials}  failed={row.failed}"
        )
    print(f"wrote {args.out}/results.csv and {args.out}/summary.json")
    return 0


def _cmd_validate(args) -> int:
    cfg, sweeps = load_config_file(args.config)
    cfg = _apply_overrides(cfg, args)
    warnings = validate_config(cfg)
    for tag, _, point_warnings in _sweep_points(cfg, sweeps):
        warnings += [f"{tag}: {warning}" for warning in point_warnings]
    pre = identifiability_preflight(cfg.K, cfg.T, cfg.P, cfg.N)
    report = _strict({
        "config_ok": True,
        "kruskal_ok": pre.kruskal_ok,
        "relaxed_ok": pre.relaxed_ok,
        "p_ge_n": pre.p_ge_n,
        "kruskal_bound": f"{pre.kruskal_lhs} >= {pre.kruskal_rhs}",
        "relaxed_bound": f"{pre.relaxed_lhs} >= {pre.relaxed_rhs}",
        "snr_grid_db": list(snr_grid(cfg)),
        "sweep_grids": {k: list(v) for k, v in sweeps.items()},
        "warnings": warnings,
    })
    if not pre.kruskal_ok:
        report["warnings"] = warnings + [
            "k-rank uniqueness bound not met; relying on the relaxed generic bound"
        ]
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    return 0


def _sweep_points(cfg, sweeps) -> list:
    """Validated (tag, config, advisory warnings) for every point of the
    declared grid."""
    names = sorted(sweeps)
    points = []
    for combo in itertools.product(*(sweeps[name] for name in names)):
        sub = dataclasses.replace(cfg, **dict(zip(names, combo)))
        tag = "_".join(f"{k}={v}" for k, v in zip(names, combo))
        points.append((tag, sub, validate_config(sub)))
    return points


def _cmd_sweep(args) -> int:
    cfg, sweeps = load_config_file(args.config)
    cfg = _apply_overrides(cfg, args)
    if not sweeps:
        return _fail(
            "config", "sweep requires at least one sweep_<field> key", EXIT_CONFIG
        )
    points = _sweep_points(cfg, sweeps)
    for tag, _, point_warnings in points:
        for warning in point_warnings:
            print(f"warning: {tag}: {warning}", file=sys.stderr)
    for tag, sub, _ in points:
        out_dir = f"{args.out}/{tag}"
        run_campaign(sub, out_dir=out_dir)
        print(f"wrote {out_dir}/results.csv")
    print(f"swept {len(points)} configurations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmasim",
        description="Monte Carlo campaigns for semi-blind channel/symbol estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=False):
        p.add_argument("config", help="flat key-value config file")
        if needs_out:
            p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument(
            "--threads", type=int, default=None, help="override worker threads"
        )
        p.add_argument(
            "--noiseless", action="store_true", help="single noise-free point"
        )

    p_run = sub.add_parser("run", help="run one campaign")
    common(p_run, needs_out=True)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config and identifiability")
    common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run campaigns over a declared grid")
    common(p_sweep, needs_out=True)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    except EstimationError as exc:
        return _fail("estimation", str(exc), EXIT_ESTIMATION)


if __name__ == "__main__":
    sys.exit(main())
