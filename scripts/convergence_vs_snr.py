#!/usr/bin/env python3
"""Convergence-cost sweep: mean alternating-LS iteration count and wall-clock
time per estimate across the SNR grid, plus the per-iteration flop estimate.

Example:
    python3 scripts/convergence_vs_snr.py --trials 200 --out results/convergence
"""

import argparse
import dataclasses
import sys

from dmasim.campaign import run_campaign
from dmasim.config import ExperimentConfig, coerce_value
from dmasim.receiver import flop_estimate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/convergence")
    parser.add_argument("--snr", default="0:5:30")
    args = parser.parse_args(argv)

    cfg = dataclasses.replace(
        ExperimentConfig(),
        trials=args.trials,
        seed=args.seed,
        snr_grid_db=coerce_value("snr_grid_db", args.snr),
        timing=True,
    )
    rows = run_campaign(cfg, out_dir=args.out)

    flops = flop_estimate(cfg.K, cfg.T, cfg.P, cfg.N)
    print(f"complex multiplies per iteration (order estimate): {flops}")
    print(f"{'snr_db':>7} {'mean_iters':>11} {'mean_runtime_s':>15} {'est_Mflops':>11}")
    for row in rows:
        print(
            f"{row.snr_db:7.1f} {row.mean_iters:11.2f} "
            f"{row.mean_runtime_s:15.6f} {row.mean_iters * flops / 1e6:11.2f}"
        )
    base = rows[0].mean_iters
    high = [r.mean_iters for r in rows if r.snr_db >= 15.0]
    if high and base > 0:
        print(
            f"iteration-count ratio (>=15 dB vs 0 dB): "
            f"{sum(high) / len(high) / base:.3f}"
        )
    print(f"wrote {args.out}/results.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
