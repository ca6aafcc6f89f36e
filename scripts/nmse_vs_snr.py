#!/usr/bin/env python3
"""Estimation-error sweep: the iterative receiver against both closed-form
references on paired channel/noise draws, one CSV per receiver.

Example:
    python3 scripts/nmse_vs_snr.py --trials 200 --out results/nmse
"""

import argparse
import dataclasses
import sys

from dmasim.campaign import run_campaign
from dmasim.config import ExperimentConfig

RECEIVERS = (
    ("proposed", "lorentzian"),
    ("bench-data-aided", "semi-unitary-dft"),
    ("bench-pilot-aided", "semi-unitary-dft"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/nmse")
    parser.add_argument(
        "--snr", default="0:5:30", help="grid as start:step:stop or comma list"
    )
    args = parser.parse_args(argv)

    from dmasim.config import coerce_value

    grid = coerce_value("snr_grid_db", args.snr)
    base = dataclasses.replace(
        ExperimentConfig(),
        trials=args.trials,
        seed=args.seed,
        snr_grid_db=grid,
        timing=False,
    )

    curves = {}
    for receiver, training in RECEIVERS:
        cfg = dataclasses.replace(base, receiver=receiver, training=training)
        rows = run_campaign(cfg, out_dir=f"{args.out}/{receiver}")
        curves[receiver] = rows
        print(f"{receiver}: wrote {args.out}/{receiver}/results.csv")

    print(f"\n{'snr_db':>7}", end="")
    for receiver, _ in RECEIVERS:
        print(f"  {receiver + ' H':>22}  {receiver + ' m':>22}", end="")
    print()
    for i, snr in enumerate(grid):
        print(f"{snr:7.1f}", end="")
        for receiver, _ in RECEIVERS:
            row = curves[receiver][i]
            print(f"  {row.nmse_h_db:22.2f}  {row.nmse_m_db:22.2f}", end="")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
