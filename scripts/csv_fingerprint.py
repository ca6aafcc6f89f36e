#!/usr/bin/env python3
"""Fingerprint the benchmark's science: the sha256 of ``render_csv`` for
every campaign of every workload in ``bench/workloads.py``, at each seed.

A change that must leave the science bitwise unchanged prints the same
lines before and after it, so two checkouts compare with one ``diff``:

    python3 scripts/csv_fingerprint.py --seeds 0 1 > after.txt

Each campaign is the committed desk config plus the workload's overrides
and the seed, run with ``timing = false`` so that the CSV holds no wall
clock.  The checkout's own ``src/`` is imported, whatever ``PYTHONPATH``
says.
"""

import argparse
import dataclasses
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # read bench/ without leaving a cache in it
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from dmasim.campaign import render_csv, run_campaign  # noqa: E402
from dmasim.config import load_config_file  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)

    base, _ = load_config_file(os.path.join(ROOT, workloads.DESK_CONFIG))
    for name, campaigns in workloads.WORKLOADS.items():
        for seed in args.seeds:
            for index, overrides in enumerate(campaigns):
                cfg = dataclasses.replace(base, **overrides, seed=seed, timing=False)
                csv = render_csv(run_campaign(cfg), cfg)
                digest = hashlib.sha256(csv.encode()).hexdigest()
                print(f"{name} seed={seed} campaign={index} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
