#!/usr/bin/env python3
"""Fingerprint the benchmark's science: the sha256 of ``render_csv`` and of
``summary_dict`` for every campaign of every workload in
``bench/workloads.py``, at each seed.

A change that must leave the science bitwise unchanged prints the same
lines before and after it, so two checkouts compare with one ``diff``:

    python3 scripts/csv_fingerprint.py --seeds 0 1 > after.txt

Each campaign is the committed desk config plus the workload's overrides
and the seed, run with ``timing = false`` so that the CSV holds no wall
clock.  The summary is hashed in ``write_summary_json``'s JSON layout, less
its one wall-clock field, ``rows[].mean_runtime_s``.  The checkout's own
``src/`` is imported, whatever ``PYTHONPATH`` says.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # read bench/ without leaving a cache in it
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from dmasim.campaign import render_csv, run_campaign, summary_dict  # noqa: E402
from dmasim.config import load_config_file  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _summary_text(rows, cfg) -> str:
    summary = summary_dict(rows, cfg)
    for row in summary["rows"]:
        del row["mean_runtime_s"]
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)


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
                rows = run_campaign(cfg)
                tag = f"{name} seed={seed} campaign={index}"
                print(f"{tag} {_sha256(render_csv(rows, cfg))}")
                print(f"{tag} summary {_sha256(_summary_text(rows, cfg))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
