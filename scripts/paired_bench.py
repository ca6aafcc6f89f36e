#!/usr/bin/env python3
"""Compare two checkouts on the benchmark by paired, interleaved runs.

    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR \\
        --workload desk-proposed --seeds 0-9

For every seed it runs each checkout's own ``bench/run.py`` once, back to
back, and alternates which checkout goes first (the parent on even pair
numbers).  The host's speed drifts between runs minutes apart, so the
ratio of the two runs of one pair carries the change better than either
side's spread.  Per workload it prints, for every end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles, the median
and interquartile range of the change/parent ratios, and in how many
pairs the change came out better.  Each pair is also printed as it ends.

Only ``bench/run.py`` writes anything, as it does when run by hand.
``--seeds`` takes a comma list of seeds and ``a-b`` ranges (``0-9,42``).

``--cpu`` measures CPU time instead, which host drift disturbs far less
than wall time.  Each run is then one pass of the workload's campaigns in
a fresh interpreter that imports its checkout's own ``src/``, pins BLAS to
one thread as ``bench/workloads.py`` says and reports trials per CPU second
(``time.process_time()`` around each ``run_campaign``); ``--seconds`` is
unused.  A pair counts as correct when both sides' CSVs hash the same.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


# One --cpu run: argv is the checkout, the workload and the seed.
_CPU_CHILD = """
import dataclasses, hashlib, json, os, sys, time
sys.dont_write_bytecode = True
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import workloads
os.environ.update(workloads.BLAS_THREAD_ENV)  # before numpy loads
from dmasim.campaign import render_csv, run_campaign, snr_grid
from dmasim.config import load_config_file
base, _ = load_config_file(os.path.join(root, workloads.DESK_CONFIG))
trials = failed = cpu_s = 0
csv = hashlib.sha256()
for overrides in workloads.WORKLOADS[workload]:
    cfg = dataclasses.replace(base, **overrides, seed=seed)
    t0 = time.process_time()
    rows = run_campaign(cfg)
    cpu_s += time.process_time() - t0
    trials += cfg.trials * len(snr_grid(cfg))
    failed += sum(row.failed for row in rows)
    csv.update(render_csv(rows, cfg).encode())
print(json.dumps({"failed": failed, "csv_sha256": csv.hexdigest(),
                  "metrics": {"cpu_trials_per_s": {"value": trials / cpu_s}}}))
"""
CPU_METRICS = [{"name": "cpu_trials_per_s", "unit": "trials/CPU s", "better": "higher"}]


def bench_run(checkout: str, workload: str, seed: int, seconds: float, cpu: bool) -> dict:
    """One ``bench/run.py`` run in ``checkout``, or with ``cpu`` one
    ``_CPU_CHILD`` pass; its JSON result line."""
    if cpu:
        cmd = [sys.executable, "-c", _CPU_CHILD, checkout, workload, str(seed)]
    else:
        cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"(exit {out.returncode}): {out.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, metrics: list[dict], pairs: list[tuple[dict, dict]]) -> None:
    runs = [run for pair in pairs for run in pair]
    print(f"{workload}: {len(pairs)} pairs, science correct in "
          f"{sum(run['correct'] for run in runs)}/{len(runs)} runs, "
          f"{sum(run['failed'] for run in runs)} failed trials")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {
            label: [run["metrics"][name]["value"] for run in column]
            for label, column in zip(("parent", "change"), zip(*pairs))
        }
        ratios = [c / p for p, c in zip(side["parent"], side["change"])]
        won = sum(r > 1.0 if higher else r < 1.0 for r in ratios)
        cells = []
        for label, values in side.items():
            q1, q2, q3 = quartiles(values)
            cells.append(f"{label} {q2:.4g} [{q1:.4g}, {q3:.4g}] (IQR {q3 - q1:.3g})")
        q1, q2, q3 = quartiles(ratios)
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
              + "; ".join(cells)
              + f"; change/parent {q2:.4f} [{q1:.4f}, {q3:.4f}] (IQR {q3 - q1:.4f}),"
              f" change better in {won}/{len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default: every workload")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--cpu", action="store_true",
                        help="compare trials per CPU second, one pass per run")
    args = parser.parse_args(argv)
    args.parent, args.change = map(os.path.abspath, (args.parent, args.change))

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = CPU_METRICS if args.cpu else benchmark["end_to_end"]
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: bench_run(getattr(args, side), workload, seed,
                                    args.seconds, args.cpu)
                    for side in order}
            if args.cpu:
                same = pair["parent"]["csv_sha256"] == pair["change"]["csv_sha256"]
                for run in pair.values():
                    run["correct"] = same
            pairs.append((pair["parent"], pair["change"]))
            print(f"# {workload} seed={seed} first={order[0]} "
                  + json.dumps({side: pair[side]["metrics"] for side in order}),
                  flush=True)
        report(workload, metrics, pairs)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
