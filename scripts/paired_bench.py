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


def bench_run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its JSON result line."""
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
    args = parser.parse_args(argv)
    args.parent, args.change = map(os.path.abspath, (args.parent, args.change))

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: bench_run(getattr(args, side), workload, seed, args.seconds)
                    for side in order}
            pairs.append((pair["parent"], pair["change"]))
            print(f"# {workload} seed={seed} first={order[0]} "
                  + json.dumps({side: pair[side]["metrics"] for side in order}),
                  flush=True)
        report(workload, benchmark["end_to_end"], pairs)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
