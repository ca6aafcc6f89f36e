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
A last line per metric says whether a claimed gain would be met: at least
ten pairs, the change better in at least nine pairs of ten (a tie counts
for neither side), and its median better than the parent's by more than
the parent's own interquartile range.

Only ``bench/run.py`` writes anything, as it does when run by hand.
``--seeds`` takes a comma list of seeds and ``a-b`` ranges (``0-9,42``).

``--cpu`` measures CPU time instead, which host drift disturbs far less
than wall time, and runs both sides in this one process: separate
interpreters start too differently to resolve a few per cent.  Each
checkout's ``src/dmasim`` is imported under a package name of its own
(``dmasim_parent``, ``dmasim_change``), after BLAS is pinned to one thread
as its ``bench/workloads.py`` says and before numpy loads.  A run is one
pass of the workload's campaigns, reported as trials per CPU second
(``time.process_time()`` around each ``run_campaign``); the two runs of a
pair go back to back, and ``--seconds`` is unused.  One untimed pair per
workload warms both sides first.  Passing one checkout as both sides
shows the method's noise floor.

Under ``--cpu`` a pair counts as correct when ``compare`` from the change
checkout's ``bench/science.py`` finds no difference between the two
sides' campaign rows.  That is the rule ``bench/run.py`` gates on:
iteration means, SER, trials and failures exact, NMSE within its
``NMSE_TOL_DB``.  A change that moves NMSE only at roundoff reads correct;
byte identity is the check of ``scripts/csv_fingerprint.py``.  A pair
that differs prints its first difference.
"""

import argparse
import dataclasses
import functools
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


# Fewest pairs on which a claimed gain can be met.
MIN_PAIRS = 10
CPU_METRICS = [{"name": "cpu_trials_per_s", "unit": "trials/CPU s", "better": "higher"}]


def _import_file(name: str, path: str, search: list[str] | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=search
    )
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cpu_runner(checkout: str, side: str):
    """A function ``(workload, seed) -> result`` that runs one pass of the
    workload's campaigns with ``checkout``'s own code, imported here as
    ``dmasim_<side>``, and returns its trials per CPU second and, per
    campaign, its rows as the checkout's ``science.row_dict``s."""
    sys.dont_write_bytecode = True  # leave no cache in either checkout
    workloads = _import_file(
        f"workloads_{side}", os.path.join(checkout, "bench", "workloads.py")
    )
    os.environ.update(workloads.BLAS_THREAD_ENV)  # before numpy first loads
    science = _import_file(
        f"science_{side}", os.path.join(checkout, "bench", "science.py")
    )
    package = os.path.join(checkout, "src", "dmasim")
    _import_file(f"dmasim_{side}", os.path.join(package, "__init__.py"), [package])
    campaign = importlib.import_module(f"dmasim_{side}.campaign")
    config = importlib.import_module(f"dmasim_{side}.config")
    base, _ = config.load_config_file(os.path.join(checkout, workloads.DESK_CONFIG))

    def run(workload: str, seed: int) -> dict:
        trials = failed = cpu_s = 0
        science_rows = []
        for overrides in workloads.WORKLOADS[workload]:
            cfg = dataclasses.replace(base, **overrides, seed=seed)
            t0 = time.process_time()
            rows = campaign.run_campaign(cfg)
            cpu_s += time.process_time() - t0
            trials += cfg.trials * len(campaign.snr_grid(cfg))
            failed += sum(row.failed for row in rows)
            science_rows.append([science.row_dict(row) for row in rows])
        return {"failed": failed, "rows": science_rows,
                "metrics": {"cpu_trials_per_s": {"value": trials / cpu_s}}}

    return run


def judge(pair: dict, compare) -> list[str]:
    """Mark both runs of a ``--cpu`` pair correct when ``compare(change rows,
    parent rows)`` finds no difference; return the differences."""
    problems = compare(pair["change"]["rows"], pair["parent"]["rows"])
    for run in pair.values():
        run["correct"] = not problems
    return problems


def bench_lines(checkout: str, workload: str, seed: int, *flags: str) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``checkout``: its report and result lines."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"(exit {out.returncode}): {out.stderr.strip()}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def bench_run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``checkout``; its result line."""
    return bench_lines(checkout, workload, seed, "--seconds", str(seconds))[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def claim_verdict(parent: list[float], change: list[float], higher: bool) -> str:
    """Whether the pairs ``(parent[i], change[i])`` meet the rule for a
    claimed gain, with the counts behind the verdict."""
    sign = 1.0 if higher else -1.0
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - median)
    met = len(parent) >= MIN_PAIRS and 10 * won >= 9 * len(parent) and gap > q3 - q1
    return (f"claim {'met' if met else 'not met'}: change better in "
            f"{won}/{len(parent)} pairs (9 in 10 of at least {MIN_PAIRS} "
            f"needed), median gap "
            f"{gap:.4g} against the parent's IQR {q3 - q1:.4g}")


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
        print("    " + claim_verdict(side["parent"], side["change"], higher))


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
    if args.cpu:
        runners = {side: cpu_runner(getattr(args, side), side)
                   for side in ("parent", "change")}
        compare = _import_file(
            "science_judge", os.path.join(args.change, "bench", "science.py")
        ).compare
    else:
        runners = {side: functools.partial(bench_run, getattr(args, side),
                                           seconds=args.seconds)
                   for side in ("parent", "change")}
    for workload in workloads:
        if args.cpu:
            for run in runners.values():
                run(workload, args.seeds[0])  # warm-up, untimed
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: runners[side](workload, seed) for side in order}
            if args.cpu and (problems := judge(pair, compare)):
                print(f"# {workload} seed={seed} science: {problems[0]} "
                      f"({len(problems)} differences)", flush=True)
            pairs.append((pair["parent"], pair["change"]))
            print(f"# {workload} seed={seed} first={order[0]} "
                  + json.dumps({side: pair[side]["metrics"] for side in order}),
                  flush=True)
        report(workload, metrics, pairs)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
