"""One benchmark process: set up a workload through the public API, run it,
print ``READY <unix time>`` when set-up ends and one JSON object when the
run ends.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count pinned and ``src`` on the import path.  Modes:

* ``setup``: stop after set-up (a set-up time sample).
* ``measure``: run the workload again and again, tracing off, until the
  next pass would likely end well past ``--seconds``.
* ``trace``: one pass tracing off, then one pass tracing on.
* ``rows``: one pass, printing its rows (used to write references).

Every campaign writes ``results.csv`` and ``summary.json`` into a temporary
directory inside the checkout, removed right after.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import dmasim
from dmasim import benchmarks, campaign, config, metrics, receiver

import science
from tracer import SpanStats, Tracer
from workloads import (
    BLAS_THREAD_ENV,
    DESK_CONFIG,
    NPROC,
    REFERENCE_SEEDS,
    SMOKE_TRIALS,
    WORKLOADS,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _observe_pinv(counts, args, kwargs, result):
    _add(counts, "bytes_in", args[0].nbytes)


def _observe_khatri_rao(counts, args, kwargs, result):
    _add(counts, "bytes_out", result.nbytes)


def _observe_bals(counts, args, kwargs, result):
    cfg = kwargs.get("cfg") or receiver.BalsConfig()
    iterations = len(result.residuals)
    _add(counts, "iterations", iterations)
    _add(counts, "converged", int(result.converged))
    _add(counts, "max_iters_hit", int(iterations >= cfg.max_iters and not result.converged))


# (module, attribute, span[, observer]): each name is patched where it is
# called, since the calling module bound it at import.
SPANS = [
    (campaign, "run_trial", "campaign.run_trial"),
    (campaign, "_aggregate", "campaign.aggregate"),
    (campaign, "write_results_csv", "campaign.io"),
    (campaign, "write_summary_json", "campaign.io"),
    *((campaign, name, "channels") for name in (
        "gen_wireless", "gen_inner_random_phase", "gen_inner_physical",
        "gen_qam", "gen_pilots", "gen_lorentzian_training", "gen_dft_training",
    )),
    (metrics, "qam_demap", "channels"),
    (campaign, "build_rank_one", "signals.build"),
    (campaign, "build_noiseless", "signals.build"),
    (benchmarks, "build_rank_one", "signals.build"),
    (campaign, "add_noise", "signals.noise"),
    (campaign, "two_stage_estimate", "receiver.two_stage_estimate"),
    (receiver, "bals", "receiver.bals", _observe_bals),
    (receiver, "pinv", "tensor_ops.pinv", _observe_pinv),
    (receiver, "khatri_rao", "tensor_ops.khatri_rao", _observe_khatri_rao),
    (benchmarks, "khatri_rao", "tensor_ops.khatri_rao", _observe_khatri_rao),
    (receiver, "rank1_factorize", "receiver.rank1_factorize"),
    (benchmarks, "rank1_factorize", "receiver.rank1_factorize"),
    (receiver, "remove_ambiguity", "receiver.remove_ambiguity"),
    (benchmarks, "remove_ambiguity", "receiver.remove_ambiguity"),
    (campaign, "data_aided_estimate", "benchmarks.estimate"),
    (campaign, "pilot_aided_estimate", "benchmarks.estimate"),
    *((benchmarks, name, "benchmarks.matched_filter") for name in (
        "semi_unitary_h", "semi_unitary_x", "pilot_aided_h", "pilot_aided_m",
    )),
    (benchmarks, "oracle_weights", "benchmarks.oracle_weights"),
    *((campaign, name, "metrics") for name in ("diagonal_fit", "nmse", "ser")),
]
# Spans that run inside a trial; they are unmeasured when trials run in
# other processes, which the run_trial call count reveals.
TRIAL_SPANS = {entry[2] for entry in SPANS} - {"campaign.aggregate", "campaign.io"}


def load_workload(name: str, seed: int, trials: int | None) -> list:
    base, _ = config.load_config_file(os.path.join(ROOT, DESK_CONFIG))
    cfgs = []
    for overrides in WORKLOADS[name]:
        overrides = {**overrides, "seed": seed}
        if trials is not None:
            overrides["trials"] = trials
        cfg = dataclasses.replace(base, **overrides)
        config.validate_config(cfg)
        cfgs.append(cfg)
    return cfgs


def attempted(cfgs: list) -> int:
    return sum(cfg.trials * len(campaign.snr_grid(cfg)) for cfg in cfgs)


def run_pass(cfgs: list) -> tuple[list, list]:
    """Run each campaign once; return its rows and ``run_campaign`` wall time."""
    rows, walls = [], []
    for cfg in cfgs:
        out_dir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
        try:
            t0 = time.perf_counter()
            result = campaign.run_campaign(cfg, out_dir=out_dir)
            walls.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(out_dir)
        rows.append([science.row_dict(row) for row in result])
    return rows, walls


def failed_trials(passes: list) -> int:
    return sum(row["failed"] for rows in passes for camp in rows for row in camp)


def check_science(workload: str, seed: int, cfgs: list, passes: list) -> dict:
    """Check every pass against the workload's invariants and the first
    pass against its committed reference.  For a seed without a reference,
    an extra smoke-sized pass at the default seed is checked instead."""
    info = [
        {
            "trials": cfg.trials,
            "max_iters": cfg.max_iters,
            "pilot_aided": cfg.receiver == "bench-pilot-aided",
        }
        for cfg in cfgs
    ]
    problems = []
    for i, rows in enumerate(passes):
        problems += science.invariants(rows, info)
        if rows != passes[0]:
            problems.append(f"pass {i} rows differ from pass 0")
    refs = science.load_references(workload)
    key = science.reference_key(seed, cfgs[0].trials)
    if key in refs:
        rows = passes[0]
    else:
        key = science.reference_key(REFERENCE_SEEDS[0], SMOKE_TRIALS)
        rows, _ = run_pass(load_workload(workload, REFERENCE_SEEDS[0], SMOKE_TRIALS))
    if key in refs:
        problems += science.compare(rows, refs[key])
    else:
        problems.append(f"no reference {key} for {workload}")
    return {"reference": key, "problems": problems}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; CHILDREN covers worker processes.
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, cfgs: list, traced_walls: list, untraced_walls: list,
    load_s: float,
) -> dict:
    """Per-layer metrics of the traced pass, each as ``{"value", "unit"}``.

    A metric reads None when its layer ran outside this process or none of
    its wrappers could be installed.  A ratio whose base is 0 (e.g. ms per
    ALS iteration on a workload without ALS) reads 0, next to its base.
    """
    stats = tracer.totals()
    in_process = stats.get("campaign.run_trial", SpanStats()).calls == attempted(cfgs)
    capacity = sum(wall * cfg.threads for wall, cfg in zip(traced_walls, cfgs))
    overhead = sum(traced_walls) - sum(untraced_walls)

    def self_s(st):
        return st.self_s

    def calls(st):
        return st.calls

    def count(key, scale=1):
        return lambda st: st.counts.get(key, 0) * scale

    def trial_ms(q):
        return lambda st: _percentile([d * 1e3 for d in st.durations_s], q)

    by_span = {  # metric: (unit, span, value from the span's counters)
        "channels.self_s": ("s", "channels", self_s),
        "channels.calls": ("count", "channels", calls),
        "signals.build_s": ("s", "signals.build", self_s),
        "signals.noise_s": ("s", "signals.noise", self_s),
        "tensor_ops.pinv.calls": ("count", "tensor_ops.pinv", calls),
        "tensor_ops.pinv.self_s": ("s", "tensor_ops.pinv", self_s),
        "tensor_ops.pinv.us_per_call": (
            "us", "tensor_ops.pinv", lambda st: _ratio(st.self_s * 1e6, st.calls)),
        "tensor_ops.pinv.mb_in_computed": ("MB", "tensor_ops.pinv", count("bytes_in", 1e-6)),
        "tensor_ops.khatri_rao.calls": ("count", "tensor_ops.khatri_rao", calls),
        "tensor_ops.khatri_rao.self_s": ("s", "tensor_ops.khatri_rao", self_s),
        "tensor_ops.khatri_rao.mb_out_computed": (
            "MB", "tensor_ops.khatri_rao", count("bytes_out", 1e-6)),
        "receiver.bals.self_s": ("s", "receiver.bals", self_s),
        "receiver.bals.iterations": ("count", "receiver.bals", count("iterations")),
        "receiver.bals.ms_per_iter": (
            "ms", "receiver.bals",
            lambda st: _ratio(st.inclusive_s * 1e3, st.counts.get("iterations", 0))),
        "receiver.bals.max_iters_hit": ("count", "receiver.bals", count("max_iters_hit")),
        "receiver.bals.converged_ratio": (
            "ratio", "receiver.bals", lambda st: _ratio(st.counts.get("converged", 0), st.calls)),
        "receiver.rank1_factorize.self_s": ("s", "receiver.rank1_factorize", self_s),
        "receiver.remove_ambiguity.self_s": ("s", "receiver.remove_ambiguity", self_s),
        "receiver.two_stage_estimate.self_s": ("s", "receiver.two_stage_estimate", self_s),
        "benchmarks.estimate.self_s": ("s", "benchmarks.estimate", self_s),
        "benchmarks.matched_filter.self_s": ("s", "benchmarks.matched_filter", self_s),
        "benchmarks.oracle_weights.self_s": ("s", "benchmarks.oracle_weights", self_s),
        "metrics.self_s": ("s", "metrics", self_s),
        "campaign.run_trial.self_s": ("s", "campaign.run_trial", self_s),
        "campaign.run_trial.calls": ("count", "campaign.run_trial", calls),
        "campaign.trial_ms_p50": ("ms", "campaign.run_trial", trial_ms(50)),
        "campaign.trial_ms_p99": ("ms", "campaign.run_trial", trial_ms(99)),
        "campaign.aggregate_s": ("s", "campaign.aggregate", lambda st: st.inclusive_s),
        "campaign.io_s": ("s", "campaign.io", lambda st: st.inclusive_s),
        "campaign.pool_busy_ratio": (
            "ratio", "campaign.run_trial", lambda st: _ratio(st.inclusive_s, capacity)),
    }
    out = {"config.load_s": {"value": load_s, "unit": "s"}}
    for name, (unit, span, value) in by_span.items():
        unmeasured = span not in tracer.installed or (span in TRIAL_SPANS and not in_process)
        out[name] = {
            "value": None if unmeasured else value(stats.get(span, SpanStats())),
            "unit": unit,
        }
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.overhead_ratio"] = {"value": _ratio(overhead, sum(untraced_walls)), "unit": "ratio"}
    return out


def environment(cfgs: list) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "config_sha": [config.config_sha(cfg) for cfg in cfgs],
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_ENV},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "rows"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trials", type=int, default=None)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(dmasim.__file__).startswith(src):
        print(f"dmasim imported from {dmasim.__file__}, not from {src}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    cfgs = load_workload(args.workload, args.seed, args.trials)
    load_s = time.perf_counter() - t0
    print(f"READY {time.time()!r}", flush=True)
    if args.mode == "setup":
        return 0

    out = {"environment": environment(cfgs)}
    if args.mode == "rows":
        out["trials"] = cfgs[0].trials
        out["rows"], _ = run_pass(cfgs)
    elif args.mode == "measure":
        passes, rates = [], []
        start = time.perf_counter()
        while True:
            rows, walls = run_pass(cfgs)
            passes.append(rows)
            rates.append(attempted(cfgs) / sum(walls))
            elapsed = time.perf_counter() - start
            # Start another pass only while more than half a pass is left.
            if elapsed * (1.0 + 0.5 / len(passes)) >= args.seconds:
                break
        out.update(
            trials_per_s=statistics.median(rates),
            pass_trials_per_s=rates,
            peak_rss_mb=peak_rss_mb(),
            attempted=attempted(cfgs) * len(passes),
            failed=failed_trials(passes),
            rows=passes[0],
            science=check_science(args.workload, args.seed, cfgs, passes),
        )
    else:
        untraced_rows, untraced_walls = run_pass(cfgs)
        tracer = Tracer()
        for entry in SPANS:
            tracer.patch(*entry)
        try:
            traced_rows, traced_walls = run_pass(cfgs)
        finally:
            tracer.restore()
        passes = [untraced_rows, traced_rows]
        out.update(
            layers=layer_metrics(tracer, cfgs, traced_walls, untraced_walls, load_s),
            unpatched=tracer.missing,
            attempted=attempted(cfgs) * len(passes),
            failed=failed_trials(passes),
            rows=untraced_rows,
            traced_rows=traced_rows,
            science=check_science(args.workload, args.seed, cfgs, passes),
        )
    print(json.dumps(out, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
