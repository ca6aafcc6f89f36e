#!/usr/bin/env python3
"""Record one checkout's benchmark numbers as ``BENCH_<short-sha>.json``.

    python3 scripts/record_bench.py [CHECKOUT] --out-dir .

For every workload that the checkout's ``BENCHMARK.json`` declares it runs
the checkout's own ``bench/run.py`` once per seed 0-9, for the benchmark's
``run_seconds``, and keeps, per end-to-end metric, the median, quartiles
and IQR over the seeds with each seed's value, plus the counts of correct
runs and failed trials.  It adds
the trials per CPU second of one pass per seed, run in this process by
``paired_bench.cpu_runner`` after one untimed warm-up pass, and the
per-layer values of one ``bench/run.py --trace 1`` run at the first seed.
The machine facts come from that run's report line: nproc, Python, numpy,
BLAS name and version, the BLAS thread environment, the git sha and the
sha256 of ``src/``.  Last, it runs the checkout's reference campaign
(``configs/reference.cfg``, with ``timing = false``) once through its own
CLI, in a fresh interpreter with BLAS pinned as the checkout's
``bench/workloads.py`` says, and keeps that process's wall and CPU
seconds, its own peak RSS, the failed trials and the sha256 of its CSV.

``CHECKOUT`` defaults to the repository holding this script; it must be
a git checkout, since the file is named after its sha.  Only the output
file is written; ``bench/`` is only read.
"""

import argparse
import csv
import datetime
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no cache in scripts/ or the checkout
_spec = importlib.util.spec_from_file_location(
    "paired_bench", os.path.join(HERE, "paired_bench.py")
)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

SEEDS = list(range(10))
REFERENCE_CONFIG = os.path.join("configs", "reference.cfg")


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of ``values``, which are kept in order."""
    q1, median, q3 = paired_bench.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def spreads(results: list[dict], metrics: list[dict]) -> dict:
    """Each metric's unit, direction and spread over result lines."""
    return {
        m["name"]: {"unit": m["unit"], "better": m["better"],
                    **spread([r["metrics"][m["name"]]["value"] for r in results])}
        for m in metrics
    }


def summarise(results: list[dict], metrics: list[dict]) -> dict:
    """Counts and per-metric spread over result lines, one per seed."""
    return {
        "runs": len(results),
        "correct": sum(bool(r["correct"]) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": spreads(results, metrics),
    }


def reference_runner(checkout: str, config: str = REFERENCE_CONFIG):
    """A function ``() -> dict`` that runs ``config`` (relative to
    ``checkout``) once with ``timing = false``, as ``dmasim run`` from the
    checkout's ``src/`` in a fresh interpreter with BLAS pinned as its
    ``bench/workloads.py`` says.  It returns that process's wall and CPU
    seconds and peak RSS, the failed trials and the sha256 of its CSV."""
    workloads = paired_bench._import_file(
        "workloads_reference", os.path.join(checkout, "bench", "workloads.py")
    )
    env = {**os.environ, **workloads.BLAS_THREAD_ENV,
           "PYTHONPATH": os.path.join(checkout, "src"), "PYTHONDONTWRITEBYTECODE": "1"}

    def run() -> dict:
        with open(os.path.join(checkout, config), encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines()
                     if line.split("#", 1)[0].split("=", 1)[0].strip() != "timing"]
        with tempfile.TemporaryDirectory() as out:
            path = os.path.join(out, "reference.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines + ["timing = false"]) + "\n")
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "dmasim.cli", "run", path, "--out", out],
                cwd=out, env=env, stdout=subprocess.DEVNULL,
            )
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise RuntimeError(f"{config}: dmasim run exited {proc.returncode}")
            with open(os.path.join(out, "results.csv"), "rb") as fh:
                text = fh.read()
        rows = csv.DictReader(text.decode().splitlines()[1:])  # after the meta line
        return {"config": config, "wall_s": wall_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
                "failed": sum(int(row["failed"]) for row in rows),
                "csv_sha256": hashlib.sha256(text).hexdigest()}

    return run


def record(benchmark: dict, workloads: list[str], seeds: list[int],
           run, trace, cpu, reference) -> dict:
    """The BENCH document.  ``run(workload, seed)`` returns a ``bench/run.py``
    result line, ``trace(workload, seed)`` a traced run's (report, result),
    ``cpu(workload, seed)`` a ``cpu_runner`` result and ``reference()`` a
    ``reference_runner`` result, taken once after every workload."""
    doc = {"workloads": {}}
    for workload in workloads:
        report, traced = trace(workload, seeds[0])
        environment = dict(report["environment"])
        config_sha = environment.pop("config_sha")
        if not environment.get("git_sha"):
            raise RuntimeError(f"{workload}: no git sha to name the record by")
        doc.setdefault("environment", environment)
        if environment != doc["environment"]:
            raise RuntimeError(f"{workload}: environment changed while recording")
        e2e = summarise([run(workload, seed) for seed in seeds], benchmark["end_to_end"])
        cpu(workload, seeds[0])  # warm-up, untimed
        cpu_runs = [cpu(workload, seed) for seed in seeds]
        doc["workloads"][workload] = {
            "config_sha": config_sha,
            "end_to_end": e2e,
            "cpu": {"failed": sum(r["failed"] for r in cpu_runs),
                    "metrics": spreads(cpu_runs, paired_bench.CPU_METRICS)},
            "per_layer": {"seed": seeds[0], "correct": traced["correct"],
                          "metrics": traced["metrics"]},
        }
    doc["reference"] = reference()
    return doc


def file_name(environment: dict) -> str:
    return f"BENCH_{environment['git_sha'][:7]}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("checkout", nargs="?", default=os.path.dirname(HERE))
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)

    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]

    started = datetime.datetime.now(datetime.timezone.utc)
    doc = record(
        benchmark, workloads, SEEDS,
        run=lambda w, s: paired_bench.bench_run(checkout, w, s, benchmark["run_seconds"]),
        trace=lambda w, s: paired_bench.bench_lines(checkout, w, s, "--trace", "1"),
        cpu=paired_bench.cpu_runner(checkout, "recorded"),
        reference=reference_runner(checkout),
    )
    doc = {"recorded_at": started.isoformat(timespec="seconds"),
           "settings": {"seeds": SEEDS, "seconds": benchmark["run_seconds"]},
           **doc}
    path = os.path.join(args.out_dir, file_name(doc["environment"]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
