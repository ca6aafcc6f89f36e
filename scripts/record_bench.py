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
sha256 of ``src/``.

``CHECKOUT`` defaults to the repository holding this script; it must be
a git checkout, since the file is named after its sha.  Only the output
file is written; ``bench/`` is only read.
"""

import argparse
import datetime
import importlib.util
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no cache in scripts/ or the checkout
_spec = importlib.util.spec_from_file_location(
    "paired_bench", os.path.join(HERE, "paired_bench.py")
)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

SEEDS = list(range(10))


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


def record(benchmark: dict, workloads: list[str], seeds: list[int],
           run, trace, cpu) -> dict:
    """The BENCH document.  ``run(workload, seed)`` returns a ``bench/run.py``
    result line, ``trace(workload, seed)`` a traced run's (report, result)
    and ``cpu(workload, seed)`` a ``cpu_runner`` result."""
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
