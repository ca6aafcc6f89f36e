"""Campaign benchmark for dmasim.

Runs one workload (see ``workloads.py``) through the public API in fresh
processes and prints its metrics, each by name with its unit, then one
JSON result line::

    python3 bench/run.py --workload desk-proposed --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: campaign throughput
(``trials_per_s``, the median over the passes run in ``--seconds``),
set-up time (``setup_s``, the median over several fresh processes, from
process start to the end of config loading) and peak RSS.  With
``--trace 1`` it reports per-layer metrics from a traced pass, and the
tracing overhead against an untraced pass of the same workload.  Either
way the run is gated on the science check (``science.py``).

``--smoke`` runs one trial per SNR point, for the benchmark's own tests.
``--write-references`` runs the workload at the reference seeds and
writes its reference rows; use it only when a change is meant to alter
the science outputs, and say so.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import science
from workloads import BLAS_THREAD_ENV, REFERENCE_SEEDS, SMOKE_TRIALS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set-up samples per run: fresh processes that stop after set-up, plus the
# measuring process.  The first is discarded: it compiles the bytecode cache.
SETUP_PROCESSES = 7
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def launch(workload: str, seed: int, mode: str, deadline: float, **extra) -> tuple:
    """Run ``child.py`` once; return its set-up time and its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    for key, value in extra.items():
        if value is not None:
            cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **BLAS_THREAD_ENV)
    started = time.time()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process for {workload} ran out of time")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"{mode} process for {workload} failed (exit {proc.returncode})")
    setup_s = float(lines[0].split()[1]) - started
    return setup_s, json.loads(lines[-1]) if len(lines) > 1 else None


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # a plain checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def write_references(workload: str) -> None:
    runs, environment = {}, None
    deadline = time.monotonic() + 3600.0
    for seed in REFERENCE_SEEDS:
        for trials in (None, SMOKE_TRIALS):
            _, out = launch(workload, seed, "rows", deadline, trials=trials)
            runs[science.reference_key(seed, out["trials"])] = out["rows"]
            environment = out["environment"]
    with open(science.reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "environment": environment, "runs": runs},
                  fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run(args) -> tuple[dict, dict]:
    """Run the workload; return the report and the result line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    trials = SMOKE_TRIALS if args.smoke else None
    if args.trace:
        _, out = launch(args.workload, args.seed, "trace", deadline, trials=trials)
        metrics = out.pop("layers")
    else:
        setup = []
        for i in range(SETUP_PROCESSES - 1):
            setup_s, _ = launch(args.workload, args.seed, "setup", deadline, trials=trials)
            if i:
                setup.append(setup_s)
        setup_s, out = launch(args.workload, args.seed, "measure", deadline,
                              seconds=0 if args.smoke else args.seconds, trials=trials)
        setup.append(setup_s)
        values = {
            "trials_per_s": out["trials_per_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        out["setup_samples_s"] = setup
    problems = out["science"]["problems"]
    # A run that fails the science check counts all its trials as failed.
    failed = out["attempted"] if problems else out["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "metrics": metrics,
        "failed_fraction": {"value": failed / out["attempted"], "unit": "ratio"},
        "environment": {**out.pop("environment"), "git_sha": git_sha(),
                        "src_sha256": src_sha256()},
        **out,
    }
    result = {"correct": not problems, "attempted": out["attempted"],
              "failed": failed, "metrics": metrics}
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args()
    try:
        if args.write_references:
            write_references(args.workload)
            return 0
        report, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in report["science"]["problems"]:
        print(f"science check: {problem}", file=sys.stderr)
    for name, metric in {**report["metrics"], "failed_fraction": report["failed_fraction"]}.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"report": report}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
