"""The benchmark's own tests, in smoke mode (one trial per SNR point).

Run from the repository root:  python3 -m pytest bench
"""

import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import types

import pytest

import science
from tracer import Tracer
from workloads import REFERENCE_SEEDS, SMOKE_TRIALS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.cache
def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    """Report and result line of one smoke run, run once per session."""
    proc = _bench("--workload", workload, "--seed", str(REFERENCE_SEEDS[0]),
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace):
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["science"]["problems"]
    assert result["failed"] == 0
    assert report["failed_fraction"] == {"value": 0.0, "unit": "ratio"}
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(metric["unit"]), name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", ["desk-proposed", "desk-proposed-parallel", "scaled-proposed"])
def test_traced_counts_match_the_science_rows(workload):
    report, result = smoke(workload, 1)
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert report["traced_rows"] == report["rows"]
    iterations = sum(row["mean_iters"] * row["trials"]
                     for rows in report["traced_rows"] for row in rows)
    assert layers["receiver.bals.iterations"] == round(iterations) > 0
    assert layers["tensor_ops.pinv.calls"] == 2 * layers["receiver.bals.iterations"]
    assert layers["campaign.run_trial.calls"] == result["attempted"] // 2
    assert report["unpatched"] == []


def test_closed_form_bypasses_als():
    report, result = smoke("desk-closed-form", 1)
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert report["traced_rows"] == report["rows"]
    assert layers["receiver.bals.iterations"] == 0
    assert layers["tensor_ops.pinv.calls"] == 0
    assert layers["benchmarks.matched_filter.self_s"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_science_check_rejects_a_perturbed_reference(workload):
    report, _ = smoke(workload, 0)
    rows = report["rows"]
    reference = science.load_references(workload)[
        science.reference_key(REFERENCE_SEEDS[0], SMOKE_TRIALS)]
    assert science.compare(rows, reference) == []

    def perturbed(field, change):
        ref = json.loads(json.dumps(reference))
        ref[0][2][field] = change(ref[0][2][field])
        return science.compare(rows, ref)

    assert perturbed("nmse_h_db", lambda v: v + 1e-12) == []
    assert perturbed("nmse_h_db", lambda v: v + 1e-6)
    assert perturbed("nmse_m_db", lambda v: -v)
    assert perturbed("mean_iters", lambda v: v + 1)
    assert perturbed("trials", lambda v: v - 1)
    assert perturbed("failed", lambda v: v + 1)
    assert perturbed("ser", lambda v: 0.5 if v is None else v + 1e-3)
    assert science.compare(rows, reference + reference)


def test_invariants_reject_impossible_rows():
    row = {"snr_db": 0.0, "nmse_h_db": -5.0, "nmse_m_db": -6.0, "ser": 0.1,
           "mean_iters": 3.0, "trials": 2, "failed": 0}
    info = [{"trials": 2, "max_iters": 10, "pilot_aided": False}]
    better = dict(row, snr_db=5.0, nmse_h_db=-9.0)
    assert science.invariants([[row, better]], info) == []
    assert science.invariants([[row, dict(better, nmse_h_db=-1.0)]], info)
    assert science.invariants([[row, dict(better, failed=1)]], info)
    assert science.invariants([[row, dict(better, mean_iters=11.0)]], info)
    assert science.invariants([[row, dict(better, ser=None)]], info)
    assert science.invariants([[row, dict(better, nmse_m_db=math.inf)]], info)


def test_tracer_self_time_and_per_thread_stacks():
    mod = types.SimpleNamespace(__name__="toy")
    mod.inner = lambda: sum(range(2000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    originals = (mod.outer, mod.inner)
    tracer = Tracer()
    tracer.patch(mod, "outer", "outer")
    tracer.patch(mod, "inner", "inner",
                 lambda counts, args, kwargs, result: counts.update(n=counts.get("n", 0) + 1))
    tracer.patch(mod, "absent", "absent")
    threads = [threading.Thread(target=mod.outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    tracer.restore()
    stats = tracer.totals()
    assert stats["outer"].calls == 4 and stats["inner"].calls == 12
    assert stats["inner"].counts == {"n": 12}
    assert math.isclose(stats["outer"].self_s + stats["inner"].inclusive_s,
                        stats["outer"].inclusive_s, rel_tol=1e-9)
    assert tracer.missing == ["toy.absent"]
    assert (mod.outer, mod.inner) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "desk-proposed", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
