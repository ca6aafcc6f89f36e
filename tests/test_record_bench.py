"""The summaries that ``scripts/record_bench.py`` writes, on synthetic runs."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
SCRIPT = os.path.join(ROOT, "scripts", "record_bench.py")


@pytest.fixture(scope="module")
def record_bench():
    dont_write = sys.dont_write_bytecode
    try:
        spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = dont_write


END_TO_END = [
    {"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
RATES = [100.0, 104.0, 96.0, 102.0, 98.0]


def _result(seed, correct=True, failed=0):
    return {"correct": correct, "attempted": 70, "failed": failed,
            "metrics": {"trials_per_s": {"value": RATES[seed], "unit": "trials/s"},
                        "peak_rss_mb": {"value": 40.0 + seed, "unit": "MB"}}}


def test_summary_counts_and_spreads_keep_the_seed_order(record_bench):
    results = [_result(s) for s in range(5)]
    results[3] = _result(3, correct=False, failed=70)
    summary = record_bench.summarise(results, END_TO_END)
    assert (summary["runs"], summary["correct"]) == (5, 4)
    assert (summary["attempted"], summary["failed"]) == (350, 70)
    rate = summary["metrics"]["trials_per_s"]
    assert (rate["unit"], rate["better"]) == ("trials/s", "higher")
    assert rate["values"] == RATES
    # Inclusive quartiles of 96, 98, 100, 102, 104.
    assert (rate["q1"], rate["median"], rate["q3"], rate["iqr"]) == (98, 100, 102, 4)
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["median"], rss["iqr"], rss["better"]) == (42.0, 2.0, "lower")


def test_one_run_has_no_spread(record_bench):
    rate = record_bench.summarise([_result(1)], END_TO_END)["metrics"]["trials_per_s"]
    assert (rate["q1"], rate["median"], rate["q3"], rate["iqr"]) == (104, 104, 104, 0)


def _environment(**extra):
    return {"nproc": 2, "python": "3.11", "numpy": "2.0",
            "blas": {"name": "openblas", "version": "0.3"},
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
            "git_sha": "0123456789abcdef", "src_sha256": "fedcba9876543210", **extra}


def test_record_lays_out_each_workload_with_one_environment(record_bench):
    calls = []

    def run(workload, seed):
        calls.append(("run", workload, seed))
        return _result(seed)

    def trace(workload, seed):
        calls.append(("trace", workload, seed))
        layers = {"receiver.bals.iterations": {"value": 7, "unit": "count"}}
        report = {"environment": _environment(config_sha=[workload])}
        return report, {"correct": True, "metrics": layers}

    def cpu(workload, seed):
        calls.append(("cpu", workload, seed))
        return {"failed": 0, "metrics": {"cpu_trials_per_s": {"value": 10.0 + seed}}}

    doc = record_bench.record({"end_to_end": END_TO_END}, ["a", "b"], [2, 3],
                              run=run, trace=trace, cpu=cpu)
    assert doc["environment"] == _environment()
    assert record_bench.file_name(doc["environment"]) == "BENCH_0123456.json"
    assert list(doc["workloads"]) == ["a", "b"]
    a = doc["workloads"]["a"]
    assert a["config_sha"] == ["a"]
    assert a["end_to_end"]["metrics"]["trials_per_s"]["values"] == [96.0, 102.0]
    # The first CPU pass warms up and is not kept.
    assert a["cpu"]["metrics"]["cpu_trials_per_s"]["values"] == [12.0, 13.0]
    assert a["per_layer"] == {
        "seed": 2, "correct": True,
        "metrics": {"receiver.bals.iterations": {"value": 7, "unit": "count"}},
    }
    assert calls[:6] == [("trace", "a", 2), ("run", "a", 2), ("run", "a", 3),
                         ("cpu", "a", 2), ("cpu", "a", 2), ("cpu", "a", 3)]


def test_record_refuses_an_environment_that_changes(record_bench):
    shas = iter(["0123456789", "9876543210"])

    def trace(workload, seed):
        report = {"environment": _environment(config_sha=[], git_sha=next(shas))}
        return report, {"correct": True, "metrics": {}}

    with pytest.raises(RuntimeError, match="environment changed"):
        record_bench.record({"end_to_end": END_TO_END}, ["a", "b"], [0],
                            run=lambda w, s: _result(s), trace=trace,
                            cpu=lambda w, s: {"failed": 0, "metrics": {
                                "cpu_trials_per_s": {"value": 1.0}}})


def test_record_refuses_a_checkout_without_a_git_sha(record_bench):
    def trace(workload, seed):
        return {"environment": _environment(config_sha=[], git_sha=None)}, {}

    with pytest.raises(RuntimeError, match="no git sha"):
        record_bench.record({"end_to_end": END_TO_END}, ["a"], [0],
                            run=None, trace=trace, cpu=None)
