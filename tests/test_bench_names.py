"""The benchmark's tracer patches module attributes by name.  A name it
cannot find is skipped at run time, and a layer whose every name is gone
reads null in the result line, so each traced name must stay bound."""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture(scope="module")
def child():
    """``bench/child.py`` imported without writing a cache into ``bench/``
    and without leaving ``bench/`` on the import path."""
    path, dont_write = sys.path[:], sys.dont_write_bytecode
    before = set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_child", os.path.join(BENCH, "child.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
        for name in set(sys.modules) - before:
            where = getattr(sys.modules[name], "__file__", None) or ""
            if os.path.dirname(where) == BENCH:
                del sys.modules[name]


def test_every_traced_name_is_bound_and_callable(child):
    assert child.SPANS
    unbound = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in child.SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert unbound == []


_PROPOSED_SPANS = {
    "campaign.run_trial", "channels", "signals.build", "signals.noise",
    "receiver.bals", "receiver.two_stage_estimate", "receiver.rank1_factorize",
    "receiver.remove_ambiguity", "metrics", "campaign.aggregate", "campaign.io",
}
_CLOSED_FORM_SPANS = _PROPOSED_SPANS - {
    "receiver.bals", "receiver.two_stage_estimate"
} | {"benchmarks.estimate", "benchmarks.matched_filter", "benchmarks.oracle_weights"}


@pytest.mark.parametrize(
    "workload, spans",
    [
        ("desk-proposed", _PROPOSED_SPANS),
        ("scaled-proposed", _PROPOSED_SPANS),
        ("desk-closed-form", _CLOSED_FORM_SPANS),
    ],
)
def test_traced_layers_stay_reached(child, workload, spans, tmp_path):
    # A refactor that stops calling a traced name zeroes its layer's metric
    # without failing anything else: every layer each workload reaches
    # must keep getting calls.
    tracer = child.Tracer()
    for entry in child.SPANS:
        tracer.patch(*entry)
    try:
        for i, cfg in enumerate(child.load_workload(workload, seed=0, trials=1)):
            child.campaign.run_campaign(cfg, out_dir=str(tmp_path / str(i)))
    finally:
        tracer.restore()
    assert tracer.missing == []
    totals = tracer.totals()
    assert sorted(span for span in spans if span not in totals) == []
