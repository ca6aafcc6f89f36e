"""The claim rule that ``scripts/paired_bench.py`` prints per metric, and
the science verdict on a ``--cpu`` pair."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
SCRIPT = os.path.join(ROOT, "scripts", "paired_bench.py")


def _load(name: str, path: str):
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = dont_write


@pytest.fixture(scope="module")
def paired_bench():
    return _load("paired_bench", SCRIPT)


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0, 98.0]


def test_a_clear_gain_is_met(paired_bench):
    change = [p + 10.0 for p in PARENT]
    assert paired_bench.claim_verdict(PARENT, change, higher=True).startswith(
        "claim met: change better in 10/10"
    )
    # The same numbers on a lower-is-better metric are a clear loss.
    verdict = paired_bench.claim_verdict(PARENT, change, higher=False)
    assert verdict.startswith("claim not met: change better in 0/10")


def test_nine_in_ten_is_enough_and_ties_count_for_neither(paired_bench):
    change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9]]  # one tie
    assert paired_bench.claim_verdict(PARENT, change, True).startswith("claim met")
    change[8] = PARENT[8]  # a second tie: 8 of 10
    assert paired_bench.claim_verdict(PARENT, change, True).startswith(
        "claim not met: change better in 8/10"
    )


def test_a_gap_inside_the_parents_iqr_is_not_met(paired_bench):
    # Better in every pair, but the medians differ by 1 against an IQR of 3.5.
    change = [p + 1.0 for p in PARENT]
    verdict = paired_bench.claim_verdict(PARENT, change, higher=True)
    assert verdict.startswith("claim not met: change better in 10/10")
    assert verdict.endswith("median gap 1 against the parent's IQR 3.5")


def test_a_lower_is_better_gain_is_met(paired_bench):
    change = [p - 10.0 for p in PARENT]
    assert paired_bench.claim_verdict(PARENT, change, higher=False).startswith(
        "claim met"
    )


@pytest.mark.parametrize("pairs", [1, 3, 9])
def test_fewer_than_ten_pairs_are_not_met(paired_bench, pairs):
    # Every pair a clear gain, and the parent's IQR is no wider than at ten.
    parent = PARENT[:pairs]
    change = [p + 10.0 for p in parent]
    verdict = paired_bench.claim_verdict(parent, change, higher=True)
    assert verdict.startswith(f"claim not met: change better in {pairs}/{pairs} pairs")
    assert "at least 10" in verdict


@pytest.fixture(scope="module")
def compare():
    """``compare`` of this checkout's ``bench/science.py``, which judges a
    ``--cpu`` pair."""
    return _load("science", os.path.join(ROOT, "bench", "science.py")).compare


def _rows(**change) -> list[list[dict]]:
    """Two campaigns of science rows, the second with no SER, as ``--cpu``
    runs return them; ``change`` overrides fields of the first row."""
    row = {"snr_db": 0.0, "nmse_h_db": -7.55, "nmse_m_db": -8.63, "ser": 0.31,
           "mean_iters": 22.9, "trials": 200, "failed": 0}
    pilots = dict(row, ser=None, mean_iters=1.0)
    return [[dict(row, **change), dict(row, snr_db=10.0)], [pilots]]


def _verdict(paired_bench, compare, change_rows) -> bool:
    pair = {"parent": {"rows": _rows()}, "change": {"rows": change_rows}}
    problems = paired_bench.judge(pair, compare)
    assert pair["parent"]["correct"] == pair["change"]["correct"] == (not problems)
    return not problems


def test_identical_rows_read_correct(paired_bench, compare):
    assert _verdict(paired_bench, compare, _rows())


def test_nmse_moved_at_roundoff_reads_correct(paired_bench, compare):
    # A change that is not bitwise, such as a reordered sum, moves NMSE by
    # about 1e-12 dB; the benchmark's own gate allows 1e-9 dB.
    assert _verdict(paired_bench, compare, _rows(nmse_h_db=-7.55 + 1e-12))
    assert _verdict(paired_bench, compare, _rows(nmse_m_db=-8.63 - 1e-12))


@pytest.mark.parametrize("change", [
    {"nmse_h_db": -7.55 + 1e-6},
    {"nmse_m_db": -8.63 - 1e-6},
    {"mean_iters": 22.95},
    {"ser": 0.315},
    {"failed": 1, "trials": 199},
    {"failed": 1},
])
def test_a_science_change_reads_incorrect(paired_bench, compare, change):
    assert not _verdict(paired_bench, compare, _rows(**change))


def test_a_missing_campaign_reads_incorrect(paired_bench, compare):
    assert not _verdict(paired_bench, compare, _rows()[:1])
