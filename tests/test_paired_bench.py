"""The claim rule that ``scripts/paired_bench.py`` prints per metric."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
SCRIPT = os.path.join(ROOT, "scripts", "paired_bench.py")


@pytest.fixture(scope="module")
def paired_bench():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.dont_write_bytecode = dont_write


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
