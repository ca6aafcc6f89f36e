"""The solver contract that the benchmark's tracer reads.

``bench/child.py`` traces ``receiver.bals`` and its observer counts each
call's iterations and whether the call ran out of them, reading
``max_iters`` from the ``cfg`` keyword.  So ``bals`` must be entered once
per trial, with ``cfg`` passed by keyword, for the traced counts to match
the campaign's rows."""

import dataclasses

import pytest

# The fixture that imports bench/child.py read-only.
from test_bench_names import child  # noqa: F401


# One trial per SNR point is a block of one; three fill one desk block of
# three, which a solver that fits a whole block per call must count too.
@pytest.mark.parametrize(
    "max_iters, trials",
    [(None, 1), (2, 1), (None, 3), (2, 3)],
    ids=["None", "2", "None-3-trials", "2-3-trials"],
)
def test_traced_bals_counts_match_the_rows(child, max_iters, trials):  # noqa: F811
    # Desk's max_iters equals BalsConfig's default, so only a config with
    # another cap shows a cfg that did not reach the observer.
    cfgs = child.load_workload("desk-proposed", seed=0, trials=trials)
    if max_iters is not None:
        cfgs = [dataclasses.replace(cfg, max_iters=max_iters) for cfg in cfgs]
    tracer = child.Tracer()
    for entry in child.SPANS:
        tracer.patch(*entry)
    try:
        rows = [row for cfg in cfgs for row in child.campaign.run_campaign(cfg)]
    finally:
        tracer.restore()
    bals = tracer.totals()["receiver.bals"]
    assert bals.calls == child.attempted(cfgs)
    # A row's mean times its trials is the exact total, up to the mean's roundoff.
    iterations = sum(round(row.mean_iters * row.trials) for row in rows)
    assert bals.counts["iterations"] == iterations
    assert bals.counts["max_iters_hit"] == sum(row.max_iters_hit for row in rows)
    if max_iters is not None:
        assert sum(row.max_iters_hit for row in rows) > 0
