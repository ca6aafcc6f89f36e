import dataclasses
import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmasim import campaign, channels
from dmasim.campaign import (
    _COLUMNS,
    CSV_HEADER,
    CSV_SCHEMA,
    MetricRow,
    NMSE_FIT_LABEL,
    RECEIVERS,
    SUMMARY_SCHEMA,
    TrialResult,
    _aggregate,
    _trial_rng,
    draw_scene,
    render_csv,
    run_campaign,
    run_trial,
    score,
    snr_grid,
    summary_dict,
    write_results_csv,
    write_summary_json,
)
from dmasim.channels import qam_alphabet
from dmasim.config import (
    ConfigError,
    ExperimentConfig,
    load_config_file,
    validate_config,
)
from dmasim.receiver import EstimateReport, EstimationError


def _tiny(**over):
    base = dict(
        trials=5,
        seed=11,
        snr_grid_db=(0.0, 20.0),
        timing=False,
    )
    base.update(over)
    return dataclasses.replace(ExperimentConfig(), **base)


def test_trial_rng_streams_are_distinct_and_reproducible():
    a = _trial_rng(1, 2, 3, 0).standard_normal(4)
    b = _trial_rng(1, 2, 3, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = _trial_rng(1, 2, 3, 1).standard_normal(4)
    d = _trial_rng(1, 2, 4, 0).standard_normal(4)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def _assert_same_stream(rng, seed, snr_idx, trial, tag):
    want = np.random.default_rng([seed, snr_idx, trial, tag])
    assert rng.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(rng.standard_normal(3), want.standard_normal(3))
    np.testing.assert_array_equal(rng.integers(0, 64, 5), want.integers(0, 64, 5))


_BOUNDARY_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**80 - 1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(_BOUNDARY_SEEDS), st.integers(0, 2**80 - 1)),
    snr_idx=st.integers(0, 40),
    # Trial indices of 2**32 and above take two entropy words: default_rng.
    trial=st.one_of(st.integers(0, 10**6), st.integers(2**32 - 600, 2**32 + 600)),
    tag=st.integers(0, campaign._TAG_INIT),
)
@example(seed=2**32 - 1, snr_idx=0, trial=0, tag=0)
@example(seed=2**32, snr_idx=6, trial=255, tag=5)
@example(seed=2**64 - 1, snr_idx=1, trial=256, tag=3)
@example(seed=2**64, snr_idx=2, trial=2**32 - 1, tag=4)
@example(seed=7, snr_idx=3, trial=2**32, tag=2)
def test_trial_rng_is_default_rng_stream_for_stream(seed, snr_idx, trial, tag):
    rng = _trial_rng(seed, snr_idx, trial, tag)
    _assert_same_stream(rng, seed, snr_idx, trial, tag)


@pytest.fixture
def fresh_blocks():
    """Empty seed-block and trial-block caches, emptied again afterwards, so
    that no block built under a patched constant outlives the test."""
    campaign._checked_block.cache_clear()
    campaign._trial_block.cache_clear()
    yield
    campaign._checked_block.cache_clear()
    campaign._trial_block.cache_clear()


def test_trial_rng_serves_every_tag_from_a_checked_block(fresh_blocks):
    for tag in range(campaign._TAG_INIT + 1):
        _assert_same_stream(_trial_rng(3, 1, 300, tag), 3, 1, 300, tag)
    info = campaign._checked_block.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, campaign._TAG_INIT, 1)
    words = campaign._checked_block(3, 1, 300 - 300 % campaign._SEED_BLOCK)
    assert words is not None  # the block passed its check
    assert words.shape == (campaign._SEED_BLOCK, campaign._TAG_INIT + 1, 4)
    assert not words.flags.writeable


def test_a_block_that_fails_its_check_falls_back_to_default_rng(
    monkeypatch, fresh_blocks
):
    # A wrong hash constant stands for a numpy whose seeding algorithm changed.
    monkeypatch.setattr(campaign, "_MULT_B", campaign._MULT_B ^ 1)
    for trial in (0, 1, 100):
        _assert_same_stream(_trial_rng(5, 2, trial, 4), 5, 2, trial, 4)
    assert campaign._checked_block(5, 2, 0) is None


def test_seeded_block_serves_a_desk_trial_without_seed_sequences(
    monkeypatch, fresh_blocks
):
    base, _ = load_config_file(_DESK_CFG)
    size = campaign._block_size(base)
    assert size > 1
    assert run_trial(base, 10.0, 0, 0).failed is None  # seeds the block
    made, seeds = [], []
    for name in ("default_rng", "SeedSequence"):
        real = getattr(np.random, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            made.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    real_pcg64 = np.random.PCG64

    def pcg64(seed):
        seeds.append(type(seed))
        return real_pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", pcg64)
    # The first trial of the next block of trials runs the whole block.
    assert run_trial(base, 10.0, 0, size).failed is None
    assert made == []
    # One generator per quantity and trial, each seeded from precomputed words.
    assert seeds == [campaign._SeedWords] * ((campaign._TAG_INIT + 1) * size)


@pytest.mark.parametrize("block", [1, 7, None])
def test_campaign_rows_do_not_depend_on_the_seed_block_size(
    monkeypatch, fresh_blocks, block
):
    cfg = _tiny(trials=9, snr_grid_db=(0.0, 10.0, 20.0))
    with monkeypatch.context() as plain:
        plain.setattr(
            campaign, "_trial_rng",
            lambda *key: np.random.default_rng(list(key)),
        )
        want = render_csv(run_campaign(cfg), cfg)
    if block is not None:
        monkeypatch.setattr(campaign, "_SEED_BLOCK", block)
    assert render_csv(run_campaign(cfg), cfg) == want


_PAIRINGS = [
    ("proposed", "lorentzian"),
    ("proposed", "semi-unitary-dft"),
    ("bench-data-aided", "semi-unitary-dft"),
    ("bench-pilot-aided", "semi-unitary-dft"),
]


def _block_of(monkeypatch, cfg, size):
    """Patch the block constant so that ``cfg`` runs blocks of ``size``."""
    monkeypatch.setattr(campaign, "_BLOCK_BYTES", size * 16 * cfg.K * cfg.T * cfg.P)
    assert campaign._block_size(cfg) == size


@pytest.mark.parametrize("receiver,training", _PAIRINGS)
@pytest.mark.parametrize("block", [1, 7])
def test_campaign_csv_does_not_depend_on_the_trial_block_size(
    monkeypatch, fresh_blocks, receiver, training, block
):
    # Two trials past the default block (25 at this geometry): blocks of
    # the default size and of 7 both leave a partial block at the end of
    # every point.
    default = campaign._block_size(_tiny())
    cfg = _tiny(
        trials=default + 2, snr_grid_db=(0.0, 10.0, 20.0),
        receiver=receiver, training=training,
    )
    assert campaign._block_size(cfg) == default
    assert cfg.trials % default and cfg.trials % 7
    want = render_csv(run_campaign(cfg), cfg)
    _block_of(monkeypatch, cfg, block)
    assert render_csv(run_campaign(cfg), cfg) == want


# Received tensors' worth of memory a default desk block may hold at its
# peak, above what it starts with: the tensors themselves plus the stages'
# temporaries.  The pilot-aided reference copies the tensors once more, into
# the mode-2 unfolding that the public ``pilot_aided_m`` takes.
_BLOCK_PEAK_TENSORS = [
    (receiver, training, 2.5 if receiver == "bench-pilot-aided" else 2.0)
    for receiver, training in _PAIRINGS
]


@pytest.mark.parametrize("receiver,training,tensors", _BLOCK_PEAK_TENSORS)
def test_a_default_desk_block_peaks_near_two_received_tensors(
    fresh_blocks, receiver, training, tensors
):
    base, _ = load_config_file(_DESK_CFG)
    cfg = dataclasses.replace(base, receiver=receiver, training=training)
    size = campaign._block_size(cfg)
    block_bytes = size * 16 * cfg.K * cfg.T * cfg.P
    # The first block fills the seed-word and training-spectrum memos.
    campaign._run_block(cfg, 10.0, 0, range(size))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        campaign._run_block(cfg, 10.0, 0, range(size, 2 * size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= tensors * block_bytes


def _without_runtime(result: TrialResult) -> str:
    """The result less its wall-clock field, as text: NaN (the SER of a
    pilot block) then compares equal, and every float bit for bit."""
    return repr(dataclasses.replace(result, runtime_s=0.0))


@pytest.mark.parametrize("receiver,training", _PAIRINGS)
def test_a_trial_inside_a_block_is_that_trial_run_alone(
    monkeypatch, fresh_blocks, receiver, training
):
    cfg = _tiny(trials=9, receiver=receiver, training=training)
    inside = run_trial(cfg, 10.0, 1, 3)  # the fourth trial of the block 0-8
    _block_of(monkeypatch, cfg, 1)
    alone = run_trial(cfg, 10.0, 1, 3)
    assert inside.failed is None
    assert _without_runtime(inside) == _without_runtime(alone)


def test_a_repeated_campaign_computes_its_trials_again(monkeypatch, fresh_blocks):
    # One SNR point of one block: a block kept from the first campaign would
    # serve the second, which must report the estimates that now fail.
    cfg = _tiny(trials=3, snr_grid_db=(10.0,))
    assert [row.failed for row in run_campaign(cfg)] == [0]

    def fail(cfg, scene):
        raise EstimationError("patched to fail")

    monkeypatch.setattr(campaign, "estimate", fail)
    (row,) = run_campaign(cfg)
    assert (row.trials, row.failed) == (0, 3)
    assert row.failure_categories == {"EstimationError": 3}


def test_a_failing_trial_fails_alone_in_its_block(monkeypatch, fresh_blocks):
    # A block that raises runs again one trial at a time: only the trial at
    # fault fails, and the others keep their results.
    cfg = _tiny(trials=6, snr_grid_db=(10.0,))
    real = campaign.estimate

    def estimate(cfg, scene):
        if 4 in scene.trials:
            raise EstimationError("trial 4 fails")
        return real(cfg, scene)

    monkeypatch.setattr(campaign, "estimate", estimate)
    results = [run_trial(cfg, 10.0, 0, trial) for trial in range(cfg.trials)]
    assert [r.failed for r in results] == [None] * 4 + ["EstimationError", None]
    monkeypatch.setattr(campaign, "estimate", real)
    _block_of(monkeypatch, cfg, 1)
    alone = [run_trial(cfg, 10.0, 0, trial) for trial in range(cfg.trials)]
    for got, ref in zip(results[:4] + results[5:], alone[:4] + alone[5:]):
        assert _without_runtime(got) == _without_runtime(ref)


@pytest.mark.parametrize("receiver,training", _PAIRINGS)
def test_run_trial_produces_finite_metrics(receiver, training):
    cfg = _tiny(receiver=receiver, training=training)
    tr = run_trial(cfg, 15.0, 0, 0)
    assert tr.failed is None
    assert math.isfinite(tr.nmse_h) and tr.nmse_h > 0
    assert math.isfinite(tr.nmse_m) and tr.nmse_m > 0
    assert tr.iterations >= 1
    assert tr.converged
    assert tr.runtime_s >= 0.0
    if receiver == "bench-pilot-aided":
        assert math.isnan(tr.ser)
    else:
        assert 0.0 <= tr.ser <= 1.0


def test_run_trial_draws_the_same_scene_for_every_receiver():
    # Paired comparisons: the channel/inner/noise draws depend only on
    # (seed, snr index, trial, quantity), never on the receiver choice.
    cfg_a = _tiny(receiver="proposed", training="semi-unitary-dft")
    cfg_b = _tiny(receiver="bench-data-aided", training="semi-unitary-dft")
    a = run_trial(cfg_a, 30.0, 1, 2)
    b = run_trial(cfg_b, 30.0, 1, 2)
    assert a.failed is None and b.failed is None
    # Same scene, same noise: the data-aided closed form must beat the
    # blind receiver on this very draw (its design matrices are exact).
    assert b.nmse_h < a.nmse_h


def test_draw_scene_is_the_same_for_every_receiver():
    scenes = {
        receiver: draw_scene(
            _tiny(receiver=receiver, training="semi-unitary-dft"), 10.0, 1, range(2, 4)
        )
        for receiver in RECEIVERS
    }
    ref = scenes["proposed"]
    for scene in scenes.values():
        for name in ("h", "m", "f"):
            np.testing.assert_array_equal(getattr(scene, name), getattr(ref, name))
    # Only the pilot-aided receiver sends another symbol block.
    np.testing.assert_array_equal(scenes["bench-data-aided"].y, ref.y)


def test_a_receiver_is_one_table_entry(monkeypatch):
    # A fourth receiver costs one RECEIVERS entry: validation, the scene, the
    # estimate and the summary's oracle notes all read it from the table.
    monkeypatch.setitem(RECEIVERS, "copy", RECEIVERS["bench-data-aided"])
    copy = _tiny(receiver="copy", training="semi-unitary-dft", trials=2)
    ref = dataclasses.replace(copy, receiver="bench-data-aided")
    validate_config(copy)
    with pytest.raises(ConfigError, match="semi-unitary-dft"):
        validate_config(dataclasses.replace(copy, training="lorentzian"))
    scenes = [draw_scene(cfg, 10.0, 1, range(2)) for cfg in (copy, ref)]
    for name in ("h", "m", "s", "s_idx", "x", "f", "y"):
        np.testing.assert_array_equal(*(getattr(scene, name) for scene in scenes))

    def rows(cfg):  # less the wall clock
        return [
            dataclasses.replace(row, mean_runtime_s=None) for row in run_campaign(cfg)
        ]

    assert rows(copy) == rows(ref)
    notes = [summary_dict([], cfg)["oracle_side_information"] for cfg in (copy, ref)]
    assert notes[0] == notes[1] != []


def test_score_flags_a_zero_channel_column_as_a_degenerate_fit():
    cfg = _tiny()
    scene = draw_scene(cfg, 10.0, 0, range(2))
    exact = EstimateReport(h_hat=scene.h, m_hat=scene.m, s_hat=scene.s)
    assert [tr.failed for tr in score(cfg, scene, exact, 0.0)] == [None, None]
    h_hat = scene.h.copy()
    h_hat[1, :, 0] = 0.0  # the first channel column of the second trial
    first, second = score(cfg, scene, dataclasses.replace(exact, h_hat=h_hat), 0.0)
    assert first.failed is None
    assert second.failed == "DegenerateMetricFit"
    assert math.isnan(second.nmse_h)


def _count_linalg(monkeypatch):
    """Shapes passed to ``eigvalsh``, ``matrix_rank`` and ``svd``."""
    calls = {"eigvalsh": [], "matrix_rank": [], "svd": []}
    for name, seen in calls.items():
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _seen=seen, **kwargs):
            _seen.append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_lorentzian_trial_looks_at_the_training_spectrum_once(
    monkeypatch, fresh_blocks
):
    # The block's trainings take one stacked eigendecomposition for their
    # rank checks, and its eigenvalues serve every trial's receiver: bals
    # takes none of its own.  F itself is never decomposed (matrix_rank
    # would take its SVD).
    cfg = _tiny()
    size = min(campaign._block_size(cfg), cfg.trials)
    calls = _count_linalg(monkeypatch)
    assert run_trial(cfg, 10.0, 0, 0).failed is None
    assert calls["eigvalsh"] == [(size, cfg.N, cfg.N)]
    assert calls["matrix_rank"] == []
    assert all(shape[-2:] != (cfg.P, cfg.N) for shape in calls["svd"])


def test_dft_trial_reuses_the_remembered_training_spectrum(monkeypatch, fresh_blocks):
    size = campaign._block_size(_tiny())
    cfg = _tiny(training="semi-unitary-dft", trials=2 * size)
    assert run_trial(cfg, 10.0, 0, 0).failed is None
    calls = _count_linalg(monkeypatch)
    assert run_trial(cfg, 10.0, 0, size).failed is None  # runs the next block
    assert calls["eigvalsh"] == calls["matrix_rank"] == []
    assert all(shape[-2:] != (cfg.P, cfg.N) for shape in calls["svd"])


_DESK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg")


def test_desk_closed_form_campaigns_take_the_dft_spectrum_once(monkeypatch):
    # The semi-unitarity check of every filter call reads the shared DFT's
    # remembered spectrum, taken once, as the desk-closed-form workload runs.
    base, _ = load_config_file(_DESK_CFG)
    monkeypatch.setattr(channels, "_last_spectrum", None)
    calls = _count_linalg(monkeypatch)
    for receiver in ("bench-data-aided", "bench-pilot-aided"):
        cfg = dataclasses.replace(
            base, receiver=receiver, training="semi-unitary-dft", trials=20
        )
        assert sum(row.failed for row in run_campaign(cfg)) == 0
    assert calls["eigvalsh"] == [(base.N, base.N)]
    assert channels._last_spectrum[0] is channels.gen_dft_training(base.P, base.N)


_DATA = os.path.join(os.path.dirname(__file__), "data")


def _assert_rows_match(rows, reference):
    """Counts, iteration means and SER exact, NMSE within roundoff; a
    reference ``null`` stands for NaN (no SER for pilot blocks)."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        for name, field in _COLUMNS:
            if name == "mean_runtime_s":
                continue
            got, want = getattr(row, field), ref[name]
            if want is None:
                assert math.isnan(got), name
            elif name.startswith("nmse"):
                assert abs(got - want) <= 1e-9, name
            else:
                assert got == want, name


@pytest.mark.parametrize("training", ["lorentzian", "semi-unitary-dft"])
def test_desk_proposed_rows_match_the_recorded_reference(training):
    # Rows recorded for configs/desk.cfg at seed 0 with 20 trials per point.
    with open(os.path.join(_DATA, "desk_proposed_rows.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[training]
    base, _ = load_config_file(_DESK_CFG)
    cfg = dataclasses.replace(base, seed=0, trials=20, training=training)
    _assert_rows_match(run_campaign(cfg), reference)


@pytest.mark.parametrize("receiver", ["bench-data-aided", "bench-pilot-aided"])
def test_desk_closed_form_rows_match_the_recorded_reference(receiver):
    # Rows recorded for configs/desk.cfg under DFT training, at seed 0 with
    # 20 trials per point.
    path = os.path.join(_DATA, "desk_closed_form_rows.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)[receiver]
    base, _ = load_config_file(_DESK_CFG)
    cfg = dataclasses.replace(
        base, seed=0, trials=20, training="semi-unitary-dft", receiver=receiver
    )
    _assert_rows_match(run_campaign(cfg), reference)


@pytest.mark.parametrize("receiver", RECEIVERS)
def test_extreme_snr_campaigns_print_no_numpy_warning(receiver):
    # At -3000 dB the closed forms' m-NMSE is beyond float range: those
    # trials are filed as DegenerateMetricFit, with no overflow warning.
    cfg = _tiny(
        trials=2, snr_grid_db=(3000.0, -3000.0, -2999.5), receiver=receiver,
        training="semi-unitary-dft",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_campaign(cfg)
    low = {} if receiver == "proposed" else {"DegenerateMetricFit": 2}
    assert [row.failure_categories for row in rows] == [{}, low, low]


def test_run_trial_counts_generation_failures():
    cfg = _tiny(P=8, training="lorentzian")  # P < N cannot reach full rank
    tr = run_trial(cfg, 10.0, 0, 0)
    assert tr.failed == "GenerationError"
    assert math.isnan(tr.nmse_h)


def test_aggregate_means_and_failure_bookkeeping():
    trials = [
        TrialResult(nmse_h=0.1, nmse_m=0.3, ser=0.0, iterations=10,
                    runtime_s=1.0, converged=True),
        TrialResult(nmse_h=0.3, nmse_m=0.5, ser=0.5, iterations=20,
                    runtime_s=3.0, converged=False),
        TrialResult(failed="EstimationError"),
        TrialResult(failed="EstimationError"),
        TrialResult(failed="GenerationError"),
    ]
    row = _aggregate(5.0, trials)
    assert row.snr_db == 5.0
    assert row.nmse_h_db == pytest.approx(10 * math.log10(0.2))
    assert row.nmse_m_db == pytest.approx(10 * math.log10(0.4))
    assert row.ser == pytest.approx(0.25)
    assert row.mean_iters == pytest.approx(15.0)
    assert row.mean_runtime_s == pytest.approx(2.0)
    assert row.trials == 2
    assert row.failed == 3
    assert row.converged_fraction == pytest.approx(0.5)
    assert (row.iters_p50, row.iters_p90, row.iters_max) == (10, 20, 20)
    assert row.max_iters_hit == 1
    assert row.failure_categories == {"EstimationError": 2, "GenerationError": 1}


@pytest.mark.parametrize(
    "counts, want",
    [(range(1, 11), (5, 9, 10)), (range(20, 0, -1), (10, 18, 20)), ([7], (7, 7, 7))],
)
def test_aggregate_iteration_counts_are_nearest_rank(counts, want):
    trials = [TrialResult(iterations=n, converged=n < 20) for n in counts]
    trials.append(TrialResult(iterations=999, failed="EstimationError"))
    row = _aggregate(0.0, trials)
    assert (row.iters_p50, row.iters_p90, row.iters_max) == want
    assert row.max_iters_hit == sum(n >= 20 for n in counts)


def test_aggregate_with_no_survivors_yields_nan_row():
    row = _aggregate(0.0, [TrialResult(failed="GenerationError")] * 3)
    assert row.trials == 0
    assert row.failed == 3
    assert math.isnan(row.nmse_h_db)
    assert math.isnan(row.ser)
    assert math.isnan(row.iters_p50) and math.isnan(row.iters_max)
    assert row.max_iters_hit == 0


def test_campaign_with_one_symbol_reports_no_ser(tmp_path):
    # T = 1 leaves only the anchor symbol, which SER never scores: the row
    # reports no SER (it used to report 0.0), as pilot rows do.
    cfg = _tiny(T=1, trials=3)
    rows = run_campaign(cfg, out_dir=str(tmp_path))
    assert all(math.isnan(row.ser) and row.trials == 3 for row in rows)
    for line in render_csv(rows, cfg).splitlines()[2:]:
        assert line.split(",")[3] == "nan"
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert [row["ser"] for row in summary["rows"]] == [None, None]


def test_scene_keeps_the_drawn_symbol_indices():
    scene = draw_scene(_tiny(), 10.0, 1, range(2, 4))
    np.testing.assert_array_equal(scene.s, qam_alphabet(64)[scene.s_idx])
    pilots = draw_scene(
        _tiny(receiver="bench-pilot-aided", training="semi-unitary-dft"),
        10.0, 1, range(2, 4),
    )
    assert pilots.s_idx is None


def test_snr_grid_noiseless_override():
    assert snr_grid(_tiny()) == (0.0, 20.0)
    assert snr_grid(_tiny(noiseless=True)) == (math.inf,)


def test_campaign_rows_are_identical_across_thread_counts():
    cfg1 = _tiny(threads=1)
    cfg4 = _tiny(threads=4)
    rows1 = run_campaign(cfg1)
    rows4 = run_campaign(cfg4)
    assert render_csv(rows1, cfg1) == render_csv(rows4, cfg1)


@pytest.mark.parametrize("threads", [1, 4])
def test_campaign_runs_every_trial_on_the_calling_thread(monkeypatch, threads):
    seen = []
    real_trial = campaign.run_trial

    def trial(cfg, snr_db, snr_idx, index):
        seen.append((threading.get_ident(), snr_idx, index))
        return real_trial(cfg, snr_db, snr_idx, index)

    monkeypatch.setattr(campaign, "run_trial", trial)
    run_campaign(_tiny(threads=threads, trials=3))  # two SNR points
    caller = threading.get_ident()
    assert seen == [(caller, si, ti) for si in range(2) for ti in range(3)]


@pytest.mark.parametrize("threads", [1, 3])
def test_campaign_aggregates_each_point_before_the_next_starts(monkeypatch, threads):
    calls, seen = [], []
    real_trial, real_aggregate = campaign.run_trial, campaign._aggregate

    def trial(*args):
        calls.append(args)
        return real_trial(*args)

    def aggregate(snr_db, trials):
        seen.append(len(calls))
        return real_aggregate(snr_db, trials)

    monkeypatch.setattr(campaign, "run_trial", trial)
    monkeypatch.setattr(campaign, "_aggregate", aggregate)
    cfg = _tiny(threads=threads, trials=4, snr_grid_db=(0.0, 10.0, 20.0))
    rows = run_campaign(cfg)
    assert seen == [4, 8, 12]
    assert [row.trials + row.failed for row in rows] == [4, 4, 4]


def test_campaign_rows_depend_on_the_seed():
    rows_a = run_campaign(_tiny(seed=1))
    rows_b = run_campaign(_tiny(seed=2))
    assert rows_a[0].nmse_h_db != rows_b[0].nmse_h_db


def test_noiseless_campaign_hits_the_numerical_floor():
    rows = run_campaign(_tiny(trials=1, noiseless=True))
    assert len(rows) == 1
    assert rows[0].snr_db == math.inf
    assert rows[0].nmse_h_db <= -80.0
    assert rows[0].nmse_m_db <= -80.0
    assert rows[0].ser == 0.0


def test_render_csv_layout_and_meta_line():
    cfg = _tiny(trials=2)
    rows = run_campaign(cfg)
    text = render_csv(rows, cfg)
    lines = text.splitlines()
    assert lines[0].startswith(f"# {CSV_SCHEMA} ")
    assert f"nmse_fit={NMSE_FIT_LABEL}" in lines[0]
    assert f"seed={cfg.seed}" in lines[0]
    assert "config_sha=" in lines[0]
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert len(first) == 8
    assert float(first[0]) == 0.0
    assert first[5] == "nan"  # timing disabled in _tiny
    assert int(first[6]) == 2  # successful-trial count
    assert int(first[7]) == 0


def test_render_csv_reports_runtime_only_when_timing_enabled():
    cfg = _tiny(trials=2, timing=True)
    rows = run_campaign(cfg)
    text = render_csv(rows, cfg)
    runtime_field = text.splitlines()[2].split(",")[5]
    assert runtime_field != "nan"
    assert float(runtime_field) > 0.0


def test_csv_floats_round_trip_exactly(tmp_path):
    cfg = _tiny()
    rows = run_campaign(cfg)
    path = tmp_path / "results.csv"
    write_results_csv(str(path), rows, cfg)
    raw = path.read_bytes().decode("utf-8")
    assert "\r" not in raw
    for line, row in zip(raw.splitlines()[2:], rows):
        fields = line.split(",")
        assert float(fields[1]) == row.nmse_h_db
        assert float(fields[2]) == row.nmse_m_db
        assert float(fields[3]) == row.ser
        assert float(fields[4]) == row.mean_iters


def test_summary_json_content(tmp_path):
    cfg = _tiny(receiver="bench-data-aided", training="semi-unitary-dft")
    rows = run_campaign(cfg)
    summary = summary_dict(rows, cfg)
    assert summary["format"] == SUMMARY_SCHEMA == "dmasim-summary-v3"
    assert summary["seed"] == cfg.seed
    assert summary["nmse_fit"] == NMSE_FIT_LABEL
    assert summary["config"]["receiver"] == "bench-data-aided"
    assert summary["per_iteration_flops"] == 14922
    assert summary["oracle_side_information"]  # benches must declare oracles
    assert summary["wall_clock_fields_nondeterministic"] == [
        "rows[].mean_runtime_s"
    ]
    assert len(summary["rows"]) == len(rows)
    assert summary["rows"][0]["converged_fraction"] == 1.0
    for row in summary["rows"]:  # the closed forms take one step
        assert (row["iters_p50"], row["iters_p90"], row["iters_max"]) == (1, 1, 1)
        assert row["max_iters_hit"] == 0
    proposed = _tiny(max_iters=3)
    rows = run_campaign(proposed)
    for row in summary_dict(rows, proposed)["rows"]:
        assert row["iters_max"] == 3 and row["iters_p50"] <= row["iters_p90"] <= 3
        assert 0 < row["max_iters_hit"] <= row["trials"]

    path = tmp_path / "summary.json"
    write_summary_json(str(path), rows, cfg)
    reread = json.loads(path.read_text(encoding="utf-8"))
    assert reread["config_sha"] == summary["config_sha"]


def _strict_load(path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


@pytest.mark.parametrize(
    "over, nulls",
    [
        # Noiseless: the single SNR point is +inf.
        (dict(noiseless=True), ["snr_db"]),
        # Pilot-aided: no symbols are detected, so the SER is NaN.
        (dict(receiver="bench-pilot-aided", training="semi-unitary-dft"), ["ser"]),
        # Every trial fails (P < N Lorentzian training): all means are NaN.
        (
            dict(P=8, trials=2),
            ["nmse_H_db", "nmse_m_db", "ser", "mean_iters", "mean_runtime_s",
             "converged_fraction", "iters_p50", "iters_p90", "iters_max"],
        ),
    ],
)
def test_summary_json_is_strict_json_with_nulls(tmp_path, over, nulls):
    cfg = _tiny(**over)
    rows = run_campaign(cfg, out_dir=str(tmp_path))
    summary = _strict_load(tmp_path / "summary.json")
    assert summary == summary_dict(rows, cfg)
    for row in summary["rows"]:
        for key in nulls:
            assert row[key] is None
        assert row["trials"] + row["failed"] == cfg.trials


def test_proposed_campaign_declares_no_oracles():
    cfg = _tiny(trials=1)
    summary = summary_dict(run_campaign(cfg), cfg)
    assert summary["oracle_side_information"] == []


@pytest.mark.parametrize(
    "receiver, notes",
    [
        (
            "bench-data-aided",
            [
                "channel estimate uses the true symbol block and true "
                "inner-response moduli",
                "symbol-block estimate uses the true channel and its column "
                "energies",
            ],
        ),
        (
            "bench-pilot-aided",
            [
                "channel estimate uses the known pilots, true inner response "
                "and its moduli",
                "inner-response estimate uses the true channel and its column "
                "energies",
            ],
        ),
    ],
)
def test_reference_campaigns_declare_their_oracles(receiver, notes):
    cfg = _tiny(receiver=receiver, training="semi-unitary-dft", trials=1)
    summary = summary_dict(run_campaign(cfg), cfg)
    assert summary["oracle_side_information"] == notes


def test_run_campaign_writes_both_artifacts(tmp_path):
    cfg = _tiny(trials=2)
    out = tmp_path / "campaign"
    rows = run_campaign(cfg, out_dir=str(out))
    assert (out / "results.csv").is_file()
    assert (out / "summary.json").is_file()
    assert len(rows) == 2


def test_campaign_with_all_failing_trials_still_reports(tmp_path):
    cfg = _tiny(P=8, training="lorentzian", trials=3)
    rows = run_campaign(cfg, out_dir=str(tmp_path / "fail"))
    assert all(r.trials == 0 and r.failed == 3 for r in rows)
    assert all(r.failure_categories == {"GenerationError": 3} for r in rows)
    text = (tmp_path / "fail" / "results.csv").read_text(encoding="utf-8")
    assert "nan" in text.splitlines()[2]
