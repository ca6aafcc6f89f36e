import dataclasses
import glob
import math
import os
import time
import warnings

import pytest

from dmasim import channels
from dmasim.campaign import run_campaign
from dmasim.config import (
    MAX_SNR_POINTS,
    MAX_THREADS,
    ConfigError,
    ExperimentConfig,
    config_sha,
    format_config,
    load_config_file,
    parse_config_text,
    validate_config,
)


def test_defaults_match_the_reference_operating_point():
    cfg = ExperimentConfig()
    assert (cfg.K, cfg.T, cfg.P, cfg.N) == (8, 10, 32, 16)
    assert cfg.N == cfg.D * cfg.L
    assert cfg.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert cfg.trials == 10_000
    assert cfg.qam_order == 64
    assert validate_config(cfg) == []


def test_format_round_trips_through_the_parser():
    cfg = dataclasses.replace(
        ExperimentConfig(), trials=17, seed=99, receiver="bench-data-aided",
        training="semi-unitary-dft", noiseless=True, timing=False,
    )
    values, sweeps = parse_config_text(format_config(cfg))
    assert sweeps == {}
    assert ExperimentConfig(**values) == cfg


def test_config_sha_is_stable_and_sensitive():
    cfg = ExperimentConfig()
    assert config_sha(cfg) == config_sha(ExperimentConfig())
    # Pinned: a new field or a changed default would move every sha.
    assert config_sha(cfg) == "c8900d79fc51"
    assert config_sha(dataclasses.replace(cfg, threads=4)) == "71f36b84fb0e"
    assert len(config_sha(cfg)) == 12
    bumped = dataclasses.replace(cfg, seed=cfg.seed + 1)
    assert config_sha(bumped) != config_sha(cfg)


def test_parser_handles_comments_ranges_and_sweeps():
    text = """
    # comment line
    trials = 5           # trailing comment
    snr_grid_db = 0:10:30
    sweep_receiver = proposed, bench-data-aided
    """
    values, sweeps = parse_config_text(text)
    assert values["trials"] == 5
    assert values["snr_grid_db"] == (0.0, 10.0, 20.0, 30.0)
    assert sweeps == {"receiver": ("proposed", "bench-data-aided")}


def _expanded(start, step, stop):
    # Reference: the parser's loop, which every accepted range must still match.
    grid, v = [], start
    while v <= stop + 1e-9:
        grid.append(round(v, 9))
        v += step
    return tuple(grid)


@pytest.mark.parametrize("start, step, stop", [
    (0, 5, 30), (0, 10, 30), (-10, 2.5, 40), (0, 0.1, 1), (5, 1, 0),
    (0, 1, MAX_SNR_POINTS - 1), (0, 0.003, 0.003 * MAX_SNR_POINTS),
])
def test_range_grids_below_the_ceiling_parse_unchanged(start, step, stop):
    values, _ = parse_config_text(f"snr_grid_db = {start}:{step}:{stop}\n")
    assert values["snr_grid_db"] == _expanded(start, step, stop)


def test_committed_configs_parse_their_range_unchanged():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.cfg")))
    assert paths
    for path in paths:
        cfg, _ = load_config_file(path)
        assert cfg.snr_grid_db == _expanded(0, 5, 30)


@pytest.mark.parametrize("grid", ["0:1e-6:1e6", "0:1:1e300", f"0:1:{MAX_SNR_POINTS + 1}"])
def test_oversized_range_is_rejected_before_it_is_expanded(tmp_path, grid):
    # 0:1e-6:1e6 is 10**12 points; expanding it first hung ``validate``.
    path = tmp_path / "wide.cfg"
    path.write_text(f"snr_grid_db = {grid}\n", encoding="utf-8")
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match=str(MAX_SNR_POINTS)):
        load_config_file(str(path))
    assert time.perf_counter() - t0 < 0.5


def test_validate_bounds_the_grid_length():
    base = ExperimentConfig()
    # Quarter-dB steps keep all 10,000 points inside the ±3,000 dB bound.
    grid = tuple(0.25 * v for v in range(MAX_SNR_POINTS))
    validate_config(dataclasses.replace(base, snr_grid_db=grid))
    for noiseless in (False, True):
        wide = dataclasses.replace(base, snr_grid_db=grid + (math.pi,), noiseless=noiseless)
        with pytest.raises(ConfigError, match=str(MAX_SNR_POINTS)):
            validate_config(wide)


def test_parser_accepts_comma_grids():
    values, _ = parse_config_text("snr_grid_db = 0, 7.5, 15\n")
    assert values["snr_grid_db"] == (0.0, 7.5, 15.0)


@pytest.mark.parametrize(
    "line",
    [
        "unknown_field = 3",
        "trials = not-a-number",
        "no equals sign here",
        "sweep_snr_grid_db = 0,5",
        "noiseless = maybe",
        "sweep_K = 4\nsweep_K = 2",
        "sweep_K =",
        "sweep_K = , ,",
        "K = 3.5",
    ],
)
def test_parser_rejects_malformed_lines(line):
    with pytest.raises(ConfigError) as info:
        parse_config_text(line + "\n")
    if "=" in line:  # the message names the offending key
        assert line.split("=")[0].strip().removeprefix("sweep_") in str(info.value)


_UNDERFLOW = {
    "training": "semi-unitary-dft",
    "inner_model": "physical",
    "alpha": 200.0,
    "spacing": 1.0,
}


@pytest.mark.parametrize(
    "override",
    [
        {"K": 0},
        # One subcarrier: the shared-diagonal fit absorbed the whole channel
        # and reported about -318 dB at every SNR.
        {"K": 1},
        {"N": 15},  # breaks N == D*L
        {"trials": 0},
        {"max_iters": 0},
        {"threads": 0},
        {"seed": -1},
        {"tol": 0.0},
        {"rcond": -1.0},
        # pinv drops every singular value at or below rcond * sigma_max: from
        # rcond = 1 on, a fallback half-step returned an all-zero factor.
        {"rcond": 1.0},
        {"rcond": 2.5},
        {"receiver": "magic"},
        {"training": "hadamard"},
        {"inner_model": "cosmic"},
        {"qam_order": 32},
        {"receiver": "bench-data-aided", "training": "lorentzian"},
        {"inner_model": "physical", "spacing": 0.0},
        {"snr_grid_db": ()},
        {"snr_grid_db": (0.0, float("-inf"))},
        {"snr_grid_db": (float("inf"),)},
        {"snr_grid_db": (10.0, float("nan"))},
        {"snr_grid_db": (float("inf"),), "noiseless": True},
        # 10 ** (snr / 10) in add_noise overflows or vanishes past ±3,000 dB.
        {"snr_grid_db": (0.0, 4000.0)},
        {"snr_grid_db": (-4000.0,)},
        # Non-finite solver and physical values used to pass: tol = inf made
        # every trial "converge" after two iterations, alpha = nan failed
        # every trial.
        {"tol": float("inf")},
        {"rcond": float("inf")},
        {"alpha": float("nan")},
        {"alpha": float("inf"), "inner_model": "physical", "spacing": 1.0},
        {"beta": float("-inf")},
        {"beta": float("nan"), "inner_model": "physical", "spacing": 1.0},
        {"spacing": float("inf")},
        {"spacing": float("nan"), "inner_model": "physical"},
        # A closed-form campaign on an underflowing physical model died on
        # an uncaught ValueError from the first trial.
        {"receiver": "bench-data-aided", **_UNDERFLOW},
        {"receiver": "bench-pilot-aided", **_UNDERFLOW},
        # Under the proposed receiver too: a response that underflows to all
        # zeros was accepted and failed every trial, and one that overflows
        # made numpy print warnings from every trial.
        {"inner_model": "physical", "alpha": 1000.0, "spacing": 1.0},
        {"inner_model": "physical", "beta": 1e300, "spacing": 1e300},
    ],
)
def test_validate_rejects_bad_configs(override):
    cfg = dataclasses.replace(ExperimentConfig(), **override)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected, with no numpy warning
        with pytest.raises(ConfigError):
            validate_config(cfg)


@pytest.mark.parametrize("threads", [0, MAX_THREADS + 1, 10_000])
def test_validate_rejects_threads_outside_the_ceiling(threads, tmp_path):
    # Checked when the config is parsed; no thread is ever started here.
    with pytest.raises(ConfigError, match="threads"):
        validate_config(dataclasses.replace(ExperimentConfig(), threads=threads))
    path = tmp_path / "threads.cfg"
    path.write_text(f"threads = {threads}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="threads"):
        load_config_file(str(path))


def test_validate_accepts_threads_up_to_the_ceiling():
    for threads in (1, 4, MAX_THREADS):
        validate_config(dataclasses.replace(ExperimentConfig(), threads=threads))


def test_validate_warns_that_threads_has_no_effect():
    assert validate_config(ExperimentConfig()) == []
    warned = validate_config(dataclasses.replace(ExperimentConfig(), threads=4))
    assert warned == ["threads=4 has no effect: campaigns run in the calling thread"]


def test_validate_warns_on_rank_deficient_training():
    cfg = dataclasses.replace(ExperimentConfig(), P=8)  # < N = 16
    warnings = validate_config(cfg)
    assert len(warnings) == 1
    assert "full column rank" in warnings[0]


def test_validate_rejects_dft_training_shorter_than_n():
    # The semi-unitary DFT training cannot exist for P < N; it used to pass
    # validation and then fail the campaign mid-run with a ValueError.
    for receiver in ("proposed", "bench-data-aided", "bench-pilot-aided"):
        cfg = dataclasses.replace(
            ExperimentConfig(), P=8, training="semi-unitary-dft", receiver=receiver
        )
        with pytest.raises(ConfigError, match="P >= N"):
            validate_config(cfg)
    square = dataclasses.replace(ExperimentConfig(), P=16, training="semi-unitary-dft")
    assert validate_config(square) == []


def test_validating_two_dft_geometries_keeps_one_training():
    # validate_config builds the DFT training it checks; a sweep of
    # geometries must not keep one training per geometry.
    for p in (32, 64):
        cfg = dataclasses.replace(ExperimentConfig(), P=p, training="semi-unitary-dft")
        assert validate_config(cfg) == []
    assert channels.gen_dft_training.cache_info().currsize == 1
    assert channels.gen_dft_training(64, 16) is channels.gen_dft_training(64, 16)


def test_validate_accepts_underflow_only_where_no_weight_needs_it():
    # With alpha * spacing = 200, |m|^2 = exp(-400 l) underflows to 0 from
    # the second element on, so the closed-form weight 1/|m|^2 is infinite;
    # the iterative receiver uses no such weights, and a milder damping
    # keeps the weights finite.
    base = dataclasses.replace(ExperimentConfig(), **_UNDERFLOW)
    assert validate_config(base) == []
    for receiver in ("bench-data-aided", "bench-pilot-aided"):
        with pytest.raises(ConfigError, match="underflows"):
            validate_config(dataclasses.replace(base, receiver=receiver))
        damped = dataclasses.replace(base, receiver=receiver, alpha=1.0)
        assert validate_config(damped) == []


def test_validate_warns_where_closed_form_scores_near_overflow():
    # The closed forms scale the noise by 1/|m|^2: at the desk geometry they
    # file every trial as DegenerateMetricFit at -2000 dB, and a response
    # damped to 1/|m|^2 of about 4e260 scores NMSE(m) near 1,300 dB at 0 dB.
    desk = dataclasses.replace(ExperimentConfig(), training="semi-unitary-dft")
    damped = dataclasses.replace(
        desk, K=3, T=2, P=8, N=4, D=2, L=2, inner_model="physical",
        alpha=300.0, beta=1.0, spacing=0.5, snr_grid_db=(0.0,),
    )
    for receiver in ("bench-data-aided", "bench-pilot-aided"):
        for cfg in (
            dataclasses.replace(desk, snr_grid_db=(30.0, -1000.5)),
            damped,
            dataclasses.replace(damped, noiseless=True),
        ):
            cfg = dataclasses.replace(cfg, receiver=receiver)
            (note,) = validate_config(cfg)
            assert "DegenerateMetricFit" in note and receiver in note
        assert validate_config(
            dataclasses.replace(desk, receiver=receiver, snr_grid_db=(-1000.0,))
        ) == []
        assert validate_config(
            dataclasses.replace(desk, receiver=receiver, noiseless=True,
                                snr_grid_db=(-3000.0,))
        ) == []
    # The iterative receiver applies no such weight.
    assert validate_config(dataclasses.replace(damped, snr_grid_db=(-3000.0,))) == []


def test_a_partly_underflowing_physical_model_still_runs_under_proposed():
    # Of exp(-200 l), l = 1..4, only the last entry underflows to zero: the
    # response is usable.
    cfg = dataclasses.replace(
        ExperimentConfig(), inner_model="physical", alpha=200.0, spacing=1.0,
        trials=2, snr_grid_db=(10.0,),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_config(cfg) == []
        (row,) = run_campaign(cfg)
    assert (row.trials, row.failed) == (2, 0)


def test_noiseless_config_tolerates_an_empty_grid():
    cfg = dataclasses.replace(ExperimentConfig(), noiseless=True, snr_grid_db=())
    assert validate_config(cfg) == []


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("trials = 3\nseed = 5\n", encoding="utf-8")
    cfg, sweeps = load_config_file(str(path))
    assert cfg.trials == 3
    assert cfg.seed == 5
    assert sweeps == {}


def test_load_config_file_rejects_a_single_subcarrier(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("K = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="shared-diagonal"):
        load_config_file(str(path))
    path.write_text("K = 2\n", encoding="utf-8")
    assert load_config_file(str(path))[0].K == 2


@pytest.mark.parametrize("grid", ["-inf", "0:5:inf", "-inf:5:0", "0:nan:10"])
def test_load_config_file_rejects_non_finite_snr(tmp_path, grid):
    # Non-finite SNRs used to be accepted: -inf/inf ran noise-free, nan failed
    # every trial, and a range reaching an infinity never stopped growing.
    # Only ``noiseless = true`` selects the noise-free point.
    path = tmp_path / "exp.cfg"
    path.write_text(f"snr_grid_db = {grid}\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(path))
