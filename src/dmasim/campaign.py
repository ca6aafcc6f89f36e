"""Monte Carlo campaign driver.

Each trial runs three stages: ``draw_scene`` draws the ground truth and
builds its noisy received tensor, ``estimate`` runs the configured receiver
on it, and ``score`` compares the estimates with the ground truth.  The
stages run on blocks of consecutive trials, as arrays with a leading trial
axis: many small per-trial array operations become one operation on the
block.  A trial is named by its SNR index and trial index: ``run_trial(cfg,
snr_idx, trial)`` returns its result from the block that holds it, computed
once (``_run_block``), and ``draw_scene`` reads the SNR from
``snr_grid(cfg)[snr_idx]``.  The block size follows from the size of one
received tensor (``_BLOCK_BYTES``), and no result depends on it.
A block's peak memory is about twice its received tensors: the tensors
are built into one array a few trials at a time and dropped before
scoring.
Each block's estimate stage is timed as a whole and the time shared evenly
among its trials.

Determinism contract: every trial draws each random quantity (channel,
inner response, symbols, training, noise, solver init) from exactly the
stream of ``default_rng([seed, snr_index, trial_index, quantity_tag])``.
The generators' seed words are computed in windows of ``_SEED_BLOCK``
trials by a vectorised port of numpy's ``SeedSequence`` hash, checked
against numpy once per window (``_trial_rng``).  Each trial's draws still
come from its own streams, so a trial's result is the same in a block of
any size, and an exception in a block (a failed draw or estimate) reruns
the block one trial at a time, so that only the trials at fault fail.
Every trial runs in the calling thread, in trial order, and each SNR point
is aggregated before the next starts; ``threads`` is recorded but has no
effect on the run.  Wall-clock runtime is the one environment-dependent
quantity; with ``timing = false`` the CSV puts ``nan`` in its column,
making the whole file byte-reproducible, while the JSON summary always
carries the measured values.

The per-SNR error metrics declare their ambiguity handling explicitly: the
per-column (diagonal) scaling shared between the channel estimate and the
inner-response estimate is fitted once against the true channel by least
squares, applied to both, and recorded in the CSV header as
``nmse_fit=shared-diagonal``.
"""

import dataclasses
import functools
import json
import math
import os
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import __version__
from .benchmarks import data_aided_estimate, pilot_aided_estimate
from .channels import (
    GenerationError,
    gen_dft_training,
    gen_inner_physical,
    gen_inner_random_phase,
    gen_lorentzian_training,
    gen_pilots,
    gen_qam,  # noqa: F401  (bench/child.py traces campaign.gen_qam)
    gen_wireless,
    qam_alphabet,
    qam_indices,
)
from .config import ExperimentConfig, config_sha, validate_config
from .metrics import diagonal_fit, nmse, ser, to_db
from .receiver import (
    BalsConfig,
    EstimateReport,
    EstimationError,
    flop_estimate,
    two_stage_estimate,
)
from .signals import add_noise, build_noiseless, build_rank_one

# RNG substream tags, one per random quantity drawn in a trial.
_TAG_CHANNEL, _TAG_INNER, _TAG_SYMBOLS, _TAG_TRAINING, _TAG_NOISE, _TAG_INIT = range(6)

# (output column, MetricRow field) in CSV order; the summary rows add the
# MetricRow fields in _SUMMARY_ONLY.
_COLUMNS = (
    ("snr_db", "snr_db"),
    ("nmse_H_db", "nmse_h_db"),
    ("nmse_m_db", "nmse_m_db"),
    ("ser", "ser"),
    ("mean_iters", "mean_iters"),
    ("mean_runtime_s", "mean_runtime_s"),
    ("trials", "trials"),
    ("failed", "failed"),
)
_SUMMARY_ONLY = (
    "converged_fraction", "iters_p50", "iters_p90", "iters_max", "max_iters_hit",
    "failure_categories",
)
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
CSV_SCHEMA = "dmasim-results-v1"
SUMMARY_SCHEMA = "dmasim-summary-v3"
NMSE_FIT_LABEL = "shared-diagonal"


@dataclass(frozen=True)
class TrialResult:
    nmse_h: float = math.nan
    nmse_m: float = math.nan
    ser: float = math.nan
    iterations: int = 0
    runtime_s: float = math.nan
    converged: bool = False
    failed: str | None = None  # failure category, None on success


@dataclass(frozen=True)
class MetricRow:
    snr_db: float
    nmse_h_db: float
    nmse_m_db: float
    ser: float
    mean_iters: float
    mean_runtime_s: float
    trials: int  # successful trials contributing to the means
    failed: int
    converged_fraction: float
    iters_p50: float  # nearest-rank iteration counts of the successful trials
    iters_p90: float
    iters_max: float
    max_iters_hit: int  # successful trials that stopped unconverged
    failure_categories: dict


@dataclass(frozen=True)
class Scene:
    """The ground truth of a block of B trials and their noisy received
    tensors, each array with a leading trial axis."""

    h: np.ndarray  # channel (B, K, N)
    m: np.ndarray  # inner response (B, N)
    s: np.ndarray  # symbols, or the pilot block (B, T)
    s_idx: np.ndarray | None  # the symbols' alphabet indices; None for pilots
    f: np.ndarray  # training (B, P, N), or (P, N) when shared by every trial
    y: np.ndarray | None  # received tensor (B, K, T, P); None once estimated
    snr_idx: int
    trials: range


@dataclass(frozen=True)
class Receiver:
    """What a receiver is and needs, as its ``RECEIVERS`` entry states it."""

    estimate: Callable[[ExperimentConfig, Scene], EstimateReport]
    pilots: bool = False  # the scene sends the pilot block, not symbols
    closed_form: bool = False  # needs semi-unitary training and finite 1/|m|^2
    oracle: tuple[str, ...] = ()  # the ground truth it reads, as the summary notes


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), fixed
# by its stream-compatibility policy.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
_SEED_BLOCK = 256  # trials whose seed words are computed together


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix``, elementwise on uint32 arrays."""

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _MASK32)
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


def _seed_block(seed: int, snr_idx: int, start: int) -> np.ndarray:
    """``SeedSequence([seed, snr_idx, trial, tag]).generate_state(4, uint64)``
    for ``_SEED_BLOCK`` trials from ``start`` and every tag, as a read-only
    (trial, tag, 4) array: numpy's ``mix_entropy`` run on whole columns.
    ``seed`` and ``snr_idx`` must be below 2**32, one entropy word each."""
    entropy = [
        np.array([[seed]], np.uint32),
        np.array([[snr_idx]], np.uint32),
        (np.arange(start, start + _SEED_BLOCK) & _MASK32).astype(np.uint32)[:, None],
        np.arange(_TAG_INIT + 1, dtype=np.uint32)[None, :],
    ]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = np.broadcast_arrays(*(hashmix(pool[i % 4]) for i in range(8)))
    words = np.stack(out, axis=-1).astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """Seed words computed ahead, handed to ``PCG64`` as if from a
    ``SeedSequence``; PCG64 asks for exactly four uint64 words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("seed words are computed for PCG64 only")
        return self.words


@functools.lru_cache(maxsize=2)
def _checked_block(seed: int, snr_idx: int, start: int) -> np.ndarray | None:
    """``_seed_block(seed, snr_idx, start)``, or None when its first row does
    not seed the stream ``default_rng`` gives.  The last two windows are
    kept: a trial block spans at most two (``_block_size``), and each
    quantity's draws walk it in trial order."""
    words = _seed_block(seed, snr_idx, start)
    want = np.random.default_rng([seed, snr_idx, start, 0]).bit_generator.state
    if np.random.PCG64(_SeedWords(words[0, 0])).state != want:
        return None
    return words


def _trial_rng(seed: int, snr_idx: int, trial: int, tag: int) -> np.random.Generator:
    """A new generator on exactly the stream of ``default_rng([seed, snr_idx,
    trial, tag])``.  Its seed words come from the block of ``_SEED_BLOCK``
    trials that holds ``trial`` (``_checked_block``); a block that fails its
    check, and entropy of another word layout (a seed, SNR index or trial
    index of 2**32 or more), go through ``default_rng`` itself."""
    if not (0 <= seed <= _MASK32 and 0 <= snr_idx <= _MASK32
            and 0 <= trial <= _MASK32 and 0 <= tag <= _TAG_INIT):
        return np.random.default_rng([seed, snr_idx, trial, tag])
    start = trial - trial % _SEED_BLOCK
    words = _checked_block(seed, snr_idx, start)
    if words is None:
        return np.random.default_rng([seed, snr_idx, trial, tag])
    return np.random.Generator(np.random.PCG64(_SeedWords(words[trial - start, tag])))


def _check_key(cfg: ExperimentConfig, snr_idx: int, trial: int) -> None:
    points = len(snr_grid(cfg))
    if not (0 <= snr_idx < points and trial >= 0):
        raise ValueError(f"no trial {trial} at SNR index {snr_idx} (grid of {points})")


def draw_scene(cfg: ExperimentConfig, snr_idx: int, trials: range) -> Scene:
    """Draw the ground truth of a block of trials and build their received
    tensors at the SNR ``snr_grid(cfg)[snr_idx]``; a receiver whose
    ``RECEIVERS`` entry has ``pilots`` sends the pilot block.  A single
    trial is a block of one.  An index off the grid or below 0 raises ValueError."""
    def rngs(tag: int) -> list[np.random.Generator]:
        return [_trial_rng(cfg.seed, snr_idx, trial, tag) for trial in trials]

    _check_key(cfg, snr_idx, min(trials, default=0))
    h = gen_wireless(cfg.K, cfg.N, rngs(_TAG_CHANNEL))
    if cfg.inner_model == "physical":
        m = gen_inner_physical(cfg.D, cfg.L, cfg.alpha, cfg.beta, cfg.spacing)
        m = np.broadcast_to(m, (len(trials), cfg.N))
    else:
        m = gen_inner_random_phase(cfg.N, rngs(_TAG_INNER))
    if RECEIVERS[cfg.receiver].pilots:
        s, s_idx = np.broadcast_to(gen_pilots(cfg.T), (len(trials), cfg.T)), None
    else:
        s_idx = qam_indices(cfg.T, cfg.qam_order, rngs(_TAG_SYMBOLS))
        s = qam_alphabet(cfg.qam_order)[s_idx]
    if cfg.training == "lorentzian":
        f = gen_lorentzian_training(cfg.P, cfg.N, rngs(_TAG_TRAINING))
    else:
        f = gen_dft_training(cfg.P, cfg.N)
    noiseless = build_noiseless(h, build_rank_one(s, m), f)
    snr_db = snr_grid(cfg)[snr_idx]
    y = add_noise(noiseless, snr_db, rngs(_TAG_NOISE), out=noiseless.y).y
    return Scene(h=h, m=m, s=s, s_idx=s_idx, f=f, y=y, snr_idx=snr_idx, trials=trials)


def _proposed(cfg: ExperimentConfig, scene: Scene) -> EstimateReport:
    rng = [_trial_rng(cfg.seed, scene.snr_idx, t, _TAG_INIT) for t in scene.trials]
    bals = BalsConfig(max_iters=cfg.max_iters, tol=cfg.tol, rcond=cfg.rcond)
    return two_stage_estimate(scene.y, scene.f, s1_ref=scene.s[:, 0], cfg=bals, rng=rng)


# Every receiver, by config name.  An entry's estimate looks its estimator
# up in this module when it runs, so the benchmark's tracer (bench/child.py)
# sees the calls it patches in here.
RECEIVERS = {
    "proposed": Receiver(_proposed),
    "bench-data-aided": Receiver(
        lambda cfg, scene: data_aided_estimate(
            scene.y, scene.f, s_true=scene.s, h_true=scene.h, m_true=scene.m
        ),
        closed_form=True,
        oracle=(
            "channel estimate uses the true symbol block and true inner-response moduli",
            "symbol-block estimate uses the true channel and its column energies",
        ),
    ),
    "bench-pilot-aided": Receiver(
        lambda cfg, scene: pilot_aided_estimate(
            scene.y, scene.f, h_true=scene.h, m_true=scene.m, pilots=scene.s
        ),
        pilots=True,
        closed_form=True,
        oracle=(
            "channel estimate uses the known pilots, true inner response and its moduli",
            "inner-response estimate uses the true channel and its column energies",
        ),
    ),
}


def estimate(cfg: ExperimentConfig, scene: Scene) -> EstimateReport:
    """Run the configured receiver on the scene's received tensors.  The
    closed-form references read their oracle inputs from the scene."""
    return RECEIVERS[cfg.receiver].estimate(cfg, scene)


def score(
    cfg: ExperimentConfig, scene: Scene, report: EstimateReport, runtime_s: float
) -> list[TrialResult]:
    """Score each trial's estimates against the scene's ground truth under
    the shared-diagonal protocol: one per-column scaling, fitted on the
    channel estimate, applied consistently to both coupled estimates."""
    # Far below 0 dB, or with closed-form weights 1/|m|^2 far above 1, the
    # estimates pass 1e154: the fit, m_hat / delta and its NMSE overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = diagonal_fit(report.h_hat, scene.h)
        nmse_h = nmse(report.h_hat * delta[:, None, :], scene.h, ndim=2)
        m_corr = np.where(delta != 0, report.m_hat / delta, np.inf)
        nmse_m = nmse(m_corr, scene.m, ndim=1)
    block = len(scene.trials)
    if scene.s_idx is None:
        trial_ser = np.full(block, math.nan)
    else:
        trial_ser = ser(report.s_hat, scene.s_idx, cfg.qam_order)
    columns = zip(
        nmse_h.tolist(), nmse_m.tolist(), trial_ser.tolist(),
        np.broadcast_to(report.iterations, block).tolist(),
        np.broadcast_to(report.converged, block).tolist(),
    )
    return [
        TrialResult(
            nmse_h=h, nmse_m=m, ser=s, iterations=iterations,
            runtime_s=runtime_s, converged=converged,
        )
        if math.isfinite(h) and math.isfinite(m)
        else TrialResult(failed="DegenerateMetricFit")
        for h, m, s, iterations, converged in columns
    ]


# Received-tensor bytes a block of trials holds at once (a complex entry is
# 16 bytes): 25 trials at the desk geometry, four at the scaled geometry.
# At its peak a desk block holds about twice this: the noiseless build
# (``parafac_build``) forms the Khatri-Rao products of a few trials at a
# time, and the tensors go before scoring.
_BLOCK_BYTES = 1024 * 1024


def _block_size(cfg: ExperimentConfig) -> int:
    """Trials per block: ``_BLOCK_BYTES`` of received tensors, at most a seed
    window's ``_SEED_BLOCK`` trials, so that a block spans two windows at most."""
    return max(1, min(_SEED_BLOCK, _BLOCK_BYTES // (16 * cfg.K * cfg.T * cfg.P)))


@functools.lru_cache(maxsize=1)
def _run_block(
    cfg: ExperimentConfig, snr_idx: int, start: int, stop: int
) -> tuple[TrialResult, ...]:
    """Draw, estimate and score trials ``start`` to ``stop``; the last block
    is kept.  A block that raises runs again one trial at a time, so only
    the trials at fault fail."""
    trials = range(start, stop)
    try:
        scene = draw_scene(cfg, snr_idx, trials)
        t0 = time.perf_counter()
        report = estimate(cfg, scene)
        runtime_s = (time.perf_counter() - t0) / len(trials)
    except (GenerationError, EstimationError) as exc:
        if len(trials) == 1:
            return (TrialResult(failed=type(exc).__name__),)
        return tuple(_run_block(cfg, snr_idx, trial, trial + 1)[0] for trial in trials)
    # Scoring reads only the ground truth: the received tensors go first.
    scene = dataclasses.replace(scene, y=None)
    return tuple(score(cfg, scene, report, runtime_s))


def run_trial(cfg: ExperimentConfig, snr_idx: int, trial: int) -> TrialResult:
    """Trial ``trial`` of the SNR point ``snr_idx``: draw the scene, estimate,
    score, as part of the block of trials that holds it.  The runtime is the
    block's estimate-stage wall-clock time, shared evenly among its trials."""
    _check_key(cfg, snr_idx, trial)
    size = _block_size(cfg)
    start = trial - trial % size
    stop = max(min(start + size, cfg.trials), trial + 1)
    return _run_block(cfg, snr_idx, start, stop)[trial - start]


def _aggregate(snr_db: float, trials: list[TrialResult]) -> MetricRow:
    good = [t for t in trials if t.failed is None]
    failed = [t.failed for t in trials if t.failed is not None]

    def mean(field: str) -> float:
        # NaN when no trial survived.
        return float(np.mean([getattr(t, field) for t in good])) if good else math.nan

    iters = sorted(t.iterations for t in good)

    def percentile(pct: int) -> float:
        # Nearest rank: the smallest count that pct % of the trials do not exceed.
        return iters[-(-len(iters) * pct // 100) - 1] if iters else math.nan
    return MetricRow(
        snr_db=snr_db,
        nmse_h_db=to_db(mean("nmse_h")),
        nmse_m_db=to_db(mean("nmse_m")),
        ser=mean("ser"),  # NaN for pilot blocks, which carry no SER
        mean_iters=mean("iterations"),
        mean_runtime_s=mean("runtime_s"),
        trials=len(good),
        failed=len(failed),
        converged_fraction=mean("converged"),
        iters_p50=percentile(50),
        iters_p90=percentile(90),
        iters_max=percentile(100),
        max_iters_hit=sum(not t.converged for t in good),
        failure_categories=dict(Counter(failed)),
    )


def snr_grid(cfg: ExperimentConfig) -> tuple[float, ...]:
    return (math.inf,) if cfg.noiseless else tuple(cfg.snr_grid_db)


def run_campaign(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> list[MetricRow]:
    """Run the campaign in the calling thread, one SNR point at a time and
    each point's trials in order; optionally write results.csv and
    summary.json into ``out_dir``.  Returns one MetricRow per SNR point.
    No trial result is kept from an earlier campaign."""
    validate_config(cfg)
    _run_block.cache_clear()
    rows = []
    for si, snr in enumerate(snr_grid(cfg)):
        trials = [run_trial(cfg, si, trial) for trial in range(cfg.trials)]
        rows.append(_aggregate(snr, trials))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_results_csv(os.path.join(out_dir, "results.csv"), rows, cfg)
        write_summary_json(os.path.join(out_dir, "summary.json"), rows, cfg)
    return rows


def _fmt(value) -> str:
    """Shortest round-trip decimal rendering; deterministic for equal floats."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_csv(rows: list[MetricRow], cfg: ExperimentConfig) -> str:
    meta = (
        f"# {CSV_SCHEMA} receiver={cfg.receiver} training={cfg.training} "
        f"inner={cfg.inner_model} qam={cfg.qam_order} seed={cfg.seed} "
        f"nmse_fit={NMSE_FIT_LABEL} config_sha={config_sha(cfg)}"
    )
    lines = [meta, CSV_HEADER]
    for row in rows:
        if not cfg.timing:
            row = dataclasses.replace(row, mean_runtime_s=math.nan)
        lines.append(",".join(_fmt(getattr(row, field)) for _, field in _COLUMNS))
    return "\n".join(lines) + "\n"


def write_results_csv(
    path: str, rows: list[MetricRow], cfg: ExperimentConfig
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(rows, cfg))


def _strict(value):
    """``value`` with every non-finite float replaced by None, so the summary
    is valid JSON (which has no NaN or Infinity) under strict parsers."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def summary_dict(rows: list[MetricRow], cfg: ExperimentConfig) -> dict:
    """The JSON summary; NaN (no survivors, no SER for pilots) and the
    infinite SNR of a noiseless run are written as null."""
    return _strict({
        "format": SUMMARY_SCHEMA,
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "config_sha": config_sha(cfg),
        "seed": cfg.seed,
        "nmse_fit": NMSE_FIT_LABEL,
        "per_iteration_flops": flop_estimate(cfg.K, cfg.T, cfg.P, cfg.N),
        "oracle_side_information": RECEIVERS[cfg.receiver].oracle,
        "wall_clock_fields_nondeterministic": ["rows[].mean_runtime_s"],
        "rows": [
            {
                **{name: getattr(row, field) for name, field in _COLUMNS},
                **{field: getattr(row, field) for field in _SUMMARY_ONLY},
            }
            for row in rows
        ],
    })


def write_summary_json(
    path: str, rows: list[MetricRow], cfg: ExperimentConfig
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            summary_dict(rows, cfg), fh, indent=2, sort_keys=True, allow_nan=False
        )
        fh.write("\n")
