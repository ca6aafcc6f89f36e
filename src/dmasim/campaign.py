"""Monte Carlo campaign driver.

Determinism contract: every trial derives its own generators from
``default_rng([seed, snr_index, trial_index, quantity_tag])``, one
generator per random quantity (channel, inner response, symbols, training,
noise, solver init).  Results are stored by trial index and aggregated in
that fixed order, so the scientific outputs are identical for any
``threads`` setting and any scheduling.  Wall-clock runtime is the one
environment-dependent quantity; with ``timing = false`` the CSV puts
``nan`` in its column, making the whole file byte-reproducible, while the
JSON summary always carries the measured values.

The per-SNR error metrics declare their ambiguity handling explicitly: the
per-column (diagonal) scaling shared between the channel estimate and the
inner-response estimate is fitted once against the true channel by least
squares, applied to both, and recorded in the CSV header as
``nmse_fit=shared-diagonal``.
"""

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .benchmarks import data_aided_estimate, pilot_aided_estimate
from .channels import (
    GenerationError,
    gen_dft_training,
    gen_inner_physical,
    gen_inner_random_phase,
    gen_lorentzian_training,
    gen_pilots,
    gen_qam,
    gen_wireless,
)
from .config import ExperimentConfig, config_sha, validate_config
from .metrics import diagonal_fit, nmse, ser, to_db
from .receiver import (
    BalsConfig,
    EstimationError,
    flop_estimate,
    two_stage_estimate,
)
from .signals import add_noise, build_noiseless, build_rank_one

# RNG substream tags, one per random quantity drawn in a trial.
_TAG_CHANNEL, _TAG_INNER, _TAG_SYMBOLS, _TAG_TRAINING, _TAG_NOISE, _TAG_INIT = range(6)

CSV_HEADER = "snr_db,nmse_H_db,nmse_m_db,ser,mean_iters,mean_runtime_s,trials,failed"
CSV_SCHEMA = "dmasim-results-v1"
SUMMARY_SCHEMA = "dmasim-summary-v2"
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
    failure_categories: dict


def _trial_rng(seed: int, snr_idx: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, snr_idx, trial, tag])


def _draw_inner(cfg: ExperimentConfig, rng: np.random.Generator):
    if cfg.inner_model == "physical":
        return gen_inner_physical(cfg.D, cfg.L, cfg.alpha, cfg.beta, cfg.spacing)
    return gen_inner_random_phase(cfg.N, rng)


def run_trial(
    cfg: ExperimentConfig, snr_db: float, snr_idx: int, trial: int
) -> TrialResult:
    """One Monte Carlo trial: draw a scene, run the configured receiver,
    score it against the ground truth."""
    try:
        h_true = gen_wireless(
            cfg.K, cfg.N, _trial_rng(cfg.seed, snr_idx, trial, _TAG_CHANNEL)
        )
        m_true = _draw_inner(cfg, _trial_rng(cfg.seed, snr_idx, trial, _TAG_INNER))
        pilot_mode = cfg.receiver == "bench-pilot-aided"
        if pilot_mode:
            s_true = gen_pilots(cfg.T)
        else:
            s_true = gen_qam(
                cfg.T, cfg.qam_order,
                _trial_rng(cfg.seed, snr_idx, trial, _TAG_SYMBOLS),
            )
        if cfg.training == "lorentzian":
            f = gen_lorentzian_training(
                cfg.P, cfg.N, _trial_rng(cfg.seed, snr_idx, trial, _TAG_TRAINING)
            )
        else:
            f = gen_dft_training(cfg.P, cfg.N)
        x_true = build_rank_one(s_true, m_true)
        rt = build_noiseless(h_true, x_true, f)
        rt = add_noise(rt, snr_db, _trial_rng(cfg.seed, snr_idx, trial, _TAG_NOISE))

        if cfg.receiver == "proposed":
            report = two_stage_estimate(
                rt.y,
                f,
                s1_ref=s_true[0],
                cfg=BalsConfig(
                    max_iters=cfg.max_iters, tol=cfg.tol, rcond=cfg.rcond
                ),
                rng=_trial_rng(cfg.seed, snr_idx, trial, _TAG_INIT),
            )
        elif cfg.receiver == "bench-data-aided":
            report = data_aided_estimate(
                rt.y, f, x_true=x_true, h_true=h_true, m_true=m_true,
                s1_ref=s_true[0],
            )
        else:
            report = pilot_aided_estimate(
                rt.y, f, h_true=h_true, m_true=m_true, pilots=s_true
            )
    except (GenerationError, EstimationError) as exc:
        return TrialResult(failed=type(exc).__name__)

    # Shared-diagonal metric protocol: one per-column scaling, fitted on the
    # channel estimate, applied consistently to both coupled estimates.
    delta = diagonal_fit(report.h_hat, h_true)
    with np.errstate(divide="ignore", invalid="ignore"):
        nmse_h = nmse(report.h_hat * delta, h_true)
        m_corr = np.where(delta != 0, report.m_hat / delta, np.inf)
        nmse_m = nmse(m_corr, m_true)
    if not (np.isfinite(nmse_h) and np.isfinite(nmse_m)):
        return TrialResult(failed="DegenerateMetricFit")
    trial_ser = (
        math.nan
        if pilot_mode
        else ser(report.s_hat, s_true, cfg.qam_order, anchor_index=0)
    )
    return TrialResult(
        nmse_h=nmse_h,
        nmse_m=nmse_m,
        ser=trial_ser,
        iterations=report.iterations,
        runtime_s=report.runtime_s,
        converged=report.converged,
        failed=None,
    )


def _aggregate(snr_db: float, trials: list[TrialResult]) -> MetricRow:
    good = [t for t in trials if t.failed is None]
    failed = [t for t in trials if t.failed is not None]
    categories: dict = {}
    for t in failed:
        categories[t.failed] = categories.get(t.failed, 0) + 1
    if good:
        nmse_h_db = to_db(float(np.mean([t.nmse_h for t in good])))
        nmse_m_db = to_db(float(np.mean([t.nmse_m for t in good])))
        sers = [t.ser for t in good]
        mean_ser = math.nan if all(math.isnan(v) for v in sers) else float(
            np.mean(sers)
        )
        mean_iters = float(np.mean([t.iterations for t in good]))
        mean_runtime = float(np.mean([t.runtime_s for t in good]))
        converged_fraction = float(np.mean([t.converged for t in good]))
    else:
        nmse_h_db = nmse_m_db = mean_ser = mean_iters = mean_runtime = math.nan
        converged_fraction = math.nan
    return MetricRow(
        snr_db=snr_db,
        nmse_h_db=nmse_h_db,
        nmse_m_db=nmse_m_db,
        ser=mean_ser,
        mean_iters=mean_iters,
        mean_runtime_s=mean_runtime,
        trials=len(good),
        failed=len(failed),
        converged_fraction=converged_fraction,
        failure_categories=categories,
    )


def snr_grid(cfg: ExperimentConfig) -> tuple[float, ...]:
    return (math.inf,) if cfg.noiseless else tuple(cfg.snr_grid_db)


def run_campaign(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> list[MetricRow]:
    """Run the full campaign; optionally write results.csv and summary.json
    into ``out_dir``.  Returns one MetricRow per SNR point."""
    validate_config(cfg)
    grid = snr_grid(cfg)
    tasks = [(si, ti) for si in range(len(grid)) for ti in range(cfg.trials)]
    results: list[list[TrialResult | None]] = [
        [None] * cfg.trials for _ in grid
    ]
    if cfg.threads == 1:
        for si, ti in tasks:
            results[si][ti] = run_trial(cfg, grid[si], si, ti)
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            out = pool.map(
                lambda args: run_trial(cfg, grid[args[0]], args[0], args[1]),
                tasks,
            )
            for (si, ti), res in zip(tasks, out):
                results[si][ti] = res
    rows = [_aggregate(grid[si], results[si]) for si in range(len(grid))]
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
        runtime = row.mean_runtime_s if cfg.timing else math.nan
        lines.append(
            ",".join(
                (
                    _fmt(row.snr_db),
                    _fmt(row.nmse_h_db),
                    _fmt(row.nmse_m_db),
                    _fmt(row.ser),
                    _fmt(row.mean_iters),
                    _fmt(runtime),
                    _fmt(row.trials),
                    _fmt(row.failed),
                )
            )
        )
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
        "oracle_side_information": _oracle_note(cfg.receiver),
        "wall_clock_fields_nondeterministic": ["rows[].mean_runtime_s"],
        "rows": [
            {
                "snr_db": row.snr_db,
                "nmse_H_db": row.nmse_h_db,
                "nmse_m_db": row.nmse_m_db,
                "ser": row.ser,
                "mean_iters": row.mean_iters,
                "mean_runtime_s": row.mean_runtime_s,
                "trials": row.trials,
                "failed": row.failed,
                "converged_fraction": row.converged_fraction,
                "failure_categories": row.failure_categories,
            }
            for row in rows
        ],
    })


def _oracle_note(receiver: str) -> list[str]:
    if receiver == "bench-data-aided":
        return [
            "channel estimate uses the true symbol block and true inner-response moduli",
            "symbol-block estimate uses the true channel and its column energies",
        ]
    if receiver == "bench-pilot-aided":
        return [
            "channel estimate uses the known pilots, true inner response and its moduli",
            "inner-response estimate uses the true channel and its column energies",
        ]
    return []


def write_summary_json(
    path: str, rows: list[MetricRow], cfg: ExperimentConfig
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            summary_dict(rows, cfg), fh, indent=2, sort_keys=True, allow_nan=False
        )
        fh.write("\n")
