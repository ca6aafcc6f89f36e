"""Campaign configuration: dataclass, validation, and the flat key-value
config-file format.

Config files are plain text, one ``key = value`` pair per line; ``#``
starts a comment and blank lines are ignored.  Keys match the
:class:`ExperimentConfig` field names exactly.  ``snr_grid_db`` accepts a
comma list (``0,5,10``) or a ``start:step:stop`` range (``0:5:30``,
inclusive).  Booleans are ``true``/``false``.  Keys of the form
``sweep_<field> = v1,v2,...`` do not configure the base campaign; they
declare a grid for the ``sweep`` command and are returned separately
(each field at most once, with at least one value).
"""

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

TRAININGS = ("lorentzian", "semi-unitary-dft")
INNER_MODELS = ("random-phase", "physical")
# ``threads`` has no effect today: campaigns run in the calling thread.  It is
# bounded because it is meant to count worker processes again, and a typo such
# as threads = 10000 would then start that many.
MAX_THREADS = 256
# Checked before a range is expanded: 0:1e-6:1e6 would be 10**12 points.
MAX_SNR_POINTS = 10_000
# add_noise scales by 10 ** (snr_db / 10), which overflows near +3,083 dB and
# reaches zero near -3,234 dB; within this bound it stays a normal double.
MAX_ABS_SNR_DB = 3_000.0
# The closed forms scale the noise by 1/|m|^2.  Their NMSE(m) reads about
# 2,000 dB at -1,000 dB SNR, and 500 dB at 0 dB with a largest weight of 1e100;
# past about 3,080 dB it leaves the float range and the trial fails.
CLOSED_FORM_MIN_SNR_DB = -1_000.0
CLOSED_FORM_MAX_WEIGHT = 1e100


class ConfigError(ValueError):
    """Raised for malformed or inconsistent campaign configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    K: int = 8  # subcarriers
    T: int = 10  # symbols per block
    P: int = 32  # training slots
    N: int = 16  # radiating elements (must equal D * L)
    D: int = 4  # waveguides
    L: int = 4  # elements per waveguide
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    trials: int = 10_000
    receiver: str = "proposed"
    training: str = "lorentzian"
    inner_model: str = "random-phase"
    alpha: float = 0.0
    beta: float = 0.0
    spacing: float = 0.0
    qam_order: int = 64
    seed: int = 0
    tol: float = 1e-6
    max_iters: int = 1000
    rcond: float = 1e-12
    threads: int = 1
    noiseless: bool = False
    timing: bool = True


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_snr_grid(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"snr_grid_db range must be start:step:stop, got {raw!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ConfigError(f"snr_grid_db range must be finite, got {raw!r}")
        if step <= 0:
            raise ConfigError("snr_grid_db range step must be positive")
        if (stop - start) / step > MAX_SNR_POINTS:
            raise ConfigError(f"snr_grid_db range has more than {MAX_SNR_POINTS} points")
        grid = []
        v = start
        while v <= stop + 1e-9:
            grid.append(round(v, 9))
            v += step
        return tuple(grid)
    return tuple(float(p) for p in raw.split(",") if p.strip())


def coerce_value(key: str, raw: str):
    """Convert one raw config string to the type ``ExperimentConfig``
    declares for ``key``."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if key == "snr_grid_db":
            return _parse_snr_grid(raw)
        return _parse_bool(raw, key) if kind is bool else kind(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_text(text: str) -> tuple[dict, dict]:
    """Parse config-file text into (field values, sweep grids)."""
    values: dict = {}
    sweeps: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key.startswith("sweep_"):
            target = key[len("sweep_"):]
            if target not in _FIELD_TYPES or target == "snr_grid_db":
                raise ConfigError(f"line {lineno}: cannot sweep {target!r}")
            if target in sweeps:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            sweeps[target] = tuple(
                coerce_value(target, part) for part in raw.split(",") if part.strip()
            )
            if not sweeps[target]:
                raise ConfigError(f"line {lineno}: {key} lists no values")
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = coerce_value(key, raw)
    return values, sweeps


def load_config_file(path: str) -> tuple[ExperimentConfig, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    values, sweeps = parse_config_text(text)
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg, sweeps


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Raise ConfigError on hard violations; return advisory warnings."""
    warnings: list[str] = []
    for name in ("K", "T", "P", "N", "D", "L"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    if cfg.K < 2:
        # The shared-diagonal scoring protocol fits one scale per channel
        # column; with one subcarrier that scale absorbs the whole estimate.
        raise ConfigError(
            "K must be >= 2: with K = 1 the shared-diagonal NMSE fit absorbs "
            "the whole channel estimate and reports a meaningless floor"
        )
    if cfg.N != cfg.D * cfg.L:
        raise ConfigError(f"N must equal D*L, got N={cfg.N}, D*L={cfg.D * cfg.L}")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if not 1 <= cfg.threads <= MAX_THREADS:
        raise ConfigError(f"threads must be between 1 and {MAX_THREADS}")
    if cfg.threads > 1:
        warnings.append(
            f"threads={cfg.threads} has no effect: campaigns run in the calling thread"
        )
    if cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    for name in ("tol", "rcond", "alpha", "beta", "spacing"):
        # tol = inf would stop every trial after two iterations, and a NaN
        # physical constant would fail every trial.
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    if not (cfg.tol > 0.0):
        raise ConfigError("tol must be positive")
    if not 0.0 < cfg.rcond < 1.0:
        # pinv drops every singular value at or below rcond * sigma_max; from
        # 1 on that is all of them, and a fallback half-step returns zeros.
        raise ConfigError("rcond must lie between 0 and 1, exclusive")
    from .campaign import RECEIVERS  # campaign imports this module

    if cfg.receiver not in RECEIVERS:
        raise ConfigError(f"receiver must be one of {tuple(RECEIVERS)}")
    closed_form = RECEIVERS[cfg.receiver].closed_form
    if cfg.training not in TRAININGS:
        raise ConfigError(f"training must be one of {TRAININGS}")
    if cfg.inner_model not in INNER_MODELS:
        raise ConfigError(f"inner_model must be one of {INNER_MODELS}")
    if closed_form and cfg.training != "semi-unitary-dft":
        raise ConfigError(
            "benchmark receivers require training = semi-unitary-dft"
        )
    from .channels import gen_dft_training, gen_inner_physical, qam_alphabet

    # The generators own their input rules; a ValueError is a config error.
    try:
        qam_alphabet(cfg.qam_order)
        if cfg.training == "semi-unitary-dft":
            gen_dft_training(cfg.P, cfg.N)
        if cfg.inner_model == "physical":
            with np.errstate(all="ignore"):  # reported below, not by numpy
                m = gen_inner_physical(cfg.D, cfg.L, cfg.alpha, cfg.beta, cfg.spacing)
                m_tilde = 1.0 / np.abs(m) ** 2
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.inner_model == "physical":
        if not (np.all(np.isfinite(m)) and np.any(m)):
            # No receiver estimates through such a response: every trial fails.
            raise ConfigError(
                "physical inner model response is non-finite or all zero at "
                f"alpha={cfg.alpha}, beta={cfg.beta}, spacing={cfg.spacing}, L={cfg.L}"
            )
        if closed_form and not np.all(np.isfinite(m_tilde)):
            # The closed forms weight element n by 1/|m[n]|^2, which is
            # infinite once the damped response underflows.
            raise ConfigError(
                "physical inner model underflows: 1/|m|^2 is infinite at "
                f"alpha={cfg.alpha}, spacing={cfg.spacing}, L={cfg.L}, "
                "so the benchmark receivers cannot weight it"
            )
    if not all(math.isfinite(v) for v in cfg.snr_grid_db):
        # add_noise would run an infinite SNR noise-free and a NaN one with
        # NaN noise; the noise-free point is selected by ``noiseless``.
        raise ConfigError(
            "snr_grid_db entries must be finite; use noiseless = true "
            "for the noise-free point"
        )
    if len(cfg.snr_grid_db) > MAX_SNR_POINTS:
        raise ConfigError(f"snr_grid_db has more than {MAX_SNR_POINTS} points")
    if any(abs(v) > MAX_ABS_SNR_DB for v in cfg.snr_grid_db):
        raise ConfigError(f"snr_grid_db entries must lie within ±{MAX_ABS_SNR_DB:g} dB")
    if not cfg.noiseless and len(cfg.snr_grid_db) == 0:
        raise ConfigError("snr_grid_db must not be empty for a noisy campaign")
    if closed_form:
        weight = np.max(m_tilde) if cfg.inner_model == "physical" else 1.0
        lowest = math.inf if cfg.noiseless else min(cfg.snr_grid_db)
        if lowest < CLOSED_FORM_MIN_SNR_DB or weight > CLOSED_FORM_MAX_WEIGHT:
            warnings.append(
                f"{cfg.receiver} weights by 1/|m|^2 up to {weight:.3g} at SNR down "
                f"to {lowest:g} dB: below {CLOSED_FORM_MIN_SNR_DB:g} dB or above "
                f"{CLOSED_FORM_MAX_WEIGHT:g} its NMSE(m) nears the float range, "
                "and trials past it are filed as DegenerateMetricFit"
            )
    if cfg.P < cfg.N:
        warnings.append(
            f"P={cfg.P} < N={cfg.N}: training cannot reach full column rank; "
            "estimation will likely fail"
        )
    return warnings


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical key-value rendering (also valid as a config file)."""
    lines = []
    for f_ in dataclasses.fields(ExperimentConfig):
        value = getattr(cfg, f_.name)
        if f_.name == "snr_grid_db":
            value = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f_.name} = {value}")
    return "\n".join(lines) + "\n"


def config_sha(cfg: ExperimentConfig) -> str:
    """Short content hash identifying a configuration."""
    return hashlib.sha256(format_config(cfg).encode()).hexdigest()[:12]
