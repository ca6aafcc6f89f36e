"""A config that ``validate_config`` accepts runs clean.

Over small geometries, every receiver, training and inner model, extreme
physical constants, tolerances and SNRs: either ``validate_config``
rejects the config, or a campaign of one trial per point runs with numpy
warnings as errors, and every failure category it files is one that a
parse-time warning announced.
"""

import dataclasses
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmasim.campaign import RECEIVERS, run_campaign
from dmasim.config import (
    INNER_MODELS,
    TRAININGS,
    ConfigError,
    ExperimentConfig,
    validate_config,
)

# A parse-time warning, by a phrase of its text, and the failure
# categories it announces.
ANNOUNCED = {
    "full column rank": {"GenerationError", "EstimationError"},
    "DegenerateMetricFit": {"DegenerateMetricFit"},
}

# The damped response whose largest closed-form weight 1/|m|^2 is about 4e260.
DAMPED = ExperimentConfig(
    K=3, T=2, P=8, N=4, D=2, L=2, inner_model="physical", alpha=300.0, beta=1.0,
    spacing=0.5, training="semi-unitary-dft", receiver="bench-data-aided",
    snr_grid_db=(0.0, -1000.0, -2000.0, -3000.0), trials=1,
)


def _extreme(low: float, high: float, *values: float):
    """Floats between ``low`` and ``high``, or one of the extreme ``values``."""
    return st.floats(low, high) | st.sampled_from(values)


@st.composite
def configs(draw) -> ExperimentConfig:
    d, l = draw(st.sampled_from(
        [(d, l) for d in range(1, 7) for l in range(1, 7) if d * l <= 6]
    ))
    receiver = draw(st.sampled_from(tuple(RECEIVERS)))
    # The closed forms reject Lorentzian training; most of their draws are
    # DFT, so that most of them run.
    trainings = ("semi-unitary-dft",) * 3 if RECEIVERS[receiver].closed_form else ()
    return ExperimentConfig(
        K=draw(st.integers(2, 3)),
        T=draw(st.integers(1, 5)),
        P=draw(st.integers(d * l, 8) | st.integers(1, 8)),
        N=d * l,
        D=d,
        L=l,
        receiver=receiver,
        training=draw(st.sampled_from(trainings + TRAININGS)),
        inner_model=draw(st.sampled_from(INNER_MODELS)),
        alpha=draw(_extreme(0.0, 400.0, 1e-300, 115.0, 300.0, 1e300, -1.0)),
        beta=draw(_extreme(-10.0, 10.0, 1e300, -1e300)),
        spacing=draw(_extreme(1e-3, 3.0, 1e-300, 1e300, 0.0)),
        tol=draw(st.sampled_from((1e-300, 1e-12, 1e-6, 0.5, 1.0, 1e300))),
        rcond=draw(st.sampled_from((1e-300, 1e-12, 1e-3, 0.5, 1.0 - 1e-16))),
        snr_grid_db=tuple(draw(st.lists(
            _extreme(-3000.0, 3000.0, -1000.0, -1001.0, -3000.0, 3000.0),
            min_size=1, max_size=3, unique=True,
        ))),
        noiseless=draw(st.booleans()),
        trials=1,
        timing=False,
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=configs())
@example(cfg=DAMPED)
@example(cfg=dataclasses.replace(DAMPED, receiver="bench-pilot-aided"))
@example(cfg=dataclasses.replace(
    ExperimentConfig(), training="semi-unitary-dft", receiver="bench-data-aided",
    snr_grid_db=(-1000.0, -2000.0, -3000.0), trials=1,
))
def test_an_accepted_config_runs_clean_or_was_warned_about(cfg):
    try:
        notes = validate_config(cfg)
    except ConfigError:
        return
    announced = set().union(
        *(categories for phrase, categories in ANNOUNCED.items()
          if any(phrase in note for note in notes))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_campaign(cfg)
    filed = {category for row in rows for category in row.failure_categories}
    assert filed <= announced, (cfg, notes)
