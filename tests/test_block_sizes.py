"""A campaign's CSV does not depend on its trial-block size.

Over small geometries, every receiver with a training it accepts, 3 to 9
trials and one or two SNR points: blocks of one trial, of two and of the
default size render the same ``timing = false`` CSV byte for byte.  That
also covers the proposed receiver's solver starts, which are drawn once
per block.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmasim import campaign
from dmasim.campaign import RECEIVERS, render_csv, run_campaign
from dmasim.config import TRAININGS, ExperimentConfig, validate_config


@st.composite
def configs(draw) -> ExperimentConfig:
    d, l = draw(st.sampled_from(
        [(d, l) for d in range(1, 5) for l in range(1, 5) if d * l <= 4]
    ))
    receiver = draw(st.sampled_from(tuple(RECEIVERS)))
    trainings = ("semi-unitary-dft",) if RECEIVERS[receiver].closed_form else TRAININGS
    return ExperimentConfig(
        K=draw(st.integers(2, 4)),
        T=draw(st.integers(1, 4)),
        P=draw(st.integers(d * l, 8)),
        N=d * l,
        D=d,
        L=l,
        receiver=receiver,
        training=draw(st.sampled_from(trainings)),
        snr_grid_db=tuple(draw(st.lists(
            st.sampled_from((0.0, 10.0, 30.0)), min_size=1, max_size=2, unique=True,
        ))),
        trials=draw(st.integers(3, 9)),
        seed=draw(st.integers(0, 2**32 - 1)),
        timing=False,
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=configs())
def test_campaign_csv_is_the_same_at_every_block_size(cfg):
    validate_config(cfg)
    assert campaign._block_size(cfg) >= cfg.trials  # one block per point
    want = render_csv(run_campaign(cfg), cfg)
    for size in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(campaign, "_BLOCK_BYTES", size * 16 * cfg.K * cfg.T * cfg.P)
            assert campaign._block_size(cfg) == size
            assert render_csv(run_campaign(cfg), cfg) == want
