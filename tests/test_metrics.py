import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmasim.metrics import diagonal_fit, nmse, ser, to_db
from dmasim.channels import qam_alphabet
from helpers import rand_cn, scalar_fit_oracle


def test_to_db_values():
    assert to_db(0.01) == pytest.approx(-20.0)
    assert to_db(1.0) == pytest.approx(0.0)
    assert to_db(0.0) == -math.inf


def test_nmse_without_fit_on_an_orthogonal_error():
    rng = np.random.default_rng(0)
    truth = rand_cn(rng, 40)
    e = rand_cn(rng, 40)
    e -= truth * (np.vdot(truth, e) / np.vdot(truth, truth))  # orthogonalise
    e *= 0.1 * np.linalg.norm(truth) / np.linalg.norm(e)
    assert nmse(truth + e, truth) == pytest.approx(0.01, rel=1e-10)


def test_nmse_diagonal_fit_absorbs_per_column_scales():
    rng = np.random.default_rng(2)
    truth = rand_cn(rng, 6, 4)
    scales = np.array([2.0, -1.0j, 0.5 + 0.5j, 3.0])
    est = truth * scales[None, :]
    assert nmse(est * diagonal_fit(est, truth), truth) < 1e-28
    assert nmse(3.0 * truth, truth) == pytest.approx(4.0)
    # On a vector the diagonal class scales every entry independently.
    vec = rand_cn(rng, 5)
    est = vec * rand_cn(rng, 5)
    assert nmse(est * diagonal_fit(est, vec), vec) < 1e-20


def test_nmse_input_validation():
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.zeros(3))


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 6),
    cols=st.integers(1, 5),
)
def test_nmse_fit_classes_are_nested(seed, rows, cols):
    rng = np.random.default_rng(seed)
    truth = rand_cn(rng, rows, cols)
    est = rand_cn(rng, rows, cols)
    # No fit, one least-squares scale, then diagonal_fit's per-column
    # scales: each class contains the previous one.
    none = nmse(est, truth)
    scalar = nmse(scalar_fit_oracle(est, truth) * est, truth)
    diagonal = nmse(est * diagonal_fit(est, truth), truth)
    assert diagonal <= scalar + 1e-12
    assert scalar <= none + 1e-12


def test_diagonal_fit_agrees_with_scalar_fit_per_column():
    rng = np.random.default_rng(4)
    truth = rand_cn(rng, 8, 3)
    est = rand_cn(rng, 8, 3)
    delta = diagonal_fit(est, truth)
    for n in range(3):
        assert delta[n] == pytest.approx(
            scalar_fit_oracle(est[:, n], truth[:, n]), rel=1e-12
        )


def test_diagonal_fit_zero_column_yields_zero_scale():
    truth = np.ones((4, 2), dtype=complex)
    est = np.ones((4, 2), dtype=complex)
    est[:, 1] = 0.0
    delta = diagonal_fit(est, truth)
    assert delta[0] == pytest.approx(1.0)
    assert delta[1] == 0.0


def test_ser_exact_match_is_zero():
    s = qam_alphabet(16)[:10]
    assert ser(s, s, 16) == 0.0


def test_ser_one_error_with_anchor_excluded():
    alpha = qam_alphabet(16)
    s = alpha[np.arange(10)]
    s_hat = s.copy()
    s_hat[5] = alpha[12]  # one wrong symbol among the nine counted
    assert ser(s_hat, s, 16) == pytest.approx(1.0 / 9.0)


def test_ser_ignores_errors_at_the_anchor_position():
    alpha = qam_alphabet(16)
    s = alpha[np.arange(10)]
    s_hat = s.copy()
    s_hat[0] = alpha[15]
    assert ser(s_hat, s, 16) == 0.0


def test_ser_detects_a_global_sign_flip():
    rng = np.random.default_rng(5)
    alpha = qam_alphabet(64)
    s = alpha[rng.integers(0, 64, 50)]
    assert ser(-s, s, 64) > 0.8


def test_ser_with_no_position_besides_the_anchor_is_nan():
    # T = 1: only the anchor symbol exists, so nothing is scored.
    s = qam_alphabet(16)[[7]]
    assert math.isnan(ser(s, s, 16))
    assert math.isnan(ser(-s, np.array([7]), 16))


@given(seed=st.integers(0, 2**32 - 1), t=st.integers(2, 30))
def test_ser_on_drawn_indices_equals_ser_on_the_symbols(seed, t):
    # An alphabet point demaps to its own index, so scoring against the
    # indices a trial drew is scoring against its symbols.
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 64, t)
    s = qam_alphabet(64)[idx]
    s_hat = s + 0.2 * rand_cn(rng, t)
    assert ser(s_hat, idx, 64) == ser(s_hat, s, 64)


def test_ser_input_validation():
    with pytest.raises(ValueError):
        ser(np.ones(3, dtype=complex), np.ones(4, dtype=complex), 16)
