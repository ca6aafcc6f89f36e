import numpy as np
import pytest

from dmasim import benchmarks
from dmasim.benchmarks import (
    data_aided_estimate,
    oracle_weights,
    pilot_aided_estimate,
    pilot_aided_h,
    pilot_aided_m,
    semi_unitary_h,
    semi_unitary_x,
)
from dmasim.channels import (
    gen_dft_training,
    gen_inner_random_phase,
    gen_lorentzian_training,
    gen_pilots,
    gen_qam,
    gen_wireless,
    qam_alphabet,
)
from dmasim.metrics import nmse
from dmasim.receiver import split_and_anchor
from dmasim.signals import add_noise, build_noiseless, build_rank_one
from dmasim.tensor_ops import khatri_rao, pinv, unfold_mode1, unfold_mode2
from helpers import rand_cn, relerr


def _scene(seed, k=4, t=6, p=8, n=5, pilots=False):
    rng = np.random.default_rng(seed)
    h = gen_wireless(k, n, rng)
    m = gen_inner_random_phase(n, rng)
    s = gen_pilots(t) if pilots else gen_qam(t, 16, rng)
    f = gen_dft_training(p, n)
    x = build_rank_one(s, m)
    return h, m, s, f, x


def test_oracle_weights_frozen_small_case():
    h = np.array([[3.0, 0.0], [4.0, 1.0]], dtype=complex)
    m = np.array([2.0, 0.5j])
    m_tilde, h_tilde = oracle_weights(h, m)
    np.testing.assert_allclose(m_tilde, [0.25, 4.0])
    np.testing.assert_allclose(h_tilde, [1.0 / 25.0, 1.0])


def test_closed_form_channel_update_equals_pseudoinverse_form():
    for seed in range(20):
        h, m, s, f, x = _scene(seed)
        rt = add_noise(
            build_noiseless(h, x, f), 10.0, np.random.default_rng(seed + 100)
        )
        y1 = unfold_mode1(rt.y)
        m_tilde, _ = oracle_weights(h, m)
        closed = semi_unitary_h(y1, f, x, m_tilde)
        generic = y1 @ pinv(khatri_rao(f, x).T)
        assert relerr(closed, generic) < 1e-10


def test_closed_form_symbol_update_equals_pseudoinverse_form():
    for seed in range(20):
        h, m, s, f, x = _scene(seed)
        rt = add_noise(
            build_noiseless(h, x, f), 10.0, np.random.default_rng(seed + 200)
        )
        y2 = unfold_mode2(rt.y)
        _, h_tilde = oracle_weights(h, m)
        closed = semi_unitary_x(y2, f, h, h_tilde)
        generic = y2 @ pinv(khatri_rao(f, h).T)
        assert relerr(closed, generic) < 1e-10


def test_closed_forms_reject_non_semi_unitary_training():
    h, m, s, f, x = _scene(0)
    m_tilde, h_tilde = oracle_weights(h, m)
    # Every training is checked on its spectrum, the shared DFT's included
    # (remembered): a writable copy with one entry off by 1e-3 is rejected.
    near_dft = np.array(gen_dft_training(8, 5))
    near_dft[3, 2] += 1e-3
    for bad_f in (gen_lorentzian_training(8, 5, np.random.default_rng(0)), near_dft):
        y = build_noiseless(h, x, bad_f).y
        with pytest.raises(ValueError, match="not semi-unitary"):
            semi_unitary_h(unfold_mode1(y), bad_f, x, m_tilde)
        with pytest.raises(ValueError, match="not semi-unitary"):
            semi_unitary_x(unfold_mode2(y), bad_f, h, h_tilde)


def test_a_writable_copy_of_the_dft_passes_on_its_own_spectrum(monkeypatch):
    # A writable array is never remembered, so each check reads a fresh
    # spectrum from channels.training_spectrum, the only place it is taken.
    real = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a)
    )
    dft = np.array(gen_dft_training(8, 5))
    assert dft.flags.writeable
    assert benchmarks._check_semi_unitary(dft) == 8
    assert benchmarks._check_semi_unitary(dft) == 8
    assert calls == [(5, 5), (5, 5)]


def test_weight_validation():
    h, m, s, f, x = _scene(1)
    y1 = unfold_mode1(build_noiseless(h, x, f).y)
    with pytest.raises(ValueError):
        semi_unitary_h(y1, f, x, np.array([1.0, -1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        semi_unitary_h(y1, f, x, np.array([1.0, np.inf, 1.0, 1.0, 1.0]))


def test_pilot_aided_closed_forms_are_exact_on_noiseless_data():
    h, m, s, f, x = _scene(2, pilots=True)
    y = build_noiseless(h, x, f).y
    m_tilde, h_tilde = oracle_weights(h, m)
    h_hat = pilot_aided_h(unfold_mode1(y), f, s, m, m_tilde)
    m_hat = pilot_aided_m(unfold_mode2(y), f, h, h_tilde, s)
    assert relerr(h_hat, h) < 1e-10
    assert relerr(m_hat, m) < 1e-10


def test_pilot_aided_m_is_matched_filter_of_symbol_estimate():
    # The inner-response estimator must equal the matched filter
    # X_hat.T @ conj(pilots) / T applied to the closed-form symbol estimate.
    h, m, s, f, x = _scene(3, pilots=True)
    rt = add_noise(build_noiseless(h, x, f), 5.0, np.random.default_rng(33))
    y2 = unfold_mode2(rt.y)
    m_tilde, h_tilde = oracle_weights(h, m)
    x_hat = semi_unitary_x(y2, f, h, h_tilde)
    direct = pilot_aided_m(y2, f, h, h_tilde, s)
    assert relerr(direct, x_hat.T @ s.conj() / s.shape[0]) < 1e-12


def test_pilot_aided_rejects_unnormalised_pilots():
    h, m, s, f, x = _scene(4, pilots=True)
    y = build_noiseless(h, x, f).y
    m_tilde, h_tilde = oracle_weights(h, m)
    bad = 2.0 * s
    with pytest.raises(ValueError):
        pilot_aided_h(unfold_mode1(y), f, bad, m, m_tilde)
    with pytest.raises(ValueError):
        pilot_aided_m(unfold_mode2(y), f, h, h_tilde, bad)


def test_data_aided_estimate_noiseless_is_exact():
    h, m, s, f, x = _scene(5)
    y = build_noiseless(h, x, f).y
    rep = data_aided_estimate(y, f, s_true=s, h_true=h, m_true=m)
    assert nmse(rep.h_hat, h) < 1e-20
    assert nmse(rep.m_hat, m) < 1e-20
    np.testing.assert_allclose(rep.s_hat, s, atol=1e-10)
    assert rep.iterations == 1
    assert rep.converged
    assert rep.residual_trace.shape == (0,)  # one-shot: no residual


def test_data_aided_estimate_is_the_closed_forms_then_stage_two():
    h, m, s, f, x = _scene(8)
    y = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(80)).y
    rep = data_aided_estimate(y, f, s_true=s, h_true=h, m_true=m)
    m_tilde, h_tilde = oracle_weights(h, m)
    h_hat = semi_unitary_h(unfold_mode1(y), f, x, m_tilde)
    x_hat = semi_unitary_x(unfold_mode2(y), f, h, h_tilde)
    split = split_and_anchor(x_hat, s[0])
    np.testing.assert_array_equal(rep.h_hat, h_hat)
    np.testing.assert_array_equal(rep.s_hat, split.s_hat)
    np.testing.assert_array_equal(rep.m_hat, split.m_hat)
    assert rep.rank1_degenerate is split.degenerate


def test_pilot_aided_estimate_noiseless_is_exact():
    h, m, s, f, x = _scene(6, pilots=True)
    y = build_noiseless(h, x, f).y
    rep = pilot_aided_estimate(y, f, h_true=h, m_true=m, pilots=s)
    assert nmse(rep.h_hat, h) < 1e-20
    assert nmse(rep.m_hat, m) < 1e-20
    assert rep.s_hat is s  # the known pilot block itself, not a copy
    assert rep.iterations == 1
    assert rep.residual_trace.shape == (0,)  # one-shot: no residual


def test_pilot_aided_estimate_checks_the_pilots_once(monkeypatch):
    # One norm of the pilot block per trial; the estimate is still the two
    # public closed forms bit for bit, and bad pilots are still refused.
    h, m, s, f, x = _scene(9, pilots=True)
    y = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(90)).y
    calls = []
    real = benchmarks._check_pilots
    monkeypatch.setattr(
        benchmarks, "_check_pilots", lambda p: calls.append(p) or real(p)
    )
    rep = pilot_aided_estimate(y, f, h_true=h, m_true=m, pilots=s)
    assert len(calls) == 1
    m_tilde, h_tilde = oracle_weights(h, m)
    np.testing.assert_array_equal(
        rep.h_hat, pilot_aided_h(unfold_mode1(y), f, s, m, m_tilde)
    )
    np.testing.assert_array_equal(
        rep.m_hat, pilot_aided_m(unfold_mode2(y), f, h, h_tilde, s)
    )
    with pytest.raises(ValueError, match="pilot"):
        pilot_aided_estimate(y, f, h_true=h, m_true=m, pilots=2.0 * s)


def test_data_aided_estimate_tracks_noise_level():
    h, m, s, f, x = _scene(7)
    errs = []
    for snr in (10.0, 30.0):
        rt = add_noise(build_noiseless(h, x, f), snr, np.random.default_rng(70))
        rep = data_aided_estimate(rt.y, f, s_true=s, h_true=h, m_true=m)
        errs.append(nmse(rep.h_hat, h))
    # 20 dB more SNR must buy roughly 20 dB lower error (paired noise draw).
    assert 10 * np.log10(errs[0] / errs[1]) == pytest.approx(20.0, abs=1.0)


@pytest.mark.parametrize(
    "k,t,p,n",
    [(5, 5, 5, 5), (4, 6, 8, 5), (8, 10, 32, 16), (3, 7, 16, 16)],
    ids=["P==N", "P>N", "desk", "K<T,P==N"],
)
def test_matched_filters_equal_their_khatri_rao_formulas(k, t, p, n):
    # The filters contract Y with F* and then with the other factor; the
    # formulas they replace multiplied the unfolded block against an
    # explicit Khatri-Rao product.
    rng = np.random.default_rng(k * 1000 + p)
    h = gen_wireless(k, n, rng)
    m = gen_inner_random_phase(n, rng)
    s = gen_qam(t, 16, rng)
    pilots = gen_pilots(t)
    f = gen_dft_training(p, n)
    y = add_noise(
        build_noiseless(h, build_rank_one(s, m), f), 5.0, rng
    ).y
    y1, y2 = unfold_mode1(y), unfold_mode2(y)
    m_tilde, h_tilde = oracle_weights(h, m)
    x, xp = build_rank_one(s, m), build_rank_one(pilots, m)
    s_energy = np.linalg.norm(s) ** 2
    pairs = [
        (
            semi_unitary_h(y1, f, x, m_tilde),
            (y1 @ khatri_rao(f, x).conj()) * (m_tilde / (p * s_energy)),
        ),
        (
            semi_unitary_x(y2, f, h, h_tilde),
            (y2 @ khatri_rao(f, h).conj()) * (h_tilde / p),
        ),
        (
            pilot_aided_h(y1, f, pilots, m, m_tilde),
            (y1 @ khatri_rao(f, xp).conj()) * (m_tilde / (p * t)),
        ),
        (
            pilot_aided_m(y2, f, h, h_tilde, pilots),
            h_tilde * (khatri_rao(f, h).conj().T @ (y2.T @ pilots.conj())) / (p * t),
        ),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert relerr(got, want) < 1e-12


def test_deterministic_trial_constants_are_built_once_and_read_only():
    f = gen_dft_training(8, 5)
    assert gen_dft_training(8, 5) is f
    alphabet = qam_alphabet(16)
    assert qam_alphabet(16) is alphabet
    pilots = gen_pilots(6)
    assert gen_pilots(6) is pilots
    for shared in (f, alphabet, pilots):
        with pytest.raises(ValueError):
            shared[0] = 0.0
    # Draws from the shared alphabet are fresh, writable arrays.
    block = gen_qam(4, 16, np.random.default_rng(0))
    block[0] = 0.0
    assert alphabet[0] != 0.0
