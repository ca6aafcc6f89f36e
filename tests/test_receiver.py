import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmasim.benchmarks import pilot_aided_m, semi_unitary_x
from dmasim.channels import (
    gen_dft_training,
    gen_inner_physical,
    gen_lorentzian_training,
    gen_pilots,
    gen_qam,
    gen_wireless,
    gen_inner_random_phase,
)
from dmasim import receiver
from dmasim.campaign import run_trial
from dmasim.config import load_config_file
from dmasim.metrics import diagonal_fit, nmse
from dmasim.receiver import (
    BalsConfig,
    EstimateReport,
    EstimationError,
    bals,
    flop_estimate,
    rank1_factorize,
    remove_ambiguity,
    split_and_anchor,
    two_stage_estimate,
)
from dmasim.signals import add_noise, build_noiseless, build_rank_one
from dmasim.tensor_ops import parafac_build
from helpers import bals_pinv_oracle, khatri_rao_oracle, rand_cn, relerr


def _scene(seed, k=4, t=8, p=12, n=6, order=16):
    """A small identifiable scene with everything the receiver needs."""
    rng = np.random.default_rng(seed)
    h = gen_wireless(k, n, rng)
    m = gen_inner_random_phase(n, rng)
    s = gen_qam(t, order, rng)
    f = gen_lorentzian_training(p, n, rng)
    x = build_rank_one(s, m)
    return h, m, s, f, x


def test_bals_noiseless_recovers_the_bilinear_factors():
    h, m, s, f, x = _scene(0)
    y = build_noiseless(h, x, f).y
    res = bals(y, f, gen_wireless(8, 6, np.random.default_rng(1)))
    assert res.converged
    assert res.residuals[-1] <= 1e-12
    # Factors agree up to the shared diagonal: fix it column by column.
    delta = diagonal_fit(res.h_hat, h)
    assert nmse(res.h_hat * delta, h) < 1e-16
    assert nmse(res.x_hat / delta[None, :], x) < 1e-16


def test_bals_residual_trace_is_monotone_under_noise():
    h, m, s, f, x = _scene(3)
    rt = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(5))
    res = bals(rt.y, f, gen_wireless(8, 6, np.random.default_rng(6)))
    trace = np.asarray(res.residuals)
    assert np.all(np.diff(trace) <= 1e-14)


def test_bals_with_truth_init_stops_immediately():
    h, m, s, f, x = _scene(4)
    y = build_noiseless(h, x, f).y
    res = bals(y, f, x)
    assert res.converged
    assert len(res.residuals) <= 2
    assert res.residuals[-1] <= 1e-12


def test_two_stage_estimate_requires_an_rng():
    # The generator draws the solver's start; bals itself draws nothing.
    h, m, s, f, x = _scene(5)
    y = build_noiseless(h, x, f).y
    with pytest.raises(ValueError):
        two_stage_estimate(y, f, s[0])


def test_bals_rejects_zero_tensor_and_bad_shapes():
    f = gen_lorentzian_training(12, 6, np.random.default_rng(0))
    x0 = gen_wireless(8, 6, np.random.default_rng(0))
    with pytest.raises(EstimationError):
        bals(np.zeros((4, 8, 12), dtype=complex), f, x0)
    with pytest.raises(ValueError):
        bals(np.zeros((4, 8), dtype=complex), f, x0)
    with pytest.raises(ValueError):
        bals(np.ones((4, 8, 11), dtype=complex), f, x0)
    with pytest.raises(ValueError, match="start"):
        bals(np.ones((4, 8, 12), dtype=complex), f, x0[:, :5])


def test_bals_survives_pure_noise_input():
    f = gen_lorentzian_training(12, 6, np.random.default_rng(1))
    y = rand_cn(np.random.default_rng(2), 4, 8, 12)
    res = bals(y, f, gen_wireless(8, 6, np.random.default_rng(3)))
    assert np.all(np.isfinite(res.residuals))
    assert np.all(np.isfinite(res.h_hat))
    assert np.all(np.isfinite(res.x_hat))


def test_bals_iteration_cap_is_respected():
    h, m, s, f, x = _scene(6)
    rt = add_noise(build_noiseless(h, x, f), 0.0, np.random.default_rng(7))
    x0 = gen_wireless(8, 6, np.random.default_rng(8))
    res = bals(rt.y, f, x0, cfg=BalsConfig(max_iters=3, tol=0.0))
    assert len(res.residuals) == 3
    assert not res.converged


@pytest.mark.parametrize("max_iters", [0, -1])
def test_bals_rejects_fewer_than_one_iteration(max_iters):
    # No iteration would leave no fitted channel to return.
    h, m, s, f, x = _scene(6)
    y = build_noiseless(h, x, f).y
    cfg = BalsConfig(max_iters=max_iters)
    with pytest.raises(ValueError, match="max_iters"):
        bals(y, f, gen_wireless(8, 6, np.random.default_rng(8)), cfg=cfg)
    with pytest.raises(ValueError, match="max_iters"):
        two_stage_estimate(y, f, s[0], cfg=cfg, rng=np.random.default_rng(8))


def _with_nan(a, index):
    a = np.array(a)
    a[index] = np.nan
    return a


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(
            lambda: semi_unitary_x(
                np.ones((4, 48), complex), _with_nan(gen_dft_training(12, 6), (3, 2)),
                np.ones((4, 6), complex), np.ones(6),
            ),
            ValueError, "not semi-unitary", id="semi_unitary_x-training",
        ),
        pytest.param(
            lambda: pilot_aided_m(
                np.ones((4, 48), complex), gen_dft_training(12, 6),
                np.ones((4, 6), complex), np.ones(6), _with_nan(gen_pilots(4), 2),
            ),
            ValueError, "squared norm", id="pilot_aided_m-pilots",
        ),
        pytest.param(
            lambda: gen_inner_physical(2, 3, 0.1, 1.0, np.nan),
            ValueError, "spacing", id="gen_inner_physical-spacing",
        ),
        pytest.param(
            lambda: gen_inner_physical(2, 3, np.nan, 1.0, 0.5),
            ValueError, "alpha", id="gen_inner_physical-alpha",
        ),
        pytest.param(
            lambda: remove_ambiguity(np.ones(3, complex), np.ones(4, complex), np.nan),
            ValueError, "reference symbol", id="remove_ambiguity-s1_ref",
        ),
        pytest.param(
            lambda: bals(
                np.ones((4, 8, 12), complex), _with_nan(gen_dft_training(12, 6), (3, 2)),
                gen_wireless(8, 6, np.random.default_rng(51)),
            ),
            EstimationError, "pseudo-inverse failed at iteration 1",
            id="bals-training",
        ),
    ],
)
def test_public_entry_points_reject_nan_inputs(call, error, match):
    # Each returned an all-NaN result (bals: numpy's LinAlgError) before.
    with np.errstate(invalid="ignore"), pytest.raises(error, match=match):
        call()


def _count_calls(monkeypatch, owner, name):
    """Record the calls made to ``owner.name``.  Inside ``bals`` only the
    pseudo-inverse fallback calls ``pinv`` and ``khatri_rao``, and only
    half-steps the Schur bound cannot certify call ``np.linalg.cholesky``."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _assert_matches_oracle(y, f, x0, **kw):
    """Same iteration count, residual trace and fitted model as the pinv
    reference ALS from the same start."""
    res = bals(y, f, x0, cfg=BalsConfig(**kw))
    h_ref, x_ref, trace_ref, conv_ref = bals_pinv_oracle(y, f, x0, **kw)
    assert len(res.residuals) == len(trace_ref)
    np.testing.assert_allclose(res.residuals, trace_ref, rtol=0, atol=1e-12)
    assert res.converged == conv_ref
    fit = res.h_hat @ khatri_rao_oracle(f, res.x_hat).T
    assert relerr(fit, h_ref @ khatri_rao_oracle(f, x_ref).T) < 1e-9
    return res


@pytest.mark.parametrize("snr_db", [None, 0.0, 10.0, 30.0])
@pytest.mark.parametrize("seed", [20, 21, 22])
def test_bals_matches_the_pinv_reference(seed, snr_db, monkeypatch):
    h, m, s, f, x = _scene(seed)
    rt = add_noise(build_noiseless(h, x, f), snr_db, np.random.default_rng(seed + 100))
    calls = _count_calls(monkeypatch, receiver, "pinv")
    _assert_matches_oracle(rt.y, f, rand_cn(np.random.default_rng(seed + 200), 8, 6))
    assert calls == []  # well-conditioned Grams never take the fallback


def test_bals_matches_the_pinv_reference_at_desk_geometry(monkeypatch):
    h, m, s, f, x = _scene(23, k=8, t=10, p=32, n=16, order=64)
    rt = add_noise(build_noiseless(h, x, f), 0.0, np.random.default_rng(24))
    calls = _count_calls(monkeypatch, receiver, "pinv")
    kr_calls = _count_calls(monkeypatch, receiver, "khatri_rao")
    _assert_matches_oracle(rt.y, f, rand_cn(np.random.default_rng(25), 10, 16))
    assert calls == []
    assert kr_calls == []


def test_bals_rank_deficient_gram_takes_the_fallback(monkeypatch):
    # P*T < N and P*K < N: both Grams have rank <= 4 < N = 6.  The training
    # generators refuse P < N, so it is drawn directly.
    h, m, s, _, x = _scene(26, k=2, t=2, n=6, order=4)
    f = rand_cn(np.random.default_rng(26), 2, 6)
    rt = add_noise(build_noiseless(h, x, f), 20.0, np.random.default_rng(27))
    calls = _count_calls(monkeypatch, receiver, "pinv")
    kr_calls = _count_calls(monkeypatch, receiver, "khatri_rao")
    chol_calls = _count_calls(monkeypatch, np.linalg, "cholesky")
    res = _assert_matches_oracle(
        rt.y, f, rand_cn(np.random.default_rng(28), 2, 6), max_iters=20
    )
    assert len(calls) == 2 * len(res.residuals)
    assert len(kr_calls) == len(calls) > 0
    assert len(chol_calls) > 0  # a singular F^T F* never certifies


def test_bals_equal_columns_take_the_fallback(monkeypatch):
    # Equal init columns alone leave the Gram (F^T F*) o (X^T X*) positive
    # definite (Schur product theorem); equal training columns as well make
    # two columns of khatri_rao(F, X) identical, in both half-steps.
    h, m, s, f, x = _scene(29)
    f = f.copy()  # a drawn training is read-only
    f[:, 1] = f[:, 0]
    rt = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(30))
    x0 = rand_cn(np.random.default_rng(31), 8, 6)
    x0[:, 1] = x0[:, 0]
    calls = _count_calls(monkeypatch, receiver, "pinv")
    chol_calls = _count_calls(monkeypatch, np.linalg, "cholesky")
    res = _assert_matches_oracle(rt.y, f, x0, max_iters=50)
    assert len(calls) == 2 * len(res.residuals)
    assert len(chol_calls) > 0


def _gf_min(f):
    """Smallest eigenvalue of F^T F*, as ``bals`` takes it per trial."""
    return float(np.linalg.eigvalsh(f.T @ f.conj())[0])


def _diag(gram):
    return gram.diagonal().real.tolist()


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    t=st.integers(1, 20),
    log_cond=st.floats(0.0, 8.0),
    log_scale=st.floats(-330.0, 300.0),
    n_small=st.integers(0, 3),
)
def test_schur_certificate_implies_the_cholesky_guard_passes(
    seed, n, t, log_cond, log_scale, n_small
):
    # F^T F* with a prescribed condition number up to 1e8, and a symbol
    # block of any rank (T < N included) with up to three near-zero columns,
    # whose column energies range from the subnormal (where the Gram's
    # entries lose their relative accuracy) to overflow.
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rand_cn(rng, n + 4, n))
    v, _ = np.linalg.qr(rand_cn(rng, n, n))
    sv = np.sqrt(np.logspace(0.0, log_cond, n))
    f = (u * rng.permutation(sv)) @ v.conj().T
    x = rand_cn(rng, t, n) * 10.0 ** (log_scale / 2)
    for col in rng.choice(n, size=min(n_small, n), replace=False):
        x[:, col] *= 10.0 ** rng.uniform(-12.0, -2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        factor_gram = x.T @ x.conj()
        gram = (f.T @ f.conj()) * factor_gram
        certified = receiver._schur_certified(
            _gf_min(f), _diag(gram), _diag(factor_gram)
        )
    if certified:
        # Run the guard itself, as an uncertified half-step does.
        rhs = rand_cn(rng, 3, n)
        assert receiver._normal_solve(gram, rhs, certified=False) is not None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    rows=st.integers(1, 20),
    log_cond=st.floats(0.0, 6.0),
)
def test_normal_solve_is_numpys_solve_bit_for_bit(seed, n, rows, log_cond):
    # A Hermitian positive definite Gram with condition number up to 1e6;
    # certified or guarded, the solve returns exactly np.linalg.solve's bits.
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rand_cn(rng, n, n))
    gram = (u * np.logspace(0.0, log_cond, n)) @ u.conj().T
    gram = (gram + gram.conj().T) / 2
    rhs = rand_cn(rng, rows, n)
    want = np.linalg.solve(gram.conj(), rhs.T).T
    for certified in (True, False):
        got = receiver._normal_solve(gram, rhs, certified)
        if got is None:  # the guard may decline a Gram near cond 1e6
            assert not certified
            continue
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_DESK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg")


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
def test_desk_trial_calls_no_numpy_solve_and_warns_nothing(snr_db, monkeypatch):
    # The normal equations go straight to the LAPACK gufunc; with the
    # wrapper's errstate gone, a certified or guarded Gram must still raise
    # no floating-point warning.
    cfg, _ = load_config_file(_DESK_CFG)
    assert (cfg.receiver, cfg.training) == ("proposed", "lorentzian")
    cfg = dataclasses.replace(cfg, snr_grid_db=(snr_db,))
    solve_calls = _count_calls(monkeypatch, np.linalg, "solve")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(3):
            assert run_trial(cfg, 0, trial).failed is None
    assert solve_calls == []


def test_schur_certificate_rejects_nan_zero_and_singular():
    rng = np.random.default_rng(40)
    f = gen_lorentzian_training(12, 6, rng)
    x = rand_cn(rng, 8, 6)
    gf = f.T @ f.conj()

    def certified(gf_min, factor_gram):
        return receiver._schur_certified(
            gf_min, _diag(gf * factor_gram), _diag(factor_gram)
        )

    factor_gram = x.T @ x.conj()
    assert certified(_gf_min(f), factor_gram)
    with_nan = factor_gram.copy()
    with_nan[2, 2] = np.nan
    assert not certified(_gf_min(f), with_nan)
    zero_column = factor_gram.copy()
    zero_column[3, :] = zero_column[:, 3] = 0.0
    assert not certified(_gf_min(f), zero_column)
    for gf_min in (0.0, -1e-3, np.nan):
        assert not certified(gf_min, factor_gram)


def test_bals_skips_the_cholesky_guard_under_dft_training(monkeypatch):
    # F^T F* = P I: every half-step at desk geometry is certified.
    h, m, s, _, x = _scene(37, k=8, t=10, p=32, n=16, order=64)
    f = gen_dft_training(32, 16)
    rt = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(38))
    chol_calls = _count_calls(monkeypatch, np.linalg, "cholesky")
    res = bals(rt.y, f, gen_wireless(10, 16, np.random.default_rng(39)))
    assert res.converged
    assert chol_calls == []


@pytest.mark.parametrize("snr_db", [None, 0.0, 10.0, 30.0])
@pytest.mark.parametrize("seed", [41, 42, 43])
def test_bals_certificate_changes_no_bit(seed, snr_db, monkeypatch):
    # With the certificate forced off every half-step runs the Cholesky
    # guard; the fit, the iterates and the residual trace stay bitwise equal.
    h, m, s, f, x = _scene(seed, k=8, t=10, p=32, n=16, order=64)
    rt = add_noise(build_noiseless(h, x, f), snr_db, np.random.default_rng(seed + 100))
    chol_calls = _count_calls(monkeypatch, np.linalg, "cholesky")
    on = bals(rt.y, f, gen_wireless(10, 16, np.random.default_rng(seed + 200)))
    certified_chol = len(chol_calls)
    monkeypatch.setattr(receiver, "_schur_certified", lambda *diags: False)
    off = bals(rt.y, f, gen_wireless(10, 16, np.random.default_rng(seed + 200)))
    assert len(chol_calls) - certified_chol == 2 * len(off.residuals)
    assert certified_chol < 2 * len(on.residuals)
    np.testing.assert_array_equal(on.h_hat, off.h_hat)
    np.testing.assert_array_equal(on.x_hat, off.x_hat)
    np.testing.assert_array_equal(on.residuals, off.residuals)
    assert on.converged == off.converged


@pytest.mark.parametrize("snr_db", [10.0, 60.0, None])
def test_bals_on_a_drawn_training_reuses_its_spectrum(snr_db, monkeypatch):
    # The rank check of the draw took the spectrum, so bals takes none; a
    # writable copy is not remembered, so bals takes its spectrum afresh.
    h, m, s, f, x = _scene(44, k=8, t=10, p=32, n=16, order=64)
    rt = add_noise(build_noiseless(h, x, f), snr_db, np.random.default_rng(45))
    eig_calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    drawn = bals(rt.y, f, gen_wireless(10, 16, np.random.default_rng(46)))
    assert eig_calls == []
    copied = bals(rt.y, f.copy(), gen_wireless(10, 16, np.random.default_rng(46)))
    assert len(eig_calls) == 1
    for name in ("h_hat", "x_hat", "residuals"):
        assert getattr(drawn, name).tobytes() == getattr(copied, name).tobytes()
    assert drawn.converged == copied.converged


@pytest.mark.parametrize(
    "p, snr_db",  # P > N and P == N, N = 6
    [
        pytest.param(p, snr_db, id=f"{p}{tag}")
        for snr_db, tag in ((5.0, ""), (60.0, "-60dB"), (None, "-noiseless"))
        for p in (12, 6)
    ],
)
def test_bals_residual_trace_is_the_full_model_misfit(p, snr_db):
    # Each trace entry is the Gram-form value or, near its error bound, the
    # explicit misfit; either way it must match the misfit of the full model
    # to within roundoff.  Entry i of the trace is checked from the factors
    # of a run capped at i + 1 iterations, which retraces the same iterates
    # from the same start.
    h, m, s, f, x = _scene(32, p=p)
    rt = add_noise(build_noiseless(h, x, f), snr_db, np.random.default_rng(33))
    x0 = rand_cn(np.random.default_rng(34), 8, 6)
    res = bals(rt.y, f, x0)
    # Noiseless data reach the exact fit in two iterations.
    assert len(res.residuals) > (1 if snr_db is None else 3)
    ynorm = np.linalg.norm(rt.y)
    for cap in range(1, len(res.residuals) + 1):
        part = bals(rt.y, f, x0, cfg=BalsConfig(max_iters=cap))
        misfit = np.linalg.norm(rt.y - parafac_build(part.h_hat, part.x_hat, f))
        assert abs(res.residuals[cap - 1] - misfit / ynorm) <= 1e-12
        assert part.residuals[-1] == res.residuals[cap - 1]


def test_bals_forms_no_qr_and_checks_the_exact_fit_explicitly(monkeypatch):
    # The residual needs no factorisation of F.  On noiseless data the Gram
    # form cancels to within its error bound near the exact fit, so the
    # EPS_FLOOR stop is decided on the explicit misfit.
    h, m, s, f, x = _scene(44, k=8, t=10, p=32, n=16, order=64)
    qr_calls = _count_calls(monkeypatch, np.linalg, "qr")
    misfit_calls = _count_calls(monkeypatch, receiver, "_misfit")
    noisy = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(45))
    x0 = gen_wireless(10, 16, np.random.default_rng(46))
    res = bals(noisy.y, f, x0)
    assert res.converged
    assert len(misfit_calls) < len(res.residuals)
    before = len(misfit_calls)
    res = bals(build_noiseless(h, x, f).y, f, x0)
    assert res.converged and res.residuals[-1] <= 1e-12
    assert len(misfit_calls) > before
    assert qr_calls == []


@pytest.mark.parametrize("nan_call", [1, 6])  # iteration 1 channel, iteration 3 symbol
def test_bals_non_finite_block_raises_at_its_iteration(nan_call, monkeypatch):
    # A half-step that returns a non-finite block is reported at the
    # iteration it happens in, whichever half-step it is.
    h, m, s, f, x = _scene(47)
    rt = add_noise(build_noiseless(h, x, f), 10.0, np.random.default_rng(48))
    calls = []
    original = receiver._normal_solve

    def poisoned(gram, rhs, certified):
        calls.append(certified)
        out = original(gram, rhs, certified)
        return out * np.nan if len(calls) == nan_call else out

    monkeypatch.setattr(receiver, "_normal_solve", poisoned)
    with pytest.raises(EstimationError, match=rf"iteration {(nan_call + 1) // 2}\b"):
        bals(rt.y, f, gen_wireless(8, 6, np.random.default_rng(49)))
    y = rt.y.copy()
    y[0, 0, 0] = np.nan
    with pytest.raises(EstimationError, match="iteration 1"):
        bals(y, f, gen_wireless(8, 6, np.random.default_rng(49)))


def _exact_misfit(y, h, x, f):
    """||Y - Y_hat|| / ||Y|| in extended precision."""
    yl = y.astype(np.clongdouble)
    fit = np.einsum(
        "kn,tn,pn->ktp", *(a.astype(np.clongdouble) for a in (h, x, f))
    )
    return float(np.sqrt(np.sum(np.abs(yl - fit) ** 2) / np.sum(np.abs(yl) ** 2)))


def _gram_fit(y, f, h, x):
    """The Gram-form misfit of the iterate (h, x), from the terms ``bals``
    has at the end of an iteration."""
    k, t, p = y.shape
    n = f.shape[1]
    yf = (y.reshape(k * t, p) @ f.conj()).reshape(k, t, n)
    gram = (f.T @ f.conj()) * (h.T @ h.conj())
    gx = x.T @ x.conj()
    return receiver._gram_misfit(
        float(np.linalg.norm(y)), receiver._residual_gamma(k, t, p, n), x,
        receiver.conj_rhs(yf, h.conj(), 2), gram, gx, _diag(gram), _diag(gx),
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    t=st.integers(1, 8),
    n=st.integers(1, 6),
    extra_p=st.integers(0, 6),
    log_cond=st.floats(0.0, 8.0),
    snr_db=st.sampled_from([None, 0.0, 30.0, 60.0, 120.0]),
    log_step=st.floats(-14.0, 0.0),
    log_spread=st.floats(0.0, 3.0),
    log_margin=st.floats(-16.0, -1.0),
    above=st.booleans(),
)
def test_gram_misfit_interval_holds_the_misfit_and_decides_as_explicit(
    seed, k, t, n, extra_p, log_cond, snr_db, log_step, log_spread,
    log_margin, above,
):
    # Training with condition number up to 1e8, data at any SNR, and two
    # random iterates near the truth whose columns trade scale (the
    # diagonal ambiguity) unevenly.  Where the Gram form gives a value, its
    # interval holds both the explicit and the exact misfit; where the
    # intervals decide a stop, they decide it as the explicit misfits do,
    # with both thresholds placed a relative margin from the explicit values.
    rng = np.random.default_rng(seed)
    p = n + extra_p
    u, _ = np.linalg.qr(rand_cn(rng, p, n))
    v, _ = np.linalg.qr(rand_cn(rng, n, n))
    f = (u * rng.permutation(np.sqrt(np.logspace(0.0, log_cond, n)))) @ v.conj().T
    h, x = rand_cn(rng, k, n), rand_cn(rng, t, n)
    clean = parafac_build(h, x, f)
    y = clean
    if snr_db is not None:
        sigma = np.linalg.norm(clean) / np.sqrt(clean.size) * 10 ** (-snr_db / 20)
        y = clean + sigma * rand_cn(rng, k, t, p)
    step = 10.0**log_step
    iterates = []
    for _ in range(2):
        scale = 10.0 ** rng.uniform(-log_spread, log_spread, n)
        iterates.append((
            (h + step * rand_cn(rng, k, n)) * scale,
            (x + step * rand_cn(rng, t, n)) / scale,
        ))
    ynorm = np.linalg.norm(y)
    explicit, fits = [], []
    for hi, xi in iterates:
        explicit.append(np.linalg.norm(y - parafac_build(hi, xi, f)) / ynorm)
        fits.append(_gram_fit(y, f, hi, xi))
        if fits[-1] is not None:
            eps, w = fits[-1]
            assert w < 0.3
            assert abs(explicit[-1] - eps) <= w * eps
            assert abs(_exact_misfit(y, hi, xi, f) - eps) <= w * eps
    if None in fits:
        return
    (prev, pw), (eps, w) = fits
    margin = (1.0 if above else -1.0) * 10.0**log_margin
    change = abs(explicit[1] - explicit[0]) / explicit[0]
    for floor, tol in (
        (explicit[1] * (1.0 + margin), 0.0),
        (0.0, change * (1.0 + margin)),
    ):
        cfg = BalsConfig(tol=tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(receiver, "EPS_FLOOR", floor)
            certain = receiver._stop(eps, w, prev, pw, cfg)
            if certain is not None and explicit[0] > floor:
                assert certain == receiver._stop(explicit[1], 0.0, explicit[0], 0.0, cfg)


@pytest.mark.parametrize("p", [12, 6])  # P > N and P == N, N = 6
def test_bals_noiseless_stops_on_the_exact_fit_floor(p):
    h, m, s, f, x = _scene(35, p=p)
    y = build_noiseless(h, x, f).y
    cfg = BalsConfig(tol=0.0)  # only the EPS_FLOOR test can stop the run
    res = bals(y, f, gen_wireless(8, 6, np.random.default_rng(36)), cfg=cfg)
    assert res.converged
    assert len(res.residuals) < cfg.max_iters
    assert res.residuals[-1] <= receiver.EPS_FLOOR


def test_rank1_factorize_exact_rank_one_block():
    rng = np.random.default_rng(9)
    s = rand_cn(rng, 7)
    m = rand_cn(rng, 5)
    split = rank1_factorize(np.outer(s, m))
    assert relerr(np.outer(split.s_hat, split.m_hat), np.outer(s, m)) < 1e-12
    # The split equals the truth up to one shared scalar.
    lam = split.s_hat[0] / s[0]
    np.testing.assert_allclose(split.s_hat, lam * s, atol=1e-10)
    np.testing.assert_allclose(split.m_hat, m / lam, atol=1e-10)
    assert not split.degenerate


def test_rank1_factorize_flags_tied_spectrum():
    assert rank1_factorize(np.eye(3, dtype=complex)).degenerate


def test_rank1_factorize_rejects_degenerate_inputs():
    with pytest.raises(EstimationError):
        rank1_factorize(np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        rank1_factorize(np.zeros((0, 3), dtype=complex))
    with pytest.raises(ValueError):
        rank1_factorize(np.zeros(3, dtype=complex))


def test_remove_ambiguity_anchors_the_first_symbol():
    rng = np.random.default_rng(10)
    s = rand_cn(rng, 6)
    m = rand_cn(rng, 4)
    ref = 2.0 - 1.0j
    s_out, m_out = remove_ambiguity(s, m, ref)
    assert s_out[0] == pytest.approx(ref)
    # The outer product is untouched.
    assert relerr(np.outer(s_out, m_out), np.outer(s, m)) < 1e-12


def test_remove_ambiguity_rejects_vanishing_reference():
    rng = np.random.default_rng(11)
    s = np.array([0.0, 1.0, 1.0], dtype=complex)
    m = rand_cn(rng, 4)
    with pytest.raises(EstimationError):
        remove_ambiguity(s, m, 1.0)
    with pytest.raises(ValueError):
        remove_ambiguity(np.ones(3, dtype=complex), m, 0.0)


@pytest.mark.parametrize("degenerate", [False, True])
def test_split_and_anchor_is_the_split_then_the_anchor(degenerate):
    rng = np.random.default_rng(12)
    x = np.eye(3, dtype=complex) if degenerate else rand_cn(rng, 6, 4)
    ref = 1.0 + 3.0j
    split = rank1_factorize(x)
    want = (*remove_ambiguity(split.s_hat, split.m_hat, ref), split.degenerate)
    got = split_and_anchor(x, ref)
    assert got.degenerate is want[2] is degenerate
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a, b)


def test_estimate_report_defaults_describe_a_one_shot_estimate():
    rng = np.random.default_rng(13)
    h, m, s = rand_cn(rng, 3, 4), rand_cn(rng, 4), rand_cn(rng, 6)
    rep = EstimateReport(h, m, s)
    assert rep.iterations == 1
    assert rep.residual_trace.shape == (0,)
    assert rep.converged and not rep.rank1_degenerate


def test_two_stage_noiseless_recovery_to_numerical_floor():
    h, m, s, f, x = _scene(13)
    y = build_noiseless(h, x, f).y
    rep = two_stage_estimate(y, f, s1_ref=s[0], rng=np.random.default_rng(14))
    delta = diagonal_fit(rep.h_hat, h)
    assert nmse(rep.h_hat * delta, h) < 1e-16
    assert nmse(rep.m_hat / delta, m) < 1e-16
    np.testing.assert_allclose(rep.s_hat, s, atol=1e-8)
    assert rep.converged
    assert rep.iterations == len(rep.residual_trace)
    assert not rep.rank1_degenerate


def test_two_stage_scale_equivariance():
    # Scaling the received block by c: with a paired initialisation the
    # symbol-side iterates are unchanged, so the detected symbols match and
    # the composite channel picks up exactly the factor c.
    h, m, s, f, x = _scene(17)
    rt = add_noise(build_noiseless(h, x, f), 15.0, np.random.default_rng(18))
    c = 3.0 - 4.0j
    rep1 = two_stage_estimate(rt.y, f, s1_ref=s[0], rng=np.random.default_rng(19))
    rep2 = two_stage_estimate(
        c * rt.y, f, s1_ref=s[0], rng=np.random.default_rng(19)
    )
    np.testing.assert_allclose(rep2.s_hat, rep1.s_hat, atol=1e-8)
    comp1 = rep1.h_hat * rep1.m_hat[None, :]
    comp2 = rep2.h_hat * rep2.m_hat[None, :]
    assert relerr(comp2, c * comp1) < 1e-8
    np.testing.assert_allclose(rep2.residual_trace, rep1.residual_trace, atol=1e-12)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**31 - 1))
def test_two_stage_random_scenes_always_monotone_and_finite(seed):
    h, m, s, f, x = _scene(seed)
    rt = add_noise(
        build_noiseless(h, x, f), 5.0, np.random.default_rng(seed + 1)
    )
    rep = two_stage_estimate(
        rt.y, f, s1_ref=s[0], rng=np.random.default_rng(seed + 2)
    )
    trace = np.asarray(rep.residual_trace)
    assert np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) <= 1e-14)
    assert np.all(np.isfinite(rep.h_hat))
    assert np.all(np.isfinite(rep.m_hat))


def test_flop_estimate_reference_point():
    # Reference geometry K=8, T=10, P=32, N=16: Grams + LU substitutions,
    # two LU factorisations (2n^3/3, rounded down; certified half-steps run
    # no Cholesky), right-hand sides, Gram-form residual (vdot(X, rhs) and
    # the sum of gram o gx).
    grams_and_substitutions = 2 * (8 + 10) * 16 * 16
    factorisations = 2 * 16**3 // 3
    rhs = 2 * 8 * 10 * 16
    residual = 10 * 16 + 16 * 16
    assert flop_estimate(8, 10, 32, 16) == (
        grams_and_substitutions + factorisations + rhs + residual
    ) == 14922
    # The training enters the loop only through per-trial terms.
    assert flop_estimate(8, 10, 4, 16) == 14922
    with pytest.raises(ValueError):
        flop_estimate(0, 1, 1, 1)
