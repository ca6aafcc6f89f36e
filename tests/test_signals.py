import numpy as np
import pytest

from dmasim.signals import (
    add_noise,
    build_noiseless,
    build_rank_one,
    identifiability_preflight,
)
from helpers import rand_cn, relerr, tensor_oracle


def test_build_rank_one_is_the_outer_product():
    x = build_rank_one(np.array([1.0, 2.0j]), np.array([3.0, 5.0]))
    np.testing.assert_allclose(x, [[3.0, 5.0], [6.0j, 10.0j]])


def test_build_rank_one_rejects_matrices():
    with pytest.raises(ValueError):
        build_rank_one(np.ones((2, 2)), np.ones(2))


def test_build_noiseless_fields_and_value():
    rng = np.random.default_rng(0)
    h = rand_cn(rng, 3, 2)
    x = rand_cn(rng, 4, 2)
    f = rand_cn(rng, 5, 2)
    rt = build_noiseless(h, x, f)
    assert rt.noise_variance == 0.0
    assert relerr(rt.y, tensor_oracle(h, x, f)) < 1e-13


def _noiseless_block(seed=0, k=6, t=8, p=10, n=3):
    rng = np.random.default_rng(seed)
    return build_noiseless(
        rand_cn(rng, k, n), rand_cn(rng, t, n), rand_cn(rng, p, n)
    )


def test_add_noise_variance_formula_is_exact():
    rt = _noiseless_block()
    noisy = add_noise(rt, 10.0, np.random.default_rng(1))
    sig = np.linalg.norm(rt.y) ** 2
    assert noisy.noise_variance == pytest.approx(
        sig / (rt.y.size * 10.0), rel=1e-12
    )


def test_add_noise_is_the_unfused_sum_bit_for_bit():
    rt = _noiseless_block()
    noisy = add_noise(rt, 7.0, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    scale = np.sqrt(noisy.noise_variance / 2.0)
    expected = rt.y + scale * (
        rng.standard_normal(rt.y.shape) + 1j * rng.standard_normal(rt.y.shape)
    )
    assert noisy.y.tobytes() == expected.tobytes()


def test_add_noise_realised_snr_tracks_request():
    rt = _noiseless_block(k=16, t=16, p=16, n=4)
    for snr_db in (0.0, 15.0, 30.0):
        noisy = add_noise(rt, snr_db, np.random.default_rng(42))
        realised = 10.0 * np.log10(
            np.linalg.norm(rt.y) ** 2 / np.linalg.norm(noisy.y - rt.y) ** 2
        )
        assert realised == pytest.approx(snr_db, abs=0.2)


def test_add_noise_passthrough_for_infinite_snr():
    rt = _noiseless_block()
    assert add_noise(rt, None, np.random.default_rng(0)) is rt
    assert add_noise(rt, np.inf, np.random.default_rng(0)) is rt


@pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
def test_add_noise_rejects_nan_and_minus_infinite_snr(snr_db):
    # Neither returns the clean block nor an all-NaN one.
    rt = _noiseless_block()
    with pytest.raises(ValueError, match="snr_db"):
        add_noise(rt, snr_db, np.random.default_rng(0))


def test_add_noise_refuses_to_stack_noise():
    rt = _noiseless_block()
    noisy = add_noise(rt, 20.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        add_noise(noisy, 20.0, np.random.default_rng(0))


def test_preflight_at_the_reference_operating_point():
    # K=8, T=10, P=32, N=16: the strict uniqueness bound fails while the
    # relaxed (generic) bound holds comfortably.
    rep = identifiability_preflight(8, 10, 32, 16)
    assert rep.kruskal_ok is False
    assert rep.relaxed_ok is True
    assert rep.p_ge_n is True
    assert rep.kruskal_lhs == min(8, 16) + 1 + min(32, 16)  # = 25
    assert rep.kruskal_rhs == 2 * 16 + 2  # = 34
    assert rep.relaxed_lhs == 10 * 9 * 8 * 7 // 4  # = 1260
    assert rep.relaxed_rhs == 16 * 15 // 2  # = 120


def test_preflight_single_component_is_always_identifiable():
    rep = identifiability_preflight(4, 4, 4, 1)
    assert rep.kruskal_ok is True
    assert rep.relaxed_ok is True


@pytest.mark.parametrize("k,t,p,n", [(8, 8, 8, 2), (16, 4, 16, 4), (16, 4, 16, 3)])
def test_preflight_strict_bound_fails_for_any_multicomponent_case(k, t, p, n):
    # The symbol block is rank one, so its Kruskal rank contributes exactly 1
    # and min(K,N) + 1 + min(P,N) <= 2N + 1 < 2N + 2 whenever N >= 2:
    # the strict bound is structurally out of reach and the relaxed test is
    # the operative one.
    rep = identifiability_preflight(k, t, p, n)
    assert rep.kruskal_lhs == min(k, n) + 1 + min(p, n)
    assert rep.kruskal_rhs == 2 * n + 2
    assert rep.kruskal_ok is False


def test_preflight_strict_bound_passes_only_in_the_rank_one_case():
    rep = identifiability_preflight(2, 4, 2, 1)
    assert rep.kruskal_ok is True


def test_preflight_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        identifiability_preflight(0, 4, 4, 2)
