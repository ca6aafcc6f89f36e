
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from dmasim.channels import (
    GenerationError,
    full_column_rank,
    gen_dft_training,
    gen_inner_physical,
    gen_inner_random_phase,
    gen_lorentzian_training,
    gen_pilots,
    gen_qam,
    gen_wireless,
    lorentzian_entry,
    qam_alphabet,
    qam_demap,
    qam_indices,
    training_spectrum,
)
from helpers import demap_oracle


def test_gen_wireless_shape_and_unit_average_power():
    rng = np.random.default_rng(0)
    h = gen_wireless(200, 100, rng)
    assert h.shape == (200, 100)
    assert np.iscomplexobj(h)
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
    # Circular symmetry: real and imaginary parts each carry half the power.
    assert np.var(h.real) == pytest.approx(0.5, abs=0.02)
    assert np.var(h.imag) == pytest.approx(0.5, abs=0.02)


def test_gen_wireless_is_seed_deterministic():
    a = gen_wireless(4, 5, np.random.default_rng(7))
    b = gen_wireless(4, 5, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_random_phase_inner_has_unit_modulus_and_uniform_phase():
    m = gen_inner_random_phase(5000, np.random.default_rng(3))
    np.testing.assert_allclose(np.abs(m), 1.0, atol=1e-12)
    phases = np.angle(m)
    pvalue = stats.kstest(phases, stats.uniform(-np.pi, 2 * np.pi).cdf).pvalue
    assert pvalue > 1e-4


def test_physical_inner_frozen_values():
    # One waveguide, three elements, unit pitch: the element at distance x
    # responds with exp(-(alpha + j*beta) * x), x = 1, 2, 3.
    m = gen_inner_physical(d=1, l=3, alpha=0.001, beta=0.0, spacing=1.0)
    np.testing.assert_allclose(
        np.abs(m), np.exp(-0.001 * np.arange(1, 4)), rtol=1e-14
    )
    np.testing.assert_allclose(m.imag, 0.0, atol=1e-15)

    with_phase = gen_inner_physical(d=1, l=2, alpha=0.0, beta=np.pi, spacing=1.0)
    np.testing.assert_allclose(with_phase, [-1.0, 1.0], atol=1e-12)


def test_physical_inner_tiles_identical_waveguides():
    m = gen_inner_physical(d=3, l=2, alpha=0.01, beta=0.5, spacing=0.25)
    assert m.shape == (6,)
    np.testing.assert_array_equal(m[:2], m[2:4])
    np.testing.assert_array_equal(m[:2], m[4:6])


def test_physical_inner_validates_arguments():
    with pytest.raises(ValueError):
        gen_inner_physical(0, 3, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gen_inner_physical(1, 3, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gen_inner_physical(1, 3, -0.1, 0.0, 1.0)


def test_lorentzian_entry_at_zero_phase():
    assert lorentzian_entry(0.0) == pytest.approx((1.0 + 1.0j) / 2.0)


@given(phi=st.floats(-50.0, 50.0, allow_nan=False))
def test_lorentzian_entries_lie_on_the_constraint_circle(phi):
    # The feasible set is the circle of radius 1/2 centred at j/2.
    assert abs(lorentzian_entry(phi) - 0.5j) == pytest.approx(0.5, abs=1e-12)


def test_lorentzian_training_shape_rank_and_circle():
    f = gen_lorentzian_training(12, 5, np.random.default_rng(1))
    assert f.shape == (12, 5)
    assert np.linalg.matrix_rank(f) == 5
    np.testing.assert_allclose(np.abs(f - 0.5j), 0.5, atol=1e-12)


def test_lorentzian_training_needs_enough_rows():
    with pytest.raises(GenerationError):
        gen_lorentzian_training(3, 5, np.random.default_rng(0))


def _count_matrix_rank(monkeypatch):
    calls = []
    real = np.linalg.matrix_rank

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    return calls


@given(seed=st.integers(0, 2**63 - 1), shape=st.sampled_from([(32, 16), (128, 64)]))
def test_certified_rank_decides_lorentzian_draws_as_matrix_rank(seed, shape):
    n = shape[1]
    f = lorentzian_entry(
        np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=shape)
    )
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_matrix_rank(mp)
        decided = full_column_rank(f)
    assert calls == []  # the eigenvalue certificate decided
    assert decided == (np.linalg.matrix_rank(f) == n)


def _outcome(fn, f):
    try:
        return fn(f)
    except np.linalg.LinAlgError as exc:
        return type(exc)


@pytest.mark.parametrize("perturbation", [0.0, 1e-15, 1e-10, "nan"])
def test_certified_rank_declines_near_singular_and_nan_training(
    perturbation, monkeypatch
):
    f = gen_lorentzian_training(32, 16, np.random.default_rng(5)).copy()
    if perturbation == "nan":
        f[3, 7] = np.nan
    else:
        noise = np.random.default_rng(6).standard_normal(32)
        f[:, 1] = f[:, 0] * (1.0 + perturbation * noise)
    expected = _outcome(lambda a: bool(np.linalg.matrix_rank(a) == 16), f)
    calls = _count_matrix_rank(monkeypatch)
    assert _outcome(full_column_rank, f) == expected
    assert calls == [(32, 16)]  # the certificate declined; matrix_rank decided
    if perturbation != "nan":
        # A 1e-10 perturbation leaves the columns independent to matrix_rank.
        assert expected is (perturbation == 1e-10)


def test_drawn_training_is_read_only_and_its_spectrum_remembered(monkeypatch):
    f = gen_lorentzian_training(32, 16, np.random.default_rng(7))
    assert not f.flags.writeable
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a)
    )
    spectrum = training_spectrum(f)
    assert calls == []  # taken by the rank check of the draw
    assert training_spectrum(f) is spectrum
    gram, low, high = spectrum
    expected = f.T @ f.conj()
    eigs = real(expected)
    np.testing.assert_array_equal(gram, expected)
    assert (low, high) == (eigs[0], eigs[-1])
    assert not gram.flags.writeable
    # A writable copy is neither looked up nor remembered.
    copy = f.copy()
    assert training_spectrum(copy)[1] == low
    assert training_spectrum(copy)[1] == low
    assert calls == [(16, 16), (16, 16)]


def test_dft_training_two_by_two_frozen():
    f = gen_dft_training(2, 2)
    np.testing.assert_allclose(f, [[1.0, 1.0], [1.0, -1.0]], atol=1e-12)


@pytest.mark.parametrize("p,n", [(4, 4), (8, 3), (32, 16)])
def test_dft_training_is_semi_unitary(p, n):
    f = gen_dft_training(p, n)
    np.testing.assert_allclose(
        f.conj().T @ f, p * np.eye(n), atol=1e-9 * p
    )


def test_dft_training_needs_enough_rows():
    with pytest.raises(ValueError):
        gen_dft_training(3, 5)


def test_qam_alphabet_order_four_frozen():
    alpha = qam_alphabet(4)
    expected = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / np.sqrt(2.0)
    np.testing.assert_allclose(alpha, expected, atol=1e-15)


@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_qam_alphabet_has_unit_mean_energy(order):
    alpha = qam_alphabet(order)
    assert alpha.shape == (order,)
    assert np.mean(np.abs(alpha) ** 2) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("order", [2, 8, 12, 32, 0])
def test_qam_alphabet_rejects_non_square_orders(order):
    with pytest.raises(ValueError):
        qam_alphabet(order)


def test_gen_qam_draws_from_the_alphabet():
    s = gen_qam(500, 16, np.random.default_rng(9))
    alpha = qam_alphabet(16)
    dists = np.abs(s[:, None] - alpha[None, :]).min(axis=1)
    assert dists.max() < 1e-12
    # All 16 points should appear in 500 draws.
    assert len({np.argmin(np.abs(v - alpha)) for v in s}) == 16


def test_gen_qam_is_the_alphabet_at_the_drawn_indices():
    idx = qam_indices(40, 64, np.random.default_rng(3))
    s = gen_qam(40, 64, np.random.default_rng(3))
    np.testing.assert_array_equal(s, qam_alphabet(64)[idx])
    np.testing.assert_array_equal(qam_demap(s, 64), idx)
    with pytest.raises(ValueError):
        qam_indices(4, 32, np.random.default_rng(3))


def test_gen_pilots_frozen_values():
    pilots = gen_pilots(10)
    assert pilots[0] == pytest.approx(1.0)
    assert pilots[1] == pytest.approx(np.exp(1j * 0.1))
    np.testing.assert_allclose(np.abs(pilots), 1.0, atol=1e-12)
    assert np.linalg.norm(pilots) ** 2 == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_qam_demap_round_trips_the_alphabet(order):
    alpha = qam_alphabet(order)
    np.testing.assert_array_equal(qam_demap(alpha, order), np.arange(order))


def test_qam_demap_survives_sub_decision_noise():
    alpha = qam_alphabet(64)
    min_dist = np.abs(alpha[0] - alpha[1])
    rng = np.random.default_rng(4)
    jitter = 0.45 * min_dist * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
    np.testing.assert_array_equal(qam_demap(alpha + jitter, 64), np.arange(64))


def test_qam_demap_matches_exhaustive_oracle():
    alpha = qam_alphabet(16)
    rng = np.random.default_rng(21)
    points = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    got = qam_demap(points, 16)
    want = [demap_oracle(v, alpha) for v in points]
    np.testing.assert_array_equal(got, want)


def test_qam_demap_breaks_ties_toward_the_smaller_index():
    # The origin is equidistant from all four 4-QAM points.
    assert qam_demap(np.array([0.0 + 0.0j]), 4)[0] == 0
