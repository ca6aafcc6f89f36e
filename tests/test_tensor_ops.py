import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmasim.tensor_ops import (
    NumericalError,
    khatri_rao,
    parafac_build,
    pinv,
    unfold_mode1,
    unfold_mode2,
)
from helpers import (
    khatri_rao_oracle,
    rand_cn,
    relerr,
    tensor_oracle,
    unfold1_oracle,
    unfold2_oracle,
)

dims = st.integers(min_value=1, max_value=5)


def test_unfold_mode1_places_single_entry_at_documented_column():
    y = np.zeros((2, 3, 4), dtype=complex)
    y[1, 2, 3] = 7.0
    u = unfold_mode1(y)
    assert u.shape == (2, 12)
    assert u[1, 3 * 3 + 2] == 7.0  # column p*T + t
    assert np.count_nonzero(u) == 1


def test_unfold_mode2_places_single_entry_at_documented_column():
    y = np.zeros((2, 3, 4), dtype=complex)
    y[1, 2, 3] = 7.0
    u = unfold_mode2(y)
    assert u.shape == (3, 8)
    assert u[2, 3 * 2 + 1] == 7.0  # column p*K + k
    assert np.count_nonzero(u) == 1


@given(k=dims, t=dims, p=dims, seed=st.integers(0, 2**32 - 1))
def test_unfoldings_match_loop_oracle(k, t, p, seed):
    y = rand_cn(np.random.default_rng(seed), k, t, p)
    np.testing.assert_array_equal(unfold_mode1(y), unfold1_oracle(y))
    np.testing.assert_array_equal(unfold_mode2(y), unfold2_oracle(y))


def test_khatri_rao_scalar_case():
    out = khatri_rao(np.array([[2.0]]), np.array([[3.0j]]))
    np.testing.assert_allclose(out, np.array([[6.0j]]))


def test_khatri_rao_first_factor_varies_slowest():
    a = np.array([[1.0], [10.0]])
    b = np.array([[1.0], [2.0], [3.0]])
    out = khatri_rao(a, b)
    np.testing.assert_allclose(out[:, 0], [1.0, 2.0, 3.0, 10.0, 20.0, 30.0])


@given(i=dims, j=dims, n=dims, seed=st.integers(0, 2**32 - 1))
def test_khatri_rao_matches_loop_oracle(i, j, n, seed):
    rng = np.random.default_rng(seed)
    a = rand_cn(rng, i, n)
    b = rand_cn(rng, j, n)
    np.testing.assert_allclose(
        khatri_rao(a, b), khatri_rao_oracle(a, b), atol=1e-15
    )


@given(i=dims, j=dims, n=dims, seed=st.integers(0, 2**32 - 1))
def test_khatri_rao_gram_is_hadamard_of_grams(i, j, n, seed):
    rng = np.random.default_rng(seed)
    a = rand_cn(rng, i, n)
    b = rand_cn(rng, j, n)
    kr = khatri_rao(a, b)
    lhs = kr.conj().T @ kr
    rhs = (a.conj().T @ a) * (b.conj().T @ b)
    assert relerr(lhs, rhs) < 1e-12


def test_parafac_build_matches_scalar_sum_oracle():
    rng = np.random.default_rng(2024)
    # Single entries, one-column factors, and the desk geometry.
    for k, t, p, n in [(4, 5, 6, 3), (1, 1, 1, 1), (3, 1, 2, 5), (1, 7, 4, 2),
                       (8, 10, 32, 16)]:
        h = rand_cn(rng, k, n)
        x = rand_cn(rng, t, n)
        f = rand_cn(rng, p, n)
        y = parafac_build(h, x, f)
        assert y.shape == (k, t, p)
        assert relerr(y, tensor_oracle(h, x, f)) < 1e-13


@given(k=dims, t=dims, p=dims, n=dims, seed=st.integers(0, 2**32 - 1))
def test_unfolding_factorisations(k, t, p, n, seed):
    rng = np.random.default_rng(seed)
    h = rand_cn(rng, k, n)
    x = rand_cn(rng, t, n)
    f = rand_cn(rng, p, n)
    y = parafac_build(h, x, f)
    assert relerr(unfold_mode1(y), h @ khatri_rao(f, x).T) < 1e-12
    assert relerr(unfold_mode2(y), x @ khatri_rao(f, h).T) < 1e-12


# numpy's rcond argument is slated for deprecation in favour of rtol; a
# warning from pinv would surface here first.
no_deprecation = pytest.mark.filterwarnings("error::DeprecationWarning")


def assert_numpys_pinv(a, ap, rcond=1e-12):
    """``ap`` is ``np.linalg.pinv(a, rcond)``, bit for bit."""
    want = np.linalg.pinv(a, rcond)
    assert ap.dtype == want.dtype and ap.shape == want.shape
    assert ap.tobytes() == want.tobytes()


@no_deprecation
def test_pinv_rank_deficient_diagonal():
    a = np.diag([2.0, 0.0]).astype(complex)
    ap = pinv(a)
    np.testing.assert_allclose(ap, np.diag([0.5, 0.0]), atol=1e-15)
    assert_numpys_pinv(a, ap)


@no_deprecation
@given(
    rows=dims,
    cols=dims,
    seed=st.integers(0, 2**32 - 1),
)
def test_pinv_satisfies_moore_penrose_identities(rows, cols, seed):
    a = rand_cn(np.random.default_rng(seed), rows, cols)
    ap = pinv(a)
    assert relerr(a @ ap @ a, a) < 1e-10
    assert relerr(ap @ a @ ap, ap) < 1e-10
    assert relerr((a @ ap).conj().T, a @ ap) < 1e-10
    assert relerr((ap @ a).conj().T, ap @ a) < 1e-10
    assert_numpys_pinv(a, ap)


@no_deprecation
def test_pinv_discards_singular_values_below_cutoff():
    # Singular values 1 and 1e-15: the small one sits below the default
    # relative cutoff and must be treated as exactly zero, not inverted.
    u = np.linalg.qr(rand_cn(np.random.default_rng(0), 3, 2))[0]
    v = np.linalg.qr(rand_cn(np.random.default_rng(1), 2, 2))[0]
    a = u @ np.diag([1.0, 1e-15]) @ v.conj().T
    ap = pinv(a, rcond=1e-12)
    assert np.linalg.norm(ap, 2) < 2.0  # would be ~1e15 if inverted
    assert_numpys_pinv(a, ap, rcond=1e-12)


@no_deprecation
def test_pinv_rejects_non_finite_input():
    a = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericalError):
        pinv(a)


@pytest.mark.parametrize("a", [np.ones(3, dtype=complex), np.ones((0, 2), dtype=complex)])
def test_pinv_rejects_non_matrices(a):
    with pytest.raises(ValueError):
        pinv(a)
