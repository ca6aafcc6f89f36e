"""Complex matrix / third-order tensor primitives used by the estimators.

Index conventions (fixed for the whole package):

* A third-order array ``y`` has shape ``(K, T, P)`` and is indexed
  ``y[k, t, p]``; the matrix ``y[:, :, p]`` is the p-th frontal slice.
* ``unfold_mode1`` places the frontal slices side by side, so column
  ``p*T + t`` of the result equals column ``t`` of slice ``p``.
* ``unfold_mode2`` places the transposed slices side by side, so column
  ``p*K + k`` of the result equals row ``k`` of slice ``p``.
* ``khatri_rao(a, b)`` stacks columnwise Kronecker products with the first
  factor's row index varying slowly: row ``i*J + j`` of column ``n`` equals
  ``a[i, n] * b[j, n]``.

With these choices, for ``y = parafac_build(h, x, f)``::

    unfold_mode1(y) == h @ khatri_rao(f, x).T        # shape (K, P*T)
    unfold_mode2(y) == x @ khatri_rao(f, h).T        # shape (T, P*K)

hold exactly (up to floating-point roundoff).  Leading axes beyond these
index trials: every function here maps a stack of trials' arrays to the
stack of its per-trial results.
"""

import math

import numpy as np


def unfold_mode1(y: np.ndarray) -> np.ndarray:
    """Mode-1 unfolding of a (K, T, P) array into (K, P*T)."""
    if y.ndim < 3:
        raise ValueError(f"expected a third-order array, got ndim={y.ndim}")
    *lead, k, t, p = y.shape
    return np.swapaxes(y, -1, -2).reshape(*lead, k, p * t)


def unfold_mode2(y: np.ndarray) -> np.ndarray:
    """Mode-2 unfolding of a (K, T, P) array into (T, P*K)."""
    if y.ndim < 3:
        raise ValueError(f"expected a third-order array, got ndim={y.ndim}")
    *lead, k, t, p = y.shape
    return np.moveaxis(y, -3, -1).reshape(*lead, t, p * k)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product of (I, N) and (J, N) into (I*J, N)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"column-count mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    # The product is written in C order, so the reshape never copies,
    # whatever the factors' layout.
    out = np.multiply(a[..., :, None, :], b[..., None, :, :], order="C")
    return out.reshape(*out.shape[:-3], -1, out.shape[-1])


def parafac_build(h: np.ndarray, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Assemble y[k, t, p] = sum_n h[k, n] * x[t, n] * f[p, n]."""
    if h.ndim < 2 or x.ndim < 2 or f.ndim < 2:
        raise ValueError("parafac_build expects three matrices")
    if not (h.shape[-1] == x.shape[-1] == f.shape[-1]):
        raise ValueError(
            "factor column counts differ: "
            f"{h.shape[-1]}, {x.shape[-1]}, {f.shape[-1]}"
        )
    # khatri_rao(h, x) @ f.T as one fixed contraction; an optimised einsum
    # would search for a path on every call.  A stack of B trials is built
    # into its output about sqrt(B) trials at a time: the loop runs about
    # sqrt(B) times, and only a sub-block's Khatri-Rao product is held.
    # Each trial is the same GEMM as in one stacked product.  The multiply
    # behind a product takes two buffers of up to its size while it runs,
    # so the output is allocated after the first product, and each product
    # is let go before the next.
    lead = np.broadcast_shapes(h.shape[:-2], x.shape[:-2], f.shape[:-2])
    k, t, p = h.shape[-2], x.shape[-2], f.shape[-2]
    trials = math.prod(lead)
    hs, xs, fs = (
        np.broadcast_to(a, (*lead, *a.shape[-2:])).reshape(trials, *a.shape[-2:])
        for a in (h, x, f)
    )
    step = math.isqrt(trials)
    y = None
    for j in range(0, trials, step):
        kr = khatri_rao(hs[j:j + step], xs[j:j + step])
        if y is None:
            y = np.empty((trials, k * t, p), np.result_type(kr, f))
        np.matmul(kr, np.swapaxes(fs[j:j + step], -1, -2), out=y[j:j + step])
        del kr
    return y.reshape(*lead, k, t, p)


def squared_norms(a: np.ndarray, ndim: int) -> np.ndarray:
    """``float(np.linalg.norm(t)) ** 2`` of each trial's array ``t``, the
    last ``ndim`` axes of ``a``, bit for bit, in the shape of the leading
    axes.  numpy's whole-array norm is the square root of BLAS dot
    products over the real and the imaginary parts, which a reduction
    along an axis does not reproduce; ``np.vecdot`` takes the same dot
    product of each trial.  The square is Python's, as in that expression:
    it rounds differently from ``x * x`` now and then."""
    lead = a.shape[: a.ndim - ndim]
    flat = a.reshape(*lead, -1)
    if flat.dtype.kind not in "fc":  # as np.linalg.norm casts
        flat = flat.astype(float)
    if flat.dtype.kind == "c":
        dots = np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag)
    else:
        dots = np.vecdot(flat, flat)
    squares = [norm**2 for norm in np.sqrt(dots).reshape(-1).tolist()]
    return np.array(squares).reshape(lead)


def pinv(a: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """``np.linalg.pinv(a, rcond)``: the Moore-Penrose pseudo-inverse with
    singular values at or below ``rcond * sigma_max`` treated as zero.
    numpy's ``LinAlgError`` passes through when the SVD fails (on NaN
    entries, for one)."""
    if a.ndim != 2:
        raise ValueError("pinv expects a matrix")
    if a.size == 0:
        raise ValueError("pinv of an empty matrix is undefined here")
    return np.linalg.pinv(a, rcond)
