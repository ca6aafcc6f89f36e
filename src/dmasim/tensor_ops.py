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

hold exactly (up to floating-point roundoff).
"""

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a dense linear-algebra kernel fails to converge."""


def unfold_mode1(y: np.ndarray) -> np.ndarray:
    """Mode-1 unfolding of a (K, T, P) array into (K, P*T)."""
    if y.ndim != 3:
        raise ValueError(f"expected a third-order array, got ndim={y.ndim}")
    k, t, p = y.shape
    return y.transpose(0, 2, 1).reshape(k, p * t)


def unfold_mode2(y: np.ndarray) -> np.ndarray:
    """Mode-2 unfolding of a (K, T, P) array into (T, P*K)."""
    if y.ndim != 3:
        raise ValueError(f"expected a third-order array, got ndim={y.ndim}")
    k, t, p = y.shape
    return y.transpose(1, 2, 0).reshape(t, p * k)


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product of (I, N) and (J, N) into (I*J, N)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects two matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column-count mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    i, n = a.shape
    j = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(i * j, n)


def parafac_build(h: np.ndarray, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Assemble y[k, t, p] = sum_n h[k, n] * x[t, n] * f[p, n]."""
    if h.ndim != 2 or x.ndim != 2 or f.ndim != 2:
        raise ValueError("parafac_build expects three matrices")
    if not (h.shape[1] == x.shape[1] == f.shape[1]):
        raise ValueError(
            "factor column counts differ: "
            f"{h.shape[1]}, {x.shape[1]}, {f.shape[1]}"
        )
    # khatri_rao(h, x) @ f.T as one fixed contraction; an optimised einsum
    # would search for a path on every call.  The product is written in C
    # order, so the reshape never copies, whatever the factors' layout.
    (k, n), t, p = h.shape, x.shape[0], f.shape[0]
    kr = np.multiply(h[:, None, :], x[None, :, :], order="C").reshape(k * t, n)
    return (kr @ f.T).reshape(k, t, p)


def pinv(a: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """``np.linalg.pinv(a, rcond)``: the Moore-Penrose pseudo-inverse with
    singular values at or below ``rcond * sigma_max`` treated as zero."""
    if a.ndim != 2:
        raise ValueError("pinv expects a matrix")
    if a.size == 0:
        raise ValueError("pinv of an empty matrix is undefined here")
    try:
        return np.linalg.pinv(a, rcond)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"SVD failed in pinv: {exc}") from exc
