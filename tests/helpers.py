"""Reference oracles for the test suite.

Everything in here is deliberately written the slow, obvious way (index
loops, exhaustive search) so the fast vectorised implementations in the
package are checked against an independent computation rather than against
themselves.
"""

from __future__ import annotations

import numpy as np


def rand_cn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws."""
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def tensor_oracle(h: np.ndarray, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Scalar triple-sum construction of the received block: one explicit
    loop per index, summing h[k,n] * x[t,n] * f[p,n] over n."""
    k_dim, n_dim = h.shape
    t_dim = x.shape[0]
    p_dim = f.shape[0]
    y = np.zeros((k_dim, t_dim, p_dim), dtype=complex)
    for k in range(k_dim):
        for t in range(t_dim):
            for p in range(p_dim):
                acc = 0.0 + 0.0j
                for n in range(n_dim):
                    acc += h[k, n] * x[t, n] * f[p, n]
                y[k, t, p] = acc
    return y


def unfold1_oracle(y: np.ndarray) -> np.ndarray:
    """Loop placement of y[k,t,p] into row k, column p*T + t."""
    k_dim, t_dim, p_dim = y.shape
    out = np.zeros((k_dim, p_dim * t_dim), dtype=y.dtype)
    for k in range(k_dim):
        for t in range(t_dim):
            for p in range(p_dim):
                out[k, p * t_dim + t] = y[k, t, p]
    return out


def unfold2_oracle(y: np.ndarray) -> np.ndarray:
    """Loop placement of y[k,t,p] into row t, column p*K + k."""
    k_dim, t_dim, p_dim = y.shape
    out = np.zeros((t_dim, p_dim * k_dim), dtype=y.dtype)
    for k in range(k_dim):
        for t in range(t_dim):
            for p in range(p_dim):
                out[t, p * k_dim + k] = y[k, t, p]
    return out


def khatri_rao_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise Kronecker product with explicit loops, rows of ``a``
    varying slowest."""
    i_dim, n_dim = a.shape
    j_dim = b.shape[0]
    out = np.zeros((i_dim * j_dim, n_dim), dtype=complex)
    for n in range(n_dim):
        for i in range(i_dim):
            for j in range(j_dim):
                out[i * j_dim + j, n] = a[i, n] * b[j, n]
    return out


def demap_oracle(value: complex, alphabet: np.ndarray) -> int:
    """Exhaustive nearest-point search; ties go to the smaller index."""
    best = 0
    best_d = abs(value - alphabet[0])
    for idx in range(1, alphabet.size):
        d = abs(value - alphabet[idx])
        if d < best_d - 0.0:  # strict: ties keep the earlier index
            best = idx
            best_d = d
    return best


def scalar_fit_oracle(est: np.ndarray, truth: np.ndarray) -> complex:
    """Least-squares complex scale c minimising ||c*est - truth||, from the
    normal equation c = <est, truth> / <est, est>; 0 for a zero estimate."""
    denom = np.vdot(est, est)
    if denom == 0:
        return 0.0 + 0.0j
    return complex(np.vdot(est, truth) / denom)


def relerr(est: np.ndarray, ref: np.ndarray) -> float:
    """Frobenius relative error against a reference."""
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        return float(np.linalg.norm(est))
    return float(np.linalg.norm(est - ref) / denom)


def bals_pinv_oracle(
    y: np.ndarray,
    f: np.ndarray,
    x0: np.ndarray,
    max_iters: int = 1000,
    tol: float = 1e-6,
    rcond: float = 1e-12,
    eps_floor: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, list[float], bool]:
    """Alternating least squares written as the textbook pseudo-inverse
    updates ``H = Y1 @ pinv(KR(F, X).T)`` and ``X = Y2 @ pinv(KR(F, H).T)``,
    with the unfoldings and Khatri-Rao products built by the loop oracles
    above, and the same stopping rule as ``receiver.bals``.

    Returns (h_hat, x_hat, residual trace, converged).
    """
    y1 = unfold1_oracle(y)
    y2 = unfold2_oracle(y)
    ynorm = np.linalg.norm(y)
    x_hat = np.array(x0, dtype=complex)
    h_hat = np.zeros((y.shape[0], f.shape[1]), dtype=complex)
    residuals: list[float] = []
    prev = None
    for _ in range(max_iters):
        h_hat = y1 @ np.linalg.pinv(khatri_rao_oracle(f, x_hat).T, rcond=rcond)
        b = khatri_rao_oracle(f, h_hat)
        x_hat = y2 @ np.linalg.pinv(b.T, rcond=rcond)
        eps = float(np.linalg.norm(y2 - x_hat @ b.T) / ynorm)
        residuals.append(eps)
        if eps <= eps_floor:
            return h_hat, x_hat, residuals, True
        if prev is not None and (prev <= eps_floor or abs(eps - prev) / prev <= tol):
            return h_hat, x_hat, residuals, True
        prev = eps
    return h_hat, x_hat, residuals, False
