"""Two-stage semi-blind receiver.

Stage one fits the bilinear model ``Y1 = H @ khatri_rao(F, X).T`` /
``Y2 = X @ khatri_rao(F, H).T`` by alternating least squares with the
training matrix F known.  Stage two splits the fitted symbol block into a
symbol vector and an inner-response vector through its dominant singular
triplet, and a single known reference symbol removes the residual scalar
ambiguity.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tensor_ops import (
    NumericalError,
    khatri_rao,
    parafac_build,
    pinv,
    unfold_mode1,
    unfold_mode2,
)


class EstimationError(RuntimeError):
    """Raised when the receiver cannot produce a usable estimate."""


# Smallest min/max ratio of the Cholesky factor's diagonal at which a
# normal-equation solve is trusted.  The Gram's condition number is at least
# the inverse square of this ratio (1e6 here), and the normal equations lose
# about cond * eps relative accuracy, so below it a half-step takes the
# pseudo-inverse path instead.  Over the desk campaign (seeds 0 and 1) the
# smallest ratio seen is 5e-3.  The factorisation runs only on half-steps
# the Schur bound below cannot certify.
CHOLESKY_DIAG_RATIO = 1e-3

# Schur product theorem (Horn & Johnson, Topics in Matrix Analysis, sec.
# 5.3): for positive semidefinite A and B, the eigenvalues of A o B lie in
# [lambda_min(A) min_i B_ii, lambda_max(A) max_i B_ii], and the squared
# Cholesky diagonal of A o B lies within its eigenvalue range.  So a Gram
# (F^T F*) o B whose bound cond(F^T F*) * max_i B_ii / min_i B_ii is at most
# CHOLESKY_DIAG_RATIO**-2 passes the diagonal test; certifying at a tenth of
# that leaves a margin for roundoff.  The lower bound must also stay clear of
# the subnormal range, where the Gram's entries lose relative accuracy.
_SCHUR_COND_BOUND = 0.1 / CHOLESKY_DIAG_RATIO**2
_SCHUR_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class BalsConfig:
    """Knobs of the alternating-LS stage.

    ``tol`` stops the iteration once the relative change of the normalised
    residual falls below it; ``eps_floor`` declares an exact fit (and stops)
    once the residual itself falls below it, which also guards the relative
    test against division by zero on noiseless data.  ``rcond`` is the
    singular-value cutoff of the pseudo-inverse fallback only; the normal
    equations do not use it.  ``init`` optionally pins the symbol-block
    starting point instead of a random draw.
    """

    max_iters: int = 1000
    tol: float = 1e-6
    rcond: float = 1e-12
    eps_floor: float = 1e-12
    init: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class BalsResult:
    h_hat: np.ndarray
    x_hat: np.ndarray
    residuals: np.ndarray  # normalised residual after each full iteration
    converged: bool


class Rank1Split(NamedTuple):
    s_hat: np.ndarray
    m_hat: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class EstimateReport:
    h_hat: np.ndarray
    m_hat: np.ndarray
    s_hat: np.ndarray
    iterations: int
    residual_trace: np.ndarray
    converged: bool
    rank1_degenerate: bool


def _schur_certified(gf_eig: list[float], factor_gram: np.ndarray) -> bool:
    """Whether the Gram ``(F^T F*) o factor_gram`` is certain to pass the
    Cholesky guard, from the extreme eigenvalues ``gf_eig`` of ``F^T F*``
    and the diagonal of ``factor_gram`` (``X^T X*`` or ``H^T H*``; see
    ``_SCHUR_COND_BOUND``).  A NaN, a zero column or a singular ``F^T F*``
    never certifies."""
    # Python floats: N is small, and numpy's reductions cost more here than
    # the arithmetic.  min and max may skip a NaN; the sum keeps it.
    diag = factor_gram.diagonal().real.tolist()
    low = gf_eig[0] * min(diag)
    return (
        low >= _SCHUR_FLOOR
        and gf_eig[1] * max(diag) <= _SCHUR_COND_BOUND * low
        and sum(diag) < math.inf
    )


def _normal_solve(
    gram: np.ndarray, rhs: np.ndarray, certified: bool
) -> np.ndarray | None:
    """``rhs @ inv(gram)`` for a Hermitian positive definite ``gram``.

    Unless the Schur bound has ``certified`` the Gram, a Cholesky factor
    ``gram = L @ L^H`` serves as the guard only: returns None when it does
    not exist or its diagonal shows the Gram too ill-conditioned to trust
    (see ``CHOLESKY_DIAG_RATIO``).  A certified Gram would pass that test,
    so it goes straight to the solve and gives the same result bit for bit.
    numpy has no triangular solver, so one LU solve on the Gram is cheaper
    than two general solves on the factor.
    """
    if not certified:
        try:
            low = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        diag = low.diagonal().real
        if not diag.min() >= CHOLESKY_DIAG_RATIO * diag.max():  # NaN fails too
            return None
    # A @ gram = rhs  <=>  gram^T @ A^T = rhs^T, and gram^T = conj(gram).
    return np.linalg.solve(gram.conj(), rhs.T).T


def normal_rhs(yf: np.ndarray, factor: np.ndarray, mode: int) -> np.ndarray:
    """Right-hand side of a half-step's normal equations,
    ``unfold_mode{mode}(Y) @ conj(khatri_rao(F, factor))``, from the
    training-contracted block ``yf = Y F*`` of shape (K, T, N).

    Mode 1 (the channel update) contracts the symbol axis with the (T, N)
    ``factor``; mode 2 (the symbol-block update) contracts the subcarrier
    axis with the (K, N) ``factor``.
    """
    return _conj_rhs(yf, factor.conj(), mode)


def _conj_rhs(yf: np.ndarray, factor_conj: np.ndarray, mode: int) -> np.ndarray:
    """``normal_rhs`` from the already conjugated factor."""
    spec = "ktn,tn->kn" if mode == 1 else "ktn,kn->tn"
    return np.einsum(spec, yf, factor_conj)


def bals(
    y: np.ndarray,
    f: np.ndarray,
    cfg: BalsConfig | None = None,
    rng: np.random.Generator | None = None,
) -> BalsResult:
    """Alternating least-squares fit of (H, X) given the received block and F.

    Each half-step solves its N x N normal equations, guarded by a Cholesky
    factor unless the Schur bound certifies the Gram, and falls back to
    ``Y_unfolded @ pinv(khatri_rao(...).T, rcond)`` when the Gram is not
    safely positive definite.  After the per-trial set-up the loop touches
    only N-dimensional data: the residual is taken in the column space of F
    (see below).

    Parameters
    ----------
    y : (K, T, P) received block.
    f : (P, N) known training matrix.
    cfg : solver knobs; defaults to ``BalsConfig()``.
    rng : source for the random symbol-block initialisation; required unless
        ``cfg.init`` is given.

    Returns
    -------
    BalsResult with the fitted factors, the residual trace
    ``||Y - Y_hat||_F / ||Y||_F`` (one entry per full iteration, monotone
    nonincreasing up to roundoff), and a convergence flag.

    Raises
    ------
    EstimationError on non-finite residuals or failed pseudo-inverses.
    """
    cfg = cfg or BalsConfig()
    if y.ndim != 3:
        raise ValueError("bals expects a third-order received block")
    k, t, p = y.shape
    if f.ndim != 2 or f.shape[0] != p:
        raise ValueError(f"training matrix must have {p} rows, got {f.shape}")
    n = f.shape[1]
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        raise EstimationError("received block is identically zero")
    if cfg.init is not None:
        if cfg.init.shape != (t, n):
            raise ValueError(f"init must have shape {(t, n)}, got {cfg.init.shape}")
        x_hat = np.array(cfg.init, dtype=complex)
    else:
        if rng is None:
            raise ValueError("rng is required when no init is supplied")
        x_hat = (
            rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
        ) / np.sqrt(2.0)

    # Normal-equation form of both half-steps (Kolda & Bader, SIAM Review
    # 2009, sec. 3.4): the Gram of khatri_rao(F, X) is (F^T F*) o (X^T X*),
    # and Y1 @ khatri_rao(F, X)* contracts the training first, so the
    # training enters each iteration only through these two per-trial terms.
    y2 = y.reshape(k * t, p)
    fc = f.conj()
    gf = f.T @ fc
    yf = (y2 @ fc).reshape(k, t, n)
    # Extreme eigenvalues of F^T F*, for the Schur bound that lets most
    # half-steps skip the Cholesky guard (see _SCHUR_COND_BOUND).
    gf_eig = np.linalg.eigvalsh(gf)[[0, -1]].tolist()
    # The model's mode-3 fibres lie in the column space of F = Q R, so the
    # residual splits into the part of Y outside it, fixed per trial, and
    # an in-space part of dimension min(P, N):
    #   ||Y - Y_hat||^2 = ||Y - Yq Q^T||^2 + ||Yq - parafac_build(H, X, R)||^2
    # with Yq = Y Q*.  Both terms are explicit norms of differences: a Gram
    # expansion would cancel catastrophically near an exact fit, where
    # eps_floor has to see it.
    q, r = np.linalg.qr(f)
    yq2 = y2 @ q.conj()
    perp2 = float(np.linalg.norm(y2 - yq2 @ q.T)) ** 2
    yq = yq2.reshape(k, t, -1)
    h_hat = np.zeros((k, n), dtype=complex)
    residuals: list[float] = []
    converged = False
    prev = None
    for it in range(1, cfg.max_iters + 1):
        try:
            # Each factor is conjugated once, for its Gram and the
            # right-hand side.
            xc = x_hat.conj()
            gx = x_hat.T @ xc
            h_hat = _normal_solve(
                gf * gx, _conj_rhs(yf, xc, 1), _schur_certified(gf_eig, gx)
            )
            if h_hat is None:
                h_hat = unfold_mode1(y) @ pinv(khatri_rao(f, x_hat).T, cfg.rcond)
            hc = h_hat.conj()
            gh = h_hat.T @ hc
            x_hat = _normal_solve(
                gf * gh, _conj_rhs(yf, hc, 2), _schur_certified(gf_eig, gh)
            )
            if x_hat is None:
                x_hat = unfold_mode2(y) @ pinv(khatri_rao(f, h_hat).T, cfg.rcond)
        except NumericalError as exc:
            raise EstimationError(f"pseudo-inverse failed at iteration {it}: {exc}")
        fit = parafac_build(h_hat, x_hat, r)
        eps = math.sqrt(perp2 + float(np.linalg.norm(yq - fit)) ** 2) / ynorm
        if not math.isfinite(eps):
            raise EstimationError(f"non-finite residual at iteration {it}")
        residuals.append(eps)
        if eps <= cfg.eps_floor or (
            prev is not None
            and (prev <= cfg.eps_floor or abs(eps - prev) / prev <= cfg.tol)
        ):
            converged = True
            break
        prev = eps
    return BalsResult(
        h_hat=h_hat,
        x_hat=x_hat,
        residuals=np.asarray(residuals),
        converged=converged,
    )


def rank1_factorize(x_hat: np.ndarray) -> Rank1Split:
    """Split the fitted block into (s_hat, m_hat) via its dominant singular
    triplet, with the singular value shared evenly between the two vectors.

    ``degenerate`` flags a (near-)tied leading singular pair, in which case
    the returned split is valid but not uniquely determined.
    """
    if x_hat.ndim != 2 or x_hat.size == 0:
        raise ValueError("rank1_factorize expects a nonempty matrix")
    if not np.any(x_hat):
        raise EstimationError("cannot split an all-zero block")
    try:
        u, sv, vh = np.linalg.svd(x_hat, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EstimationError(f"SVD failed in rank1_factorize: {exc}") from exc
    root = np.sqrt(sv[0])
    s_hat = root * u[:, 0]
    m_hat = root * vh[0]  # row of vh is v^H, so this is sqrt(sigma) * conj(v)
    degenerate = sv.size > 1 and (sv[0] - sv[1]) <= 1e-9 * sv[0]
    return Rank1Split(s_hat=s_hat, m_hat=m_hat, degenerate=bool(degenerate))


def remove_ambiguity(
    h_hat: np.ndarray,
    s_hat: np.ndarray,
    m_hat: np.ndarray,
    s1_ref: complex,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fix the scalar split ambiguity with one known reference symbol.

    Scales ``s_hat`` so its first entry equals ``s1_ref`` and counter-scales
    ``m_hat``, leaving their outer product unchanged.  The per-column
    (diagonal) ambiguity shared between ``h_hat`` and ``m_hat`` remains.
    """
    if s1_ref == 0:
        raise ValueError("the reference symbol must be nonzero")
    norm_s = float(np.linalg.norm(s_hat))
    if norm_s == 0.0 or abs(s_hat[0]) < 1e-12 * norm_s:
        raise EstimationError(
            "ambiguity unresolvable: estimated reference symbol is ~0"
        )
    lam = s1_ref / s_hat[0]
    return np.array(h_hat, dtype=complex), lam * s_hat, m_hat / lam


def two_stage_estimate(
    y: np.ndarray,
    f: np.ndarray,
    s1_ref: complex,
    cfg: BalsConfig | None = None,
    rng: np.random.Generator | None = None,
) -> EstimateReport:
    """Full receiver: alternating-LS stage, rank-one split, ambiguity fix."""
    res = bals(y, f, cfg=cfg, rng=rng)
    split = rank1_factorize(res.x_hat)
    h_out, s_out, m_out = remove_ambiguity(
        res.h_hat, split.s_hat, split.m_hat, s1_ref
    )
    return EstimateReport(
        h_hat=h_out,
        m_hat=m_out,
        s_hat=s_out,
        iterations=len(res.residuals),
        residual_trace=res.residuals,
        converged=res.converged,
        rank1_degenerate=split.degenerate,
    )


def flop_estimate(k: int, t: int, p: int, n: int) -> int:
    """Order-level complex-multiply count of one alternating-LS iteration on
    the normal-equation path whose Grams the Schur bound certifies, which
    skips the Cholesky guard (see ``_SCHUR_COND_BOUND``):

    * Grams ``X^T X*`` and ``H^T H*``: (k + t) * n^2
    * two LU solves, factorisations and substitutions:
      2 * n^3 / 3 + (k + t) * n^2
    * right-hand sides from the training-contracted data: 2 * k * t * n
    * compressed residual ``parafac_build(H, X, R)``, a Khatri-Rao product
      then a product with R^T: k * t * n * (min(p, n) + 1)

    The once-per-trial terms ``F^T F*`` and its eigenvalues, ``Y F*``, the
    QR of F, ``Y Q*`` and the out-of-space residual, the Cholesky guard of
    an uncertified half-step (n^3 / 6 each) and the rare pseudo-inverse
    fallback are not counted.
    """
    if min(k, t, p, n) < 1:
        raise ValueError("all dimensions must be positive")
    return (
        2 * (k + t) * n * n
        + 2 * n**3 // 3
        + 2 * k * t * n
        + k * t * n * (min(p, n) + 1)
    )
