"""Two-stage semi-blind receiver.

Stage one fits the bilinear model ``Y1 = H @ khatri_rao(F, X).T`` /
``Y2 = X @ khatri_rao(F, H).T`` by alternating least squares with the
training matrix F known.  Stage two splits the fitted symbol block into a
symbol vector and an inner-response vector through its dominant singular
triplet, and a single known reference symbol removes the residual scalar
ambiguity.  Stage two, and the receiver as a whole, also take a stack of
trials along leading axes: each trial's alternating-LS fit runs alone,
and stage two runs once on the stacked fits.  ``bals`` draws nothing.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .channels import UNDERFLOW_FLOOR, gen_wireless, training_spectrum
from .tensor_ops import khatri_rao, parafac_build, pinv, unfold_mode1, unfold_mode2


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
# 5.3): for positive semidefinite A and B, the eigenvalues of G = A o B are at
# least lambda_min(A) min_i B_ii.  Every Cholesky pivot L_ii^2 of G lies
# between lambda_min(G) and G_ii, so a Gram (F^T F*) o B with
# lambda_min(F^T F*) min_i B_ii >= CHOLESKY_DIAG_RATIO**2 max_i G_ii passes the
# diagonal test; certifying at ten times that leaves a margin for roundoff.
# _SCHUR_PIVOT_MARGIN is the largest max_i G_ii / (lambda_min(F^T F*) min_i
# B_ii) so certified.  The lower bound must also stay clear of the subnormal
# range, where the Gram's entries lose relative accuracy (UNDERFLOW_FLOOR).
_SCHUR_PIVOT_MARGIN = 1 / (10 * CHOLESKY_DIAG_RATIO**2)
# A normalised residual at or below this is an exact fit and stops the run,
# which also keeps the relative test off a zero denominator on noiseless data.
EPS_FLOOR = 1e-12
# Slack, relative to tol, for the roundings of the quotient |eps - prev| /
# prev: two in the explicit rule, a few in its interval form.
_RULE_SLACK = 8 * np.finfo(float).eps
# The LAPACK gesv gufunc behind np.linalg.solve (see _normal_solve).
_lu_solve = _umath_linalg.solve


@dataclass(frozen=True)
class BalsConfig:
    """Knobs of the alternating-LS stage.

    ``tol`` stops the iteration once the relative change of the normalised
    residual falls below it (or the residual itself below ``EPS_FLOOR``).
    ``rcond`` is the singular-value cutoff of the pseudo-inverse fallback
    only; the normal equations do not use it.
    """

    max_iters: int = 1000
    tol: float = 1e-6
    rcond: float = 1e-12


@dataclass(frozen=True)
class BalsResult:
    h_hat: np.ndarray
    x_hat: np.ndarray
    # Normalised residual after each full iteration: the Gram-form value
    # where it is well clear of its error bound, else the explicit misfit,
    # so it agrees with ||Y - Y_hat|| / ||Y|| to within roundoff.
    residuals: np.ndarray
    converged: bool


class Rank1Split(NamedTuple):
    s_hat: np.ndarray
    m_hat: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class EstimateReport:
    """A receiver's estimates and what its solver did.  The defaults
    describe a one-shot estimate: one pass, no residual trace, no split.
    For a stack of trials the estimates, and any per-trial count or flag,
    carry the leading trial axes; the residual trace is then a tuple of
    per-trial traces."""

    h_hat: np.ndarray
    m_hat: np.ndarray
    s_hat: np.ndarray
    iterations: int | np.ndarray = 1
    residual_trace: np.ndarray | tuple = field(default_factory=lambda: np.empty(0))
    converged: bool | np.ndarray = True
    rank1_degenerate: bool | np.ndarray = False


def _schur_certified(
    gf_min: float, gram_diag: list[float], factor_diag: list[float]
) -> bool:
    """Whether the Gram ``(F^T F*) o B`` is certain to pass the Cholesky
    guard, from the smallest eigenvalue ``gf_min`` of ``F^T F*``, the Gram's
    diagonal and the diagonal of ``B`` (``X^T X*`` or ``H^T H*``; see
    ``_SCHUR_PIVOT_MARGIN``).  A NaN, a zero column or a singular ``F^T F*``
    never certifies."""
    # Python floats: N is small, and numpy's reductions cost more here than
    # the arithmetic.  min and max may skip a NaN; the sum keeps it.
    low = gf_min * min(factor_diag)
    return (
        low >= UNDERFLOW_FLOOR
        and max(gram_diag) <= _SCHUR_PIVOT_MARGIN * low
        and sum(factor_diag) < math.inf
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

    The solve calls the gufunc that ``np.linalg.solve`` wraps, on the same
    arrays, so its result is the same bit for bit; the wrapper's checks and
    its singular-matrix error are not needed, because a Gram reaches the
    solve only once the Schur bound or the Cholesky guard has shown it
    finite and safely positive definite.
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
    return _lu_solve(gram.conj(), rhs.T).T


def contract_training(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The training-contracted block ``yf = Y F*`` of shape (K, T, N) from a
    (K, T, P) block: one (K*T, P) @ (P, N) product per trial."""
    *lead, k, t, p = y.shape
    return (y.reshape(*lead, k * t, p) @ f.conj()).reshape(*lead, k, t, -1)


def conj_rhs(yf: np.ndarray, factor_conj: np.ndarray, mode: int) -> np.ndarray:
    """Right-hand side of a half-step's normal equations,
    ``unfold_mode{mode}(Y) @ conj(khatri_rao(F, factor))``, from the
    training-contracted block ``yf = Y F*`` of shape (K, T, N) and the
    conjugated factor ``factor_conj``.

    Mode 1 (the channel update) contracts the symbol axis with the (T, N)
    factor; mode 2 (the symbol-block update) contracts the subcarrier axis
    with the (K, N) factor.
    """
    spec = "...ktn,...tn->...kn" if mode == 1 else "...ktn,...kn->...tn"
    return np.einsum(spec, yf, factor_conj)


def _residual_gamma(k: int, t: int, p: int, n: int) -> float:
    """Rounding constant ``c m u`` of the Gram-form residual (see
    ``_gram_misfit``): ``m`` is the longest accumulation chain, ``u`` the
    unit roundoff and ``c = 4``."""
    return 2.0 * (k * t * p + n * n + t * n + k + p) * np.finfo(float).eps


def _gram_misfit(
    ynorm: float,
    gamma: float,
    x_hat: np.ndarray,
    rhs: np.ndarray,
    gram: np.ndarray,
    gx: np.ndarray,
    gram_diag: list[float],
    gx_diag: list[float],
) -> tuple[float, float] | None:
    """Normalised misfit ``||Y - Y_hat|| / ||Y||`` from the symbol half-step's
    own terms, and a relative radius around it that holds both the exact and
    the explicitly computed misfit; None when the value is not finite or not
    well clear of its error bound.

    ``rhs`` and ``gram`` are that half-step's right-hand side and Gram
    ``(F^T F*) o (H^T H*)``, ``gx = X^T X*`` is its result's Gram, the lists
    are the two Grams' diagonals, and ``gamma`` is ``_residual_gamma``.

    As ``<Y, Y_hat> = vdot(X, rhs)`` and ``||Y_hat||^2`` is the sum of
    ``gram o gx`` (Kolda & Bader, SIAM Review 2009), the squared misfit is
    ``e2 = ||Y||^2 - 2 Re vdot(X, rhs) + Re sum(gram o gx)``.  With
    ``|g_nn'| <= sqrt(g_nn g_n'n')`` for every Gram entry and the triangle
    inequality over the rank-one terms, the standard inner-product bounds
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3) put the
    rounding error of ``e2`` below ``err = gamma (||Y|| + S)^2``, where
    ``S = sum_n sqrt(gram_nn gx_nn)`` bounds ``||Y_hat||``.  For
    ``e2 > 4 err`` the square root moves the exact misfit by at most a
    relative ``err / e2`` (with room to spare for the explicit misfit's
    rank-one rounding, below ``gamma S``), and the explicit misfit's norm
    rounds by at most a relative ``gamma`` more.
    """
    e2 = (
        ynorm * ynorm
        - 2.0 * np.vdot(x_hat, rhs).real
        + np.vdot(gram.T, gx).real  # gram is Hermitian: conj(gram) = gram.T
    )
    s = sum(map(math.sqrt, map(operator.mul, gram_diag, gx_diag)))
    err = gamma * (ynorm + s) ** 2
    if not 4.0 * err < e2 < math.inf:
        return None
    return math.sqrt(e2) / ynorm, err / e2 + gamma


def _misfit(
    y: np.ndarray, h_hat: np.ndarray, x_hat: np.ndarray, f: np.ndarray,
    ynorm: float, it: int,
) -> float:
    """The explicit full-model misfit ``||Y - Y_hat|| / ||Y||``."""
    residual = parafac_build(h_hat, x_hat, f)
    np.subtract(y, residual, out=residual)  # Y - Y_hat in Y_hat's array
    eps = float(np.linalg.norm(residual)) / ynorm
    if not math.isfinite(eps):
        raise EstimationError(f"non-finite residual at iteration {it}")
    return eps


def _stop(
    eps: float, w: float, prev: float | None, pw: float, cfg: BalsConfig
) -> bool | None:
    """The stopping rule on trace entries known to within the relative radii
    ``w`` (``eps``) and ``pw`` (``prev``): stop once ``eps <= EPS_FLOOR`` or
    ``|eps - prev| / prev <= tol``.  Returns None when the radii leave the
    outcome open; with both radii zero it is the rule itself.  ``prev`` is
    above ``EPS_FLOOR``, or the run would have stopped there.
    """
    if eps * (1.0 + w) <= EPS_FLOOR:
        return True
    if eps * (1.0 - w) <= EPS_FLOOR:
        return None
    if prev is None:
        return False
    change = abs(eps - prev) / prev
    if not (w or pw):
        return change <= cfg.tol
    # e / p lies within (w + pw) eps / (prev (1 - pw)) of eps / prev.
    slack = (w + pw) * eps / (prev * (1.0 - pw)) + _RULE_SLACK * cfg.tol
    if change + slack <= cfg.tol:
        return True
    if change - slack > cfg.tol:
        return False
    return None


def bals(
    y: np.ndarray,
    f: np.ndarray,
    start: np.ndarray,
    cfg: BalsConfig | None = None,
    spectrum: tuple | None = None,
) -> BalsResult:
    """Alternating-LS fit of (H, X) given the received block, F and a start.

    Each half-step solves its N x N normal equations, guarded by a Cholesky
    factor unless the Schur bound certifies the Gram, and falls back to
    ``Y_unfolded @ pinv(khatri_rao(...).T, rcond)`` when the Gram is not
    safely positive definite.  After the per-trial set-up the loop touches
    only N-dimensional data: the residual comes from the symbol half-step's
    own Grams and right-hand side (see ``_gram_misfit``), and the explicit
    misfit of the full model is formed only when that value is too close to
    its error bound, or its error interval straddles a stopping threshold.

    Parameters
    ----------
    y : (K, T, P) received block.
    f : (P, N) known training matrix.
    start : (T, N) symbol block the first channel half-step solves against.
    cfg : solver knobs; defaults to ``BalsConfig()``.
    spectrum : ``training_spectrum(f)``, when the caller already has it.

    Returns
    -------
    BalsResult with the fitted factors, the residual trace
    ``||Y - Y_hat||_F / ||Y||_F`` (one entry per full iteration, to within
    roundoff; monotone nonincreasing up to roundoff), and a convergence flag.

    Raises
    ------
    ValueError for ``cfg.max_iters < 1``; EstimationError on non-finite
    residuals or failed pseudo-inverses.
    """
    cfg = cfg or BalsConfig()
    if cfg.max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {cfg.max_iters}")
    if y.ndim != 3:
        raise ValueError("bals expects a third-order received block")
    k, t, p = y.shape
    if f.ndim != 2 or f.shape[0] != p:
        raise ValueError(f"training matrix must have {p} rows, got {f.shape}")
    n = f.shape[1]
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        raise EstimationError("received block is identically zero")
    if start.shape != (t, n):
        raise ValueError(f"start must have shape {(t, n)}, got {start.shape}")
    x_hat = np.array(start, dtype=complex)

    # Normal-equation form of both half-steps (Kolda & Bader, SIAM Review
    # 2009, sec. 3.4): the Gram of khatri_rao(F, X) is (F^T F*) o (X^T X*),
    # and Y1 @ khatri_rao(F, X)* contracts the training first, so the
    # training enters each iteration only through these two per-trial terms.
    # The smallest eigenvalue of F^T F* feeds the Schur bound that lets most
    # half-steps skip the Cholesky guard (see _SCHUR_PIVOT_MARGIN).  A drawn
    # training's spectrum comes from its rank check.
    gf, gf_min, _ = spectrum or training_spectrum(f)
    gf_min = float(gf_min)
    yf = contract_training(y, f)
    gamma = _residual_gamma(k, t, p, n)
    # Each factor is conjugated once, for its Gram and the right-hand side;
    # X's Gram serves both the residual and the next iteration's channel
    # half-step.
    xc = x_hat.conj()
    gx = x_hat.T @ xc
    gx_diag = gx.diagonal().real.tolist()
    residuals: list[float] = []
    converged = False
    prev, prev_w, prev_h, prev_x = None, 0.0, None, None
    for it in range(1, cfg.max_iters + 1):
        try:
            gram = gf * gx
            h_hat = _normal_solve(
                gram,
                conj_rhs(yf, xc, 1),
                _schur_certified(gf_min, gram.diagonal().real.tolist(), gx_diag),
            )
            if h_hat is None:
                h_hat = unfold_mode1(y) @ pinv(khatri_rao(f, x_hat).T, cfg.rcond)
            hc = h_hat.conj()
            gh = h_hat.T @ hc
            gram = gf * gh
            gram_diag = gram.diagonal().real.tolist()
            rhs = conj_rhs(yf, hc, 2)
            x_hat = _normal_solve(
                gram,
                rhs,
                _schur_certified(gf_min, gram_diag, gh.diagonal().real.tolist()),
            )
            if x_hat is None:
                x_hat = unfold_mode2(y) @ pinv(khatri_rao(f, h_hat).T, cfg.rcond)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"pseudo-inverse failed at iteration {it}: {exc}")
        xc = x_hat.conj()
        gx = x_hat.T @ xc
        gx_diag = gx.diagonal().real.tolist()
        fit = _gram_misfit(ynorm, gamma, x_hat, rhs, gram, gx, gram_diag, gx_diag)
        if fit is None:
            eps, w = _misfit(y, h_hat, x_hat, f, ynorm, it), 0.0
        else:
            eps, w = fit
        residuals.append(eps)
        stop = _stop(eps, w, prev, prev_w, cfg)
        if stop is None:
            # The interval cannot decide: decide on the explicit misfits.
            if w:
                eps = residuals[-1] = _misfit(y, h_hat, x_hat, f, ynorm, it)
                w = 0.0
            if prev_w:
                prev = _misfit(y, prev_h, prev_x, f, ynorm, it - 1)
            stop = _stop(eps, 0.0, prev, 0.0, cfg)
        if stop:
            converged = True
            break
        prev, prev_w, prev_h, prev_x = eps, w, h_hat, x_hat
    return BalsResult(
        h_hat=h_hat,
        x_hat=x_hat,
        residuals=np.asarray(residuals),
        converged=converged,
    )


def _per_trial(values: np.ndarray):
    """A Python scalar for one trial's count or flag; a stack's array as is."""
    return values.item() if values.ndim == 0 else values


def rank1_factorize(x_hat: np.ndarray) -> Rank1Split:
    """Split the fitted block into (s_hat, m_hat) via its dominant singular
    triplet, with the singular value shared evenly between the two vectors;
    a (..., T, N) stack is split trial by trial in one stacked SVD.

    ``degenerate`` flags a (near-)tied leading singular pair, in which case
    the returned split is valid but not uniquely determined.
    """
    if x_hat.ndim < 2 or x_hat.size == 0:
        raise ValueError("rank1_factorize expects a nonempty matrix")
    if not x_hat.any(axis=(-2, -1)).all():
        raise EstimationError("cannot split an all-zero block")
    try:
        u, sv, vh = np.linalg.svd(x_hat, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EstimationError(f"SVD failed in rank1_factorize: {exc}") from exc
    root = np.sqrt(sv[..., :1])
    s_hat = root * u[..., :, 0]
    m_hat = root * vh[..., 0, :]  # row of vh is v^H: sqrt(sigma) * conj(v)
    if sv.shape[-1] > 1:
        degenerate = np.asarray(sv[..., 0] - sv[..., 1] <= 1e-9 * sv[..., 0])
    else:
        degenerate = np.zeros(sv.shape[:-1], dtype=bool)
    return Rank1Split(s_hat=s_hat, m_hat=m_hat, degenerate=_per_trial(degenerate))


def remove_ambiguity(
    s_hat: np.ndarray, m_hat: np.ndarray, s1_ref
) -> tuple[np.ndarray, np.ndarray]:
    """Fix the scalar split ambiguity with one known reference symbol.

    Scales ``s_hat`` so its first entry equals ``s1_ref`` and counter-scales
    ``m_hat``, leaving their outer product unchanged; (..., T) and (..., N)
    stacks take one reference per trial.  The per-column (diagonal)
    ambiguity shared between the channel estimate and ``m_hat`` remains.
    """
    ref = np.abs(s1_ref)
    if not np.all((0.0 < ref) & (ref < math.inf)):  # NaN fails too
        raise ValueError("the reference symbol must be nonzero and finite")
    norm_s = np.linalg.norm(s_hat, axis=-1)
    first = s_hat[..., 0]
    if np.any((norm_s == 0.0) | (np.abs(first) < 1e-12 * norm_s)):
        raise EstimationError(
            "ambiguity unresolvable: estimated reference symbol is ~0"
        )
    lam = (s1_ref / first)[..., None]
    return lam * s_hat, m_hat / lam


def split_and_anchor(x_hat: np.ndarray, s1_ref) -> Rank1Split:
    """Stage two: split the fitted symbol block into (s, m) and anchor the
    scale on the known reference symbol; ``degenerate`` flags a
    (near-)tied leading singular pair."""
    split = rank1_factorize(x_hat)
    return Rank1Split(
        *remove_ambiguity(split.s_hat, split.m_hat, s1_ref), split.degenerate
    )


def two_stage_estimate(
    y: np.ndarray,
    f: np.ndarray,
    s1_ref,
    cfg: BalsConfig | None = None,
    rng=None,
) -> EstimateReport:
    """Full receiver: alternating-LS stage, rank-one split, ambiguity fix.

    A (..., K, T, P) stack of received blocks takes a training shared by
    all trials or one per trial (..., P, N), one reference symbol per trial
    and a sequence of generators, one per trial; ``rng`` is required.  One
    ``gen_wireless`` call draws every trial's (T, N) start from its own
    generator.  Each trial's alternating-LS stage runs alone, on its own
    slice of the training's spectrum; stage two runs once on the stack.
    """
    if rng is None:
        raise ValueError("rng is required: it draws the solver's start")
    *lead, k, t, _ = y.shape
    spectrum = training_spectrum(f)
    starts = gen_wireless(t, f.shape[-1], rng).reshape(*lead, t, f.shape[-1])
    fits = []
    for i in np.ndindex(*lead):
        j = () if f.ndim == 2 else i  # a shared training, or this trial's
        fits.append(bals(
            y[i], f[j], starts[i], cfg=cfg, spectrum=[part[j] for part in spectrum]
        ))
    split = split_and_anchor(
        np.stack([fit.x_hat for fit in fits]).reshape(*lead, t, -1), s1_ref
    )
    traces = tuple(fit.residuals for fit in fits)
    return EstimateReport(
        h_hat=np.stack([fit.h_hat for fit in fits]).reshape(*lead, k, -1),
        m_hat=split.m_hat,
        s_hat=split.s_hat,
        iterations=_per_trial(np.reshape([len(trace) for trace in traces], lead)),
        residual_trace=traces if lead else traces[0],
        converged=_per_trial(np.reshape([fit.converged for fit in fits], lead)),
        rank1_degenerate=split.degenerate,
    )


def flop_estimate(k: int, t: int, p: int, n: int) -> int:
    """Order-level complex-multiply count of one alternating-LS iteration on
    the normal-equation path whose Grams the Schur bound certifies, which
    skips the Cholesky guard (see ``_SCHUR_PIVOT_MARGIN``):

    * Grams ``X^T X*`` and ``H^T H*``: (k + t) * n^2
    * two LU solves, factorisations and substitutions:
      2 * n^3 / 3 + (k + t) * n^2
    * right-hand sides from the training-contracted data: 2 * k * t * n
    * Gram-form residual, ``vdot(X, rhs)`` and the sum of ``gram o gx``:
      t * n + n^2

    The count does not depend on ``p``: the training enters the loop only
    through per-trial terms.  Those are not counted: ``Y F*`` (k t p n),
    and ``F^T F*`` with its eigenvalues, which a drawn training's rank
    check has already taken (``channels.training_spectrum``).  Nor are the
    Cholesky guard of an uncertified half-step (n^3 / 6 each), the
    explicit misfit formed when the Gram form cannot decide a stop, and
    the rare pseudo-inverse fallback.
    """
    if min(k, t, p, n) < 1:
        raise ValueError("all dimensions must be positive")
    return 2 * (k + t) * n * n + 2 * n**3 // 3 + 2 * k * t * n + t * n + n * n
