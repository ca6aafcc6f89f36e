"""Estimation-quality metrics.

Semi-blind estimates are only defined up to a residual per-column
(diagonal) ambiguity.  ``nmse`` scores the estimate exactly as given; the
caller removes the ambiguity first with the least-squares scales from
``diagonal_fit``, as the campaign does.  Each metric also scores a stack
of trials at once, one result per trial.
"""

import math

import numpy as np

from .channels import qam_demap
from .tensor_ops import squared_norms


def to_db(x: float) -> float:
    """Linear power ratio in decibels; 0 maps to -inf."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(x))


def diagonal_fit(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column least-squares scales along the last axis.

    For a (K, N) pair this returns the N scales minimising
    ||est @ diag(d) - truth||_F; for vectors each entry is fitted alone.
    A (..., K, N) stack of pairs gets (..., N) scales, one fit per trial.
    Columns with zero estimate get scale 0.
    """
    e = est if est.ndim > 1 else est[None]
    t = truth if truth.ndim > 1 else truth[None]
    num = (e.conj() * t).sum(axis=-2)
    den = (e.conj() * e).sum(axis=-2).real
    d = np.zeros(num.shape, dtype=complex)
    nz = den > 0
    d[nz] = num[nz] / den[nz]
    return d


def nmse(est: np.ndarray, truth: np.ndarray, ndim: int | None = None):
    """Normalised mean squared error ||est - truth||^2 / ||truth||^2.

    With ``ndim``, the last ``ndim`` axes hold one trial's array and the
    leading axes index trials: the result is one error per trial, in their
    shape.  Without it the whole array is one trial and the error a float.
    """
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    core = truth.ndim if ndim is None else ndim
    tnorm = squared_norms(truth, core)
    if (tnorm == 0.0).any():
        raise ValueError("nmse is undefined for an all-zero truth")
    err = squared_norms(est - truth, core) / tnorm
    return float(err) if ndim is None else err


def ser(s_hat: np.ndarray, s_true: np.ndarray, order: int):
    """Symbol-error rate after hard demapping, excluding position 0, the
    anchor (``receiver.remove_ambiguity`` fixes the scale on its known
    symbol); NaN when no other position exists.

    ``s_true`` holds the transmitted symbols, or their indices into
    ``qam_alphabet(order)`` as an integer array, which need no demapping:
    an alphabet point demaps to its own index.  A (..., T) stack of symbol
    vectors gets one rate per trial; a single vector, a float.
    """
    s_hat = np.asarray(s_hat)
    s_true = np.asarray(s_true)
    if s_hat.shape != s_true.shape or s_hat.ndim < 1:
        raise ValueError("ser expects two equal-length symbol vectors")
    if s_hat.shape[-1] < 2:
        rates = np.full(s_hat.shape[:-1], math.nan)
    else:
        truth = s_true[..., 1:]
        if truth.dtype.kind not in "iu":
            truth = qam_demap(truth, order)
        rates = (qam_demap(s_hat[..., 1:], order) != truth).mean(axis=-1)
    return float(rates) if rates.ndim == 0 else rates
