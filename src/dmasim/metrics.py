"""Estimation-quality metrics.

Semi-blind estimates are only defined up to a residual per-column
(diagonal) ambiguity.  ``nmse`` scores the estimate exactly as given; the
caller removes the ambiguity first with the least-squares scales from
``diagonal_fit``, as the campaign does.
"""

import math

import numpy as np

from .channels import qam_demap


def to_db(x: float) -> float:
    """Linear power ratio in decibels; 0 maps to -inf."""
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(x))


def diagonal_fit(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column least-squares scales along the last axis.

    For a (K, N) pair this returns the N scales minimising
    ||est @ diag(d) - truth||_F; for vectors each entry is fitted alone.
    Columns with zero estimate get scale 0.
    """
    e = est.reshape(-1, est.shape[-1])
    t = truth.reshape(-1, truth.shape[-1])
    num = np.sum(e.conj() * t, axis=0)
    den = np.sum(e.conj() * e, axis=0).real
    d = np.zeros(est.shape[-1], dtype=complex)
    nz = den > 0
    d[nz] = num[nz] / den[nz]
    return d


def nmse(est: np.ndarray, truth: np.ndarray) -> float:
    """Normalised mean squared error ||est - truth||^2 / ||truth||^2."""
    est = np.asarray(est)
    truth = np.asarray(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    tnorm = float(np.linalg.norm(truth)) ** 2
    if tnorm == 0.0:
        raise ValueError("nmse is undefined for an all-zero truth")
    return float(np.linalg.norm(est - truth)) ** 2 / tnorm


def ser(s_hat: np.ndarray, s_true: np.ndarray, order: int) -> float:
    """Symbol-error rate after hard demapping, excluding position 0, the
    anchor (``receiver.remove_ambiguity`` fixes the scale on its known
    symbol); NaN when no other position exists.

    ``s_true`` holds the transmitted symbols, or their indices into
    ``qam_alphabet(order)`` as an integer array, which need no demapping:
    an alphabet point demaps to its own index.
    """
    s_hat = np.asarray(s_hat)
    s_true = np.asarray(s_true)
    if s_hat.shape != s_true.shape or s_hat.ndim != 1:
        raise ValueError("ser expects two equal-length symbol vectors")
    if s_hat.shape[0] < 2:
        return math.nan
    truth = s_true[1:]
    if truth.dtype.kind not in "iu":
        truth = qam_demap(truth, order)
    return float(np.mean(qam_demap(s_hat[1:], order) != truth))
