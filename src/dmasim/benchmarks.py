"""Closed-form reference estimators under semi-unitary training.

When the training matrix satisfies ``F.T @ F.conj() == P * eye(N)``, the
least-squares updates of the iterative receiver collapse to single matched
filters: the Gram matrix to invert becomes diagonal, with entries read off
the column energies of the other factor.  The functions here implement
those collapsed forms as the receiver's own half-step right-hand side
(``receiver.conj_rhs``) times the diagonal inverse Gram.  One kernel,
``_matched_filter``, takes the training-contracted block ``Y F*``
(``receiver.contract_training``), which the composed estimators form once
per received block; the public closed forms on unfoldings fold their input
back and call the same kernel.
Every estimator here also takes a stack of trials along leading axes, with
a training shared by all of them or one per trial, and filters the whole
stack at once.

Oracle side information: the weights ``m_tilde[n] = 1/|m[n]|^2`` and
``h_tilde[n] = 1/||H[:, n]||^2`` — and, for the channel estimators, the
true symbol block itself — come from ground truth.  Each receiver's
``campaign.RECEIVERS`` entry states exactly which quantities its composed
estimator reads from it, so campaign summaries stay honestly labelled.
"""

import numpy as np

from .channels import training_spectrum
from .receiver import EstimateReport, conj_rhs, contract_training, split_and_anchor
# Stage two is the receiver's split_and_anchor; these names stay bound
# because the benchmark's tracer (bench/child.py) patches them here too.
from .receiver import rank1_factorize, remove_ambiguity  # noqa: F401
from .signals import build_rank_one
# No filter here forms a Khatri-Rao product; the name stays bound because
# the benchmark's tracer (bench/child.py) counts calls to
# benchmarks.khatri_rao, which read 0.
from .tensor_ops import khatri_rao, squared_norms, unfold_mode2  # noqa: F401

_SEMI_UNITARY_RTOL = 1e-8


def _check_semi_unitary(f: np.ndarray) -> int:
    """P for a (P, N) training with ``F^T F* = P I`` to within
    ``_SEMI_UNITARY_RTOL``: every eigenvalue of ``F^T F*`` lies within
    ``P * _SEMI_UNITARY_RTOL`` of P.  The spectrum is
    ``channels.training_spectrum``'s, remembered for the shared DFT."""
    p = f.shape[-2]
    _, low, high = training_spectrum(f)
    err = np.max(np.maximum(abs(low - p), abs(high - p))) / p
    if not err <= _SEMI_UNITARY_RTOL:  # a NaN spectrum fails too
        raise ValueError(
            f"training matrix is not semi-unitary (relative defect {err:.2e})"
        )
    return p


def _check_weights(w: np.ndarray, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim < 1 or not np.isfinite(w).all() or (w <= 0).any():
        raise ValueError(f"{name} must be a vector of positive finite weights")
    return w


def _check_pilots(pilots: np.ndarray) -> int:
    t = pilots.shape[-1]
    energy = np.linalg.norm(pilots, axis=-1) ** 2
    if not (abs(energy - t) <= 1e-9 * t).all():  # NaN fails too
        raise ValueError("pilot block must have squared norm T")
    return t


def _unfolded_yf(y_unf: np.ndarray, mode: int, f: np.ndarray) -> np.ndarray:
    """``Y F*`` of the (K, T, P) block whose mode-1 (K, P*T) or mode-2
    (T, P*K) unfolding is ``y_unf``: the unfolding is folded back into a
    (K, T, P) view and contracted as ``receiver.bals`` contracts its block."""
    block = y_unf.reshape(*y_unf.shape[:-1], f.shape[-2], -1)  # [row, p, column]
    if mode == 1:
        y = np.swapaxes(block, -1, -2)
    else:
        y = np.moveaxis(block, -1, -3)
    return contract_training(y, f)


# The closed-form rule: conj_rhs on yf = Y F* times the diagonal inverse Gram
# tilde / (P * energy).  energy is ||s||^2, per trial, of the symbols or pilots
# in factor or contracted out of yf; 1 when neither holds any.
def _matched_filter(
    yf: np.ndarray, f: np.ndarray, factor: np.ndarray, mode: int,
    tilde: np.ndarray, name: str, energy: np.ndarray | int = 1,
) -> np.ndarray:
    p = _check_semi_unitary(f)
    tilde = _check_weights(tilde, name)
    weights = tilde / (p * np.expand_dims(energy, -1))
    return conj_rhs(yf, factor.conj(), mode) * weights[..., None, :]


def _symbol_energy(x: np.ndarray, m_tilde: np.ndarray) -> np.ndarray:
    """``||s||^2`` of the rank-one block ``x = outer(s, m)`` whose inner
    response has the inverse squared moduli ``m_tilde``: column n of x is
    ``s * m[n]``, so ``||x||_F^2 = ||s||^2 * sum_n |m[n]|^2``; one energy
    per trial of a stack."""
    return squared_norms(x, 2) / np.sum(1.0 / m_tilde, axis=-1)


def semi_unitary_h(
    y1: np.ndarray, f: np.ndarray, x: np.ndarray, m_tilde: np.ndarray
) -> np.ndarray:
    """Channel estimate ``Y1 @ conj(KR(F, X)) @ diag(m_tilde) / (P*||s||^2)``.

    ``x`` must be the rank-one symbol block and ``m_tilde`` the inverse
    squared moduli of the inner response inside it; then the expression
    equals ``Y1 @ pinv(KR(F, X).T)`` exactly, for noisy data too.  The
    symbol energy ``||s||^2`` is recovered from ``x`` and ``m_tilde``.
    """
    m_tilde = _check_weights(m_tilde, "m_tilde")  # before dividing by it
    yf = _unfolded_yf(y1, 1, f)
    return _matched_filter(yf, f, x, 1, m_tilde, "m_tilde", _symbol_energy(x, m_tilde))


def semi_unitary_x(
    y2: np.ndarray, f: np.ndarray, h: np.ndarray, h_tilde: np.ndarray
) -> np.ndarray:
    """Symbol-block estimate ``Y2 @ conj(KR(F, H)) @ diag(h_tilde) / P``."""
    return _matched_filter(_unfolded_yf(y2, 2, f), f, h, 2, h_tilde, "h_tilde")


def pilot_aided_h(
    y1: np.ndarray,
    f: np.ndarray,
    pilots: np.ndarray,
    m: np.ndarray,
    m_tilde: np.ndarray,
) -> np.ndarray:
    """Channel estimate from an all-pilot block:
    ``Y1 @ conj(KR(F, outer(pilots, m))) @ diag(m_tilde) / (P*T)``."""
    x = build_rank_one(pilots, m)
    yf = _unfolded_yf(y1, 1, f)
    return _matched_filter(yf, f, x, 1, m_tilde, "m_tilde", _check_pilots(pilots))


def pilot_aided_m(
    y2: np.ndarray,
    f: np.ndarray,
    h: np.ndarray,
    h_tilde: np.ndarray,
    pilots: np.ndarray,
) -> np.ndarray:
    """Inner-response estimate from an all-pilot block:
    ``diag(h_tilde) @ KR(F, H)^H @ Y2.T @ conj(pilots) / (P*T)``.

    Equals ``semi_unitary_x(...).T @ conj(pilots) / T`` — a single matched
    filter against the pilot sequence."""
    t = _check_pilots(pilots)
    # Contracting the pilots first leaves a mode-2 unfolding with one row.
    y2s = pilots.conj()[..., None, :] @ y2
    yf = _unfolded_yf(y2s, 2, f)
    return _matched_filter(yf, f, h, 2, h_tilde, "h_tilde", t)[..., 0, :]


def oracle_weights(h: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth diagonal weights (m_tilde, h_tilde) for the closed forms."""
    m_tilde = 1.0 / np.abs(m) ** 2
    h_tilde = 1.0 / np.linalg.norm(h, axis=-2) ** 2
    return m_tilde, h_tilde


def data_aided_estimate(
    y: np.ndarray,
    f: np.ndarray,
    s_true: np.ndarray,
    h_true: np.ndarray,
    m_true: np.ndarray,
) -> EstimateReport:
    """One-shot data-aided reference receiver: the closed-form channel filter
    on the true block ``outer(s_true, m_true)`` and the symbol-block filter,
    on oracle inputs (its ``campaign.RECEIVERS`` notes), then the iterative
    receiver's second stage, ``split_and_anchor``, anchored on the true
    first symbol ``s_true[..., 0]``."""
    m_tilde, h_tilde = oracle_weights(h_true, m_true)
    x = build_rank_one(s_true, m_true)
    yf = contract_training(y, f)
    h_hat = _matched_filter(yf, f, x, 1, m_tilde, "m_tilde", _symbol_energy(x, m_tilde))
    x_hat = _matched_filter(yf, f, h_true, 2, h_tilde, "h_tilde")
    split = split_and_anchor(x_hat, s_true[..., 0])
    return EstimateReport(
        h_hat, split.m_hat, split.s_hat, rank1_degenerate=split.degenerate
    )


def pilot_aided_estimate(
    y: np.ndarray,
    f: np.ndarray,
    h_true: np.ndarray,
    m_true: np.ndarray,
    pilots: np.ndarray,
) -> EstimateReport:
    """One-shot pilot-aided reference receiver (no symbols to estimate): the
    closed-form channel and inner-response filters on oracle inputs
    (its ``campaign.RECEIVERS`` notes); the pilot block is known by design, and
    is returned itself as the symbol estimate."""
    m_tilde, h_tilde = oracle_weights(h_true, m_true)
    # pilot_aided_m checks the pilots, whose squared norm is then T.
    m_hat = pilot_aided_m(unfold_mode2(y), f, h_true, h_tilde, pilots)
    x = build_rank_one(pilots, m_true)
    yf = contract_training(y, f)
    h_hat = _matched_filter(yf, f, x, 1, m_tilde, "m_tilde", pilots.shape[-1])
    return EstimateReport(h_hat, m_hat, pilots)

