"""Random generators for the link: scattering channel, antenna inner
response, training matrices, and transmitted symbol blocks.

All generators are pure functions of an explicit ``numpy.random.Generator``
so a campaign can reproduce any single draw from its seed.  Each random
generator also takes a sequence of generators, one per trial, and stacks
their draws along a new leading trial axis; every trial's values are then
those its own stream gives alone, and the arithmetic after the draws runs
once on the stack.
"""

import functools
import math

import numpy as np


class GenerationError(RuntimeError):
    """Raised when a random generator cannot produce a valid draw."""


def _each_trial(rng, shape: tuple, fill, dtype=float) -> np.ndarray:
    """An array of ``shape`` that ``fill(rng, out)`` fills from the
    generator ``rng``; for a sequence of generators, one per trial, one such
    array per trial along a new leading axis, each filled from its own
    stream in place."""
    gens = [rng] if isinstance(rng, np.random.Generator) else rng
    out = np.empty((len(gens), *shape), dtype)
    for gen, trial in zip(gens, out):
        fill(gen, trial)
    return out if gens is rng else out[0]


def _phases(gen: np.random.Generator, out: np.ndarray) -> None:
    out[...] = gen.uniform(0.0, 2.0 * np.pi, size=out.shape)


def gen_wireless(k: int, n: int, rng) -> np.ndarray:
    """I.i.d. circularly-symmetric unit-variance complex Gaussian (k, n)."""
    if k < 1 or n < 1:
        raise ValueError("channel dimensions must be positive")
    # The real parts, then the imaginary parts, from one stream.
    parts = _each_trial(rng, (2, k, n), lambda gen, out: gen.standard_normal(out=out))
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / math.sqrt(2.0)


def gen_inner_random_phase(n: int, rng) -> np.ndarray:
    """Unit-modulus inner response (the antenna's internal feed, one entry
    per radiating element) with i.i.d. uniform phases."""
    if n < 1:
        raise ValueError("n must be positive")
    theta = _each_trial(rng, (n,), _phases)
    return np.exp(1j * theta)


def gen_inner_physical(
    d: int, l: int, alpha: float, beta: float, spacing: float
) -> np.ndarray:
    """Deterministic damped-propagation inner response.

    Parameters
    ----------
    d, l : number of waveguides and elements per waveguide (n = d*l).
    alpha : attenuation constant (nepers per unit length, >= 0).
    beta : propagation constant (radians per unit length).
    spacing : element pitch along each waveguide (> 0).

    The element at position ``x = l_idx * spacing`` (l_idx = 1..l) responds
    with ``exp(-(alpha + 1j*beta) * x)``; every waveguide is identical and
    the output is ordered waveguide-major (element index varying fastest).
    """
    if d < 1 or l < 1:
        raise ValueError("d and l must be positive")
    if not spacing > 0.0:  # NaN fails too
        raise ValueError("spacing must be positive")
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    x = spacing * np.arange(1, l + 1, dtype=float)
    return np.tile(np.exp(-(alpha + 1j * beta) * x), d)


def lorentzian_entry(phi: np.ndarray | float) -> np.ndarray | complex:
    """Map a tuning phase to its constrained weight (1j + exp(1j*phi)) / 2."""
    return (1j + np.exp(1j * np.asarray(phi))) / 2.0


# (training, spectrum) of the last read-only training looked at, so a drawn
# training's spectrum, taken for its rank check, reaches the receiver
# without a second eigendecomposition.
_last_spectrum = None


def training_spectrum(f: np.ndarray) -> tuple:
    """``(gram, low, high)``: the read-only Gram ``F^T F*`` and its extreme
    eigenvalues, as ``eigvalsh`` computes them; both are NaN when the Gram
    has a non-finite entry.  This is the one place the package forms the
    Gram of a training and takes its spectrum.  For a (..., P, N) stack of
    trainings, one per trial, the Grams and eigenvalues are stacked too.

    The last read-only array that owns its data (every drawn training does)
    is remembered by identity: asking again for the same array returns the
    same spectrum without recomputing it.  Any other array is never
    remembered, since it could change in between.
    """
    global _last_spectrum
    frozen = not f.flags.writeable and f.base is None
    if frozen and _last_spectrum is not None and _last_spectrum[0] is f:
        return _last_spectrum[1]
    gram = np.swapaxes(f, -1, -2) @ f.conj()
    finite = np.isfinite(gram).all(axis=(-2, -1))
    if finite.all():
        eigs = np.linalg.eigvalsh(gram)
    else:  # eigvalsh raises on some of these and returns NaN on others
        eigs = np.full(gram.shape[:-1], math.nan)
        if finite.any():
            eigs[finite] = np.linalg.eigvalsh(gram[finite])
    gram.flags.writeable = False
    spectrum = gram, eigs[..., 0], eigs[..., -1]
    if frozen:
        _last_spectrum = (f, spectrum)
    return spectrum


# Certified full column rank (see full_column_rank): the eigenvalue ratio must
# clear the rounding terms by this factor.
_RANK_MARGIN = 1e4
# Below this the Gram's entries may have lost relative accuracy to underflow.
_RANK_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def full_column_rank(f: np.ndarray):
    """``np.linalg.matrix_rank(f) == n`` for a (P, N) matrix, decided from the
    eigenvalues of ``F^T F*`` (``training_spectrum``) when they certify it,
    else by ``matrix_rank`` itself; a bool array for a (..., P, N) stack.

    ``matrix_rank`` reports full rank when the computed singular values
    satisfy ``s_min > s_max * max(P, N) * eps``.  With u = eps / 2:

    * the computed Gram is ``F^T F* + dG`` with ``|dG| <= gamma_{P+2}
      |F|^T |F|`` (Higham, Accuracy and Stability of Numerical Algorithms,
      ch. 3), so ``||dG||_2 <= gamma_{P+2} ||F||_F^2 <= (P+2) N u s_max^2``
      to first order; ``eigvalsh`` is backward stable with an error below
      ``c u ||G||_2``, c a modest function of N.  By Weyl's theorem every
      computed eigenvalue lies within ``kappa s_max^2`` of the exact
      ``s_i^2``, where ``kappa = 2 (P+2) N eps`` covers both terms (it
      allows c up to about 3 (P+2) N);
    * the SVD is backward stable too, so each computed singular value lies
      within ``c' u s_max`` of the exact one; with c' <= max(P, N), the
      computed s_min clears ``matrix_rank``'s threshold whenever the exact
      ``s_min / s_max > tau = 2 max(P, N) eps``.

    Then ``s_max^2 <= high / (1 - kappa)`` and ``s_min^2 >= low - kappa
    s_max^2``, so ``low / high > (kappa + tau^2) / (1 - kappa)`` is enough
    for ``matrix_rank`` to report full rank.  The certificate asks for
    ``_RANK_MARGIN`` = 1e4 times ``kappa + tau^2`` and a smallest eigenvalue
    clear of the underflow range.  Over 200 Lorentzian draws the ratio was
    at least 3.6e-3 at P = 32, N = 16 and 1.3e-3 at P = 128, N = 64,
    against bounds of 2.4e-9 and 3.7e-8.  A NaN spectrum (a non-finite
    Gram), a non-positive or a too-small ``low`` declines, and
    ``matrix_rank`` decides (or raises) exactly as it would alone.
    """
    p, n = f.shape[-2:]
    eps = np.finfo(float).eps
    kappa = 2.0 * (p + 2) * n * eps
    tau = 2.0 * max(p, n) * eps
    _, low, high = training_spectrum(f)
    bound = _RANK_MARGIN * (kappa + tau * tau)
    full = np.array((low >= _RANK_FLOOR) & (bound * high <= low))
    for i in np.flatnonzero(~full):  # the certificate declined
        full.reshape(-1)[i] = np.linalg.matrix_rank(f.reshape(-1, p, n)[i]) == n
    return full.item() if full.ndim == 0 else full


# Draws gen_lorentzian_training makes before it gives up on full column rank.
_LORENTZIAN_ATTEMPTS = 10


def gen_lorentzian_training(p: int, n: int, rng) -> np.ndarray:
    """Random constrained training matrix with i.i.d. uniform tuning phases.

    Every entry lies on the circle of radius 1/2 centred at 1j/2.  The draw
    is rejected and repeated (at most ``_LORENTZIAN_ATTEMPTS`` times) until the
    matrix has full column rank (``full_column_rank``); in a stack only the
    rejected trials draw again, each from its own stream.  The returned
    array is read-only, so its spectrum, taken for that check, stays valid
    for ``training_spectrum``.
    """
    if p < 1 or n < 1:
        raise ValueError("p and n must be positive")
    if p < n:
        raise GenerationError(
            f"cannot reach full column rank with p={p} < n={n}"
        )
    gens = [rng] if isinstance(rng, np.random.Generator) else rng
    phi = _each_trial(rng, (p, n), _phases)
    for _ in range(_LORENTZIAN_ATTEMPTS):
        f = lorentzian_entry(phi)
        f.flags.writeable = False
        rejected = np.flatnonzero(~np.asarray(full_column_rank(f)))
        if rejected.size == 0:
            return f
        for i in rejected:
            _phases(gens[i], phi.reshape(-1, p, n)[i])
    raise GenerationError(
        f"no full-column-rank draw in {_LORENTZIAN_ATTEMPTS} attempts (p={p}, n={n})"
    )


@functools.lru_cache(maxsize=1)
def gen_dft_training(p: int, n: int) -> np.ndarray:
    """Semi-unitary training built from the first n columns of the p-point
    DFT matrix: f[p_idx, n_idx] = exp(-2j*pi*p_idx*n_idx / p).

    Satisfies ``f.T @ f.conj() == p * eye(n)`` exactly, which the closed-form
    estimators rely on.  Requires p >= n.  Deterministic, so the last one
    built is kept and shared (a campaign asks for one (p, n)): the returned
    array is read-only.
    """
    if p < 1 or n < 1:
        raise ValueError("p and n must be positive")
    if p < n:
        raise ValueError(f"semi-unitary training needs P >= N, got P={p} < N={n}")
    rows = np.arange(p)[:, None]
    cols = np.arange(n)[None, :]
    f = np.exp(-2j * np.pi * rows * cols / p)
    f.flags.writeable = False
    return f


def _qam_side(order: int) -> int:
    side = int(round(math.sqrt(order)))
    if side * side != order or side < 2 or (side & (side - 1)) != 0:
        raise ValueError(
            f"qam order must be a square power of 4 (4/16/64/256), got {order}"
        )
    return side


@functools.lru_cache
def qam_alphabet(order: int) -> np.ndarray:
    """Unit-average-energy square QAM constellation, built once per order
    and shared, so the returned array is read-only.

    Index convention: point ``i * side + q`` carries in-phase level
    ``2*i - (side-1)`` and quadrature level ``2*q - (side-1)`` (both before
    normalisation), i.e. the (I, Q) grid enumerated row-major.  Bit labels
    follow the standard per-axis Gray code of ``i`` and ``q``; symbol-error
    counting never consults bits, so only this index order matters.
    """
    side = _qam_side(order)
    levels = 2.0 * np.arange(side) - (side - 1)
    pts = levels[:, None] + 1j * levels[None, :]
    # unit average energy: E|s|^2 = 2*(order-1)/3 before scaling
    scale = math.sqrt(2.0 * (order - 1) / 3.0)
    alphabet = pts.ravel() / scale
    alphabet.flags.writeable = False
    return alphabet


def qam_indices(t: int, order: int, rng) -> np.ndarray:
    """Draw t i.i.d. uniform indices into ``qam_alphabet(order)``."""
    if t < 1:
        raise ValueError("t must be positive")
    _qam_side(order)

    def fill(gen, out):
        out[...] = gen.integers(0, order, size=t)

    return _each_trial(rng, (t,), fill, dtype=np.int64)


def gen_qam(t: int, order: int, rng) -> np.ndarray:
    """Draw t i.i.d. uniform symbols from the unit-energy QAM alphabet: the
    points of ``qam_indices(t, order, rng)``."""
    return qam_alphabet(order)[qam_indices(t, order, rng)]


@functools.lru_cache
def gen_pilots(t: int) -> np.ndarray:
    """Deterministic unit-modulus pilot block s[t_idx] = exp(1j*t_idx/t),
    built once per t and shared, so the returned array is read-only."""
    if t < 1:
        raise ValueError("t must be positive")
    pilots = np.exp(1j * np.arange(t) / t)
    pilots.flags.writeable = False
    return pilots


def qam_demap(s_hat: np.ndarray, order: int) -> np.ndarray:
    """Nearest-neighbour hard decisions; ties resolve to the smaller index."""
    alphabet = qam_alphabet(order)
    s_hat = np.asarray(s_hat)
    d2 = np.abs(s_hat[..., None] - alphabet) ** 2
    return np.argmin(d2, axis=-1)
