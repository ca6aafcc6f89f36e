"""Assembly of the received block and pre-run identifiability checks.

The noiseless received block is the three-way array with frontal slices
``Y_p = H @ diag(f_p) @ X.T`` where ``X = outer(s, m)`` is the rank-one
symbol/inner-response block and ``f_p`` is row p of the training matrix.
Equivalently ``y[k, t, p] = sum_n h[k, n] * x[t, n] * f[p, n]``; the
stored ``H`` is, by convention, exactly the matrix appearing in that sum
(any conjugation bookkeeping is absorbed into its definition).  Leading
axes of the factors index trials, and the blocks stack along them.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_ops import parafac_build, squared_norms


@dataclass(frozen=True)
class ReceivedTensor:
    y: np.ndarray
    noise_variance: float | np.ndarray  # 0.0 for a noiseless block; per trial


@dataclass(frozen=True)
class IdentifiabilityReport:
    kruskal_ok: bool
    relaxed_ok: bool
    p_ge_n: bool
    kruskal_lhs: int
    kruskal_rhs: int
    relaxed_lhs: int
    relaxed_rhs: int


def build_rank_one(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Rank-one block outer(s, m), shape (T, N); a (..., T) stack of symbol
    vectors and a (..., N) stack of inner responses give (..., T, N)."""
    s = np.asarray(s)
    m = np.asarray(m)
    if s.ndim < 1 or s.shape[:-1] != m.shape[:-1]:
        raise ValueError("build_rank_one expects two vectors per trial")
    return s[..., :, None] * m[..., None, :]


def build_noiseless(h: np.ndarray, x: np.ndarray, f: np.ndarray) -> ReceivedTensor:
    """Noiseless received block from channel (K,N), symbol block (T,N) and
    training (P,N); each may carry leading trial axes."""
    y = parafac_build(h, x, f)
    return ReceivedTensor(y=y, noise_variance=0.0)


def add_noise(
    rt: ReceivedTensor, snr_db: float | None, rng, out: np.ndarray | None = None
) -> ReceivedTensor:
    """Add white circular Gaussian noise calibrated to the requested SNR.

    The per-entry noise variance is ``||Y||_F^2 / (K*T*P * 10**(snr_db/10))``,
    i.e. SNR is defined against the average signal power per tensor entry.
    ``snr_db=None`` or ``+inf`` returns the block unchanged; NaN and ``-inf``
    are rejected.  A (..., K, T, P) stack of blocks takes a sequence of
    generators, one per trial, and gets a variance per trial.  The noisy
    block is written into ``out`` when given, which may be ``rt.y`` itself;
    else into a new array.
    """
    if np.any(rt.noise_variance != 0.0):
        raise ValueError("add_noise expects a noiseless block")
    if snr_db is None or snr_db == np.inf:
        return rt
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, +inf or None, got {snr_db}")
    y = rt.y
    *lead, k, t, p = y.shape
    var = squared_norms(y, 3) / (k * t * p * 10.0 ** (snr_db / 10.0))
    if out is None:
        out = y.copy()
    elif out is not y:
        out[...] = y
    gens = [rng] if isinstance(rng, np.random.Generator) else rng
    # Each trial's real parts, then its imaginary parts, from its own
    # stream, through two buffers reused trial by trial, added into ``out``
    # in place: ``y + scale * (re + 1j * im)`` bit for bit, since addition
    # commutes.  Writing into ``rt.y`` keeps a block's memory to one tensor.
    part = np.empty((k, t, p))
    noise = np.empty((k, t, p), dtype=complex)
    for i, gen, scale in zip(np.ndindex(*lead), gens, np.sqrt(var / 2.0).flat):
        noise.real = gen.standard_normal(out=part)
        noise.imag = gen.standard_normal(out=part)
        noise *= scale
        out[i] += noise
    return ReceivedTensor(y=out, noise_variance=var[()])


def identifiability_preflight(k: int, t: int, p: int, n: int) -> IdentifiabilityReport:
    """Report whether the factorisation is guaranteed unique for these sizes.

    * ``kruskal_ok``: classical k-rank bound for generic factors.  The
      rank-one symbol block pins its k-rank at 1, so the sum is
      ``min(k, n) + 1 + min(p, n) >= 2n + 2``.  A rank-one decomposition
      (n == 1) is unconditionally unique up to scaling, where the bound is
      vacuous, so it reports True there.
    * ``relaxed_ok``: the weaker generic bound
      ``t*(t-1)*k*(k-1)/4 >= n*(n-1)/2``, which typically holds at sizes
      where the k-rank bound fails.
    * ``p_ge_n``: training matrix can have full column rank.
    """
    if min(k, t, p, n) < 1:
        raise ValueError("all dimensions must be positive")
    kruskal_lhs = min(k, n) + 1 + min(p, n)
    kruskal_rhs = 2 * n + 2
    kruskal_ok = True if n == 1 else kruskal_lhs >= kruskal_rhs
    relaxed_lhs = t * (t - 1) * k * (k - 1) // 4
    relaxed_rhs = n * (n - 1) // 2
    return IdentifiabilityReport(
        kruskal_ok=kruskal_ok,
        relaxed_ok=relaxed_lhs >= relaxed_rhs,
        p_ge_n=p >= n,
        kruskal_lhs=kruskal_lhs,
        kruskal_rhs=kruskal_rhs,
        relaxed_lhs=relaxed_lhs,
        relaxed_rhs=relaxed_rhs,
    )
