"""Simulation of Q-Wiener increments and iterated stochastic integrals.

One time step of driving noise is a packet of K standard Brownian
increments together with the K x K matrix of iterated Ito integrals of the
covariance-scaled noise over that step. Off-diagonal entries carry Levy
areas, which cannot be recovered from the increments and are simulated by
a truncated Fourier-series expansion with D terms: the normalized matrix is

    I[i,j] = db_i db_j / 2 - delta_ij h / 2 + c_D * A[i,j],
    A[i,j] = (h / 2 pi) * sum_{r=1..D} (1/r) (X_ri Yt_rj - X_rj Yt_ri),

where Yt_rj = Y_rj + sqrt(2/h) db_j and X, Y are i.i.d. standard normal.
The factor c_D = sqrt(S_inf / S_D) with S_D = sum_{r<=D} r^-2 rescales the
truncated series so that every entry keeps the exact second moment
eta_i eta_j h^2 / 2 at any finite depth (plain truncation would bias it
low by (1 - S_D/S_inf)/2, e.g. 2.9% at D=10); the mean-square truncation
error keeps its 1/sqrt(D) decay. The covariance-scaled matrix multiplies
entry (i,j) by sqrt(eta_i * eta_j). Two identities hold for every sample
and every D: the diagonal equals eta_i (db_i^2 - h)/2, and
I[i,j] + I[j,i] = sqrt(eta_i eta_j) db_i db_j - delta_ij eta_i h.

Noise is held as arrays: (M, K) increments and (M, K, K) iterated
integrals for M steps. Packets over adjacent steps chain exactly
(`chain_arrays`), which couples coarse grids to a fine lattice without
fresh randomness.

All sampling is driven by counter-based generators derived from a seed and
an explicit substream key, so results do not depend on execution order or
worker count. Functions that consume normal draws accept an optional
ledger and charge it one unit per draw.

Algorithm 1 has one streamed core: rows are drawn in order into one
reused buffer of at most 2^18 normals (2 MB, cache-sized; one row if a row
is larger); Y is shifted and X weighted in place, and the two halves are
contracted as views. `alg1_iterated_batch` finishes each block of rows
into its output, so its peak memory is the output plus about one block,
and the block size cannot change a result. `alg1_iterated_nested` streams
every depth block of its series through the same core and adds it into
the running sum. Its depth-block boundaries (2^22 normals over all
samples) decide which normal feeds which (sample, depth) term, so they are
part of its output; the buffer size is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .exactmath import ceil_power

__all__ = [
    "NoisePacket",
    "substream",
    "sample_increments_batch",
    "alg1_iterated_batch",
    "alg1_iterated_nested",
    "chain_arrays",
    "choose_D1",
    "choose_D2",
    "exact_second_moment",
]

_TWO_PI = 2.0 * np.pi


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for a (seed, key...) substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class NoisePacket:
    """Driving noise for one time step, as one validated object. The
    solvers and the harness take the array form instead.

    delta_beta holds the K standard Brownian increments, iterated the K x K
    covariance-scaled iterated-integral matrix, eta the covariance
    eigenvalues used for scaling, and d the series truncation depth that
    generated (or was folded into) the matrix.
    """

    delta_beta: np.ndarray
    h: float
    iterated: np.ndarray
    d: int
    eta: np.ndarray

    def __post_init__(self):
        db = np.ascontiguousarray(np.asarray(self.delta_beta, dtype=float))
        iq = np.ascontiguousarray(np.asarray(self.iterated, dtype=float))
        eta = np.ascontiguousarray(np.asarray(self.eta, dtype=float))
        k = db.size
        if self.h <= 0:
            raise ValueError("packet step length must be positive")
        if iq.shape != (k, k):
            raise ValueError("iterated matrix shape does not match increment count")
        if eta.shape != (k,):
            raise ValueError("eta length does not match increment count")
        if self.d < 1:
            raise ValueError("truncation depth must be >= 1")
        for arr, name in ((db, "delta_beta"), (iq, "iterated"), (eta, "eta")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.delta_beta.size


def _charge(ledger, n: int) -> None:
    if ledger is not None:
        ledger.charge_normals(n)


def sample_increments_batch(rng: np.random.Generator, s: int, k: int, h: float,
                            ledger=None) -> np.ndarray:
    """(s, k) array of Normal(0, h) increments; s*k draws."""
    if h <= 0:
        raise ValueError("step length must be positive")
    _charge(ledger, s * k)
    return math.sqrt(h) * rng.standard_normal((s, k))


_S_INF = np.pi**2 / 6.0


def _partial_basel(d: int) -> float:
    return float(np.sum(1.0 / np.arange(1.0, d + 1.0) ** 2))


def _tail_scale(d: int) -> float:
    # restores the exact series variance at finite depth
    return math.sqrt(_S_INF / _partial_basel(d))


# normals per block of the series draws (2 MB, fits a core's L2 cache)
_SERIES_BLOCK_NORMALS = 1 << 18
# depths per depth block of alg1_iterated_nested, as normals over all
# samples; part of its output
_NESTED_BLOCK_NORMALS = 1 << 22


def _series_blocks(rng: np.random.Generator, db: np.ndarray, h: float,
                   weights: np.ndarray, ledger=None):
    """Stream the series terms of the (s, k) increments db block by block.

    Row i draws its X then its Y terms, 2 * d * k normals for the d
    weights; rows are drawn in order into one reused buffer of at most
    _SERIES_BLOCK_NORMALS normals (one row if a row is larger). Y is
    shifted by sqrt(2/h) db and X weighted in place; yields
    (lo, hi, sum_r w_r x_r ytil_r^T) with shape (hi - lo, k, k).
    """
    s, k = db.shape
    d = weights.size
    chunk = max(1, _SERIES_BLOCK_NORMALS // max(1, 2 * d * k))
    buf = np.empty((min(s, chunk), 2, d, k))
    shift = math.sqrt(2.0 / h)
    for lo in range(0, s, chunk):
        hi = min(s, lo + chunk)
        z = buf[: hi - lo]
        rng.standard_normal(out=z)
        _charge(ledger, (hi - lo) * 2 * d * k)
        x, y = z[:, 0], z[:, 1]
        y += shift * db[lo:hi, None, :]
        x *= weights[:, None]
        yield lo, hi, np.matmul(np.swapaxes(x, -1, -2), y)


def alg1_iterated_batch(rng: np.random.Generator, delta_beta: np.ndarray,
                        h: float, d: int, eta: np.ndarray, ledger=None) -> np.ndarray:
    """Vectorized iterated-integral sampling for a batch of steps.

    delta_beta has shape (s, k); the result has shape (s, k, k). Consumes
    exactly 2*d*k normals per row, drawn in row order, so the first rows of
    a batch equal a shorter batch drawn from the same generator state.
    Beyond the result, the call holds one block of draws (module docstring).
    """
    if d < 1:
        raise ValueError("truncation depth must be >= 1")
    if h <= 0:
        raise ValueError("step length must be positive")
    db = np.asarray(delta_beta, dtype=float)
    s, k = db.shape
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (k,):
        raise ValueError("eta length does not match increment count")
    weights = _tail_scale(d) / np.arange(1.0, d + 1.0)
    sqrt_eta = np.sqrt(eta)
    scale = np.outer(sqrt_eta, sqrt_eta)
    eye = np.eye(k)
    out = np.empty((s, k, k))
    for lo, hi, t1 in _series_blocks(rng, db, h, weights, ledger):
        a = (h / _TWO_PI) * (t1 - np.swapaxes(t1, -1, -2))
        i_norm = 0.5 * (db[lo:hi, :, None] * db[lo:hi, None, :]) - 0.5 * h * eye + a
        out[lo:hi] = scale * i_norm
    return out


def alg1_iterated_nested(rng: np.random.Generator, delta_beta: np.ndarray,
                         h: float, d_values: Sequence[int], eta: np.ndarray,
                         samples: Optional[int] = None) -> dict:
    """Truncations at several depths sharing one master draw of series terms.

    Used to measure the in-D refinement rate: for each requested depth the
    returned matrix uses the leading terms of the same series, so
    differences between depths isolate the discarded tail.

    delta_beta may be a single (k,) vector (fixed increments, `samples`
    copies) or an (s, k) array.

    Returns:
        dict depth -> (s, k, k) array.
    """
    db = np.asarray(delta_beta, dtype=float)
    if db.ndim == 1:
        if samples is None:
            samples = 1
        db = np.broadcast_to(db, (samples, db.size))
    s, k = db.shape
    depths = sorted(set(int(d) for d in d_values))
    if depths[0] < 1:
        raise ValueError("truncation depths must be >= 1")
    eta = np.asarray(eta, dtype=float)
    sqrt_eta = np.sqrt(eta)
    scale = np.outer(sqrt_eta, sqrt_eta)
    base = 0.5 * (db[:, :, None] * db[:, None, :]) - 0.5 * h * np.eye(k)
    t1 = np.zeros((s, k, k))
    out = {}
    prev = 0
    block = max(1, _NESTED_BLOCK_NORMALS // max(1, 2 * s * k))
    for depth in depths:
        # each depth block draws every sample's terms r = lo+1..hi in turn
        for lo in range(prev, depth, block):
            hi = min(depth, lo + block)
            weights = 1.0 / np.arange(lo + 1.0, hi + 1.0)
            for s_lo, s_hi, part in _series_blocks(rng, db, h, weights):
                t1[s_lo:s_hi] += part
        prev = depth
        a = (_tail_scale(depth) * h / _TWO_PI) * (t1 - np.swapaxes(t1, -1, -2))
        out[depth] = scale * (base + a)
    return out


def chain_arrays(db: np.ndarray, iq: np.ndarray, eta: np.ndarray):
    """Fold contiguous fine steps into coarse ones, vectorized over groups.

    db has shape (g, r, k) and iq shape (g, r, k, k): g groups of r
    contiguous fine steps each. Returns the (g, k) coarse increments (sums
    of the fine ones) and the (g, k, k) coarse iterated matrices, by the
    exact composition rule I[a,c] = I[a,b] + I[b,c] + dW[a,b] (x) dW[b,c]
    (outer product of the covariance-scaled increments) applied left to
    right. The two packet identities are closed under this rule, so chained
    matrices satisfy them to roundoff whenever the inputs do.
    """
    g, r, k = db.shape
    sqrt_eta = np.sqrt(np.asarray(eta, dtype=float))
    acc_db = db[:, 0].copy()
    acc_iq = iq[:, 0].copy()
    for t in range(1, r):
        dwa = sqrt_eta * acc_db
        dwb = sqrt_eta * db[:, t]
        acc_iq += iq[:, t] + dwa[:, :, None] * dwb[:, None, :]
        acc_db += db[:, t]
    return acc_db, acc_iq


def choose_D1(m: int, q: Union[Fraction, float]) -> int:
    """Series depth maintaining the temporal order: ceil(m**(2q-1)), >= 1."""
    if m < 1:
        raise ValueError("step count must be >= 1")
    if isinstance(q, Fraction):
        return max(1, ceil_power(m, 2 * q - 1))
    e = 2.0 * float(q) - 1.0
    if e <= 0:
        return 1
    v = float(m) ** e
    return max(1, math.ceil(v - 1e-9 * max(1.0, v)))


def choose_D2(m: int, k: int, eta: np.ndarray, q: Union[Fraction, float]) -> int:
    """Depth rule for the tail-corrected integral simulator (planning only):
    ceil(min(k sqrt(k-1), 1/min eta) * m**(q - 1/2)), >= 1."""
    if m < 1 or k < 1:
        raise ValueError("step and noise counts must be >= 1")
    eta = np.asarray(eta, dtype=float)[:k]
    factor = min(k * math.sqrt(max(k - 1, 0)), 1.0 / float(eta.min()))
    v = factor * float(m) ** (float(q) - 0.5)
    return max(1, math.ceil(v - 1e-9 * max(1.0, v)))


def exact_second_moment(i: int, j: int, h: float, eta: np.ndarray) -> float:
    """Second moment of the (i, j) covariance-scaled iterated integral:
    eta_i * eta_j * h**2 / 2. Cross-moments of distinct index pairs vanish."""
    eta = np.asarray(eta, dtype=float)
    return 0.5 * float(eta[i - 1]) * float(eta[j - 1]) * h * h
