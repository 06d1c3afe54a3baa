"""Simulation of Q-Wiener increments and iterated stochastic integrals.

One time step of driving noise is a packet of K standard Brownian
increments together with the K x K matrix of iterated Ito integrals of the
covariance-scaled noise over that step. Off-diagonal entries carry Levy
areas, which cannot be recovered from the increments. Algorithm 1
simulates them by a truncated Fourier-series expansion with D terms: the
normalized matrix is

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

Algorithm 2 (Wiktorsson 2001) keeps the series with plain 1/r weights and
no c_D, and adds a Gaussian approximation of its tail: A gains
(h / 2 pi) a_D sqrt(Sigma) G, where a_D^2 = S_inf - S_D, G is antisymmetric
with K(K-1)/2 i.i.d. standard normals above the diagonal, and Sigma is
the tail's conditional covariance given db, up to the factor a_D^2. With
c = sqrt(2/h) db, s = sqrt(1 + |db|^2 / h) and v = G c, its square root
acts as sqrt(Sigma) G = sqrt(2) G + (v c^T - c v^T) / (sqrt(2) (1 + s)),
so the tail costs O(K^2) per step and no K(K-1)/2-square matrix is built.
The tail is antisymmetric, so both identities hold for it as well.
Its error, in the same mean-square sense (against the exact areas under
the best coupling), falls like 1/D rather than 1/sqrt(D), and
`choose_D2` gives the depth whose error bound matches Algorithm 1's.

Noise is held as arrays: (M, K) increments and (M, K, K) iterated
integrals for M steps. Packets over adjacent steps chain exactly
(`chain_arrays`): a coarse step's increments and iterated integrals
follow from its fine steps' without fresh randomness.

All sampling is driven by SeedSequence-keyed SFC64 substreams: each
generator is derived from a seed and an explicit substream key, so results
do not depend on execution order or worker count. Functions that consume
normal draws accept an optional ledger and charge it one unit per draw.

Both algorithms share one streamed core. Each row draws its X, its Y and
(Algorithm 2) its tail normals contiguously; rows are drawn in order into
one reused buffer of at most 2^18 normals (2 MB, cache-sized; one row if
a row is larger) and 2^18 / K^2 rows, X is weighted in place, and the
halves are contracted as views. A study's lattice series may pass a
`_SeriesDraws` in place of the generator: it knows every draw the feed's
calls will make, hands each call its rows from a ring of six slots, each
a quarter of that buffer's rows, that a second thread fills ahead, and
keeps every generator's draws in order, so the numbers are the same. Algorithm 1
shifts Y by sqrt(2/h) db in place; Algorithm 2 adds the shift's share,
(sum_r x_r) c^T, as one outer product. Every sampler finishes each block in place into its output
(which the batch samplers take from the caller as `out`, if given) with
reused (rows, K, K) scratch, so its peak memory is the output plus about
two blocks (three for the nested one), and the block size cannot change
a result. Smaller blocks (2^16) held 1.5 MB less per call and read the
same in one process, but slowed a study running two workers at once
(criterion 7, BENCH_18.json).
`alg1_iterated_nested` draws what `alg1_iterated_batch` draws at the
largest depth and finishes every depth from the running sum of each
row's leading terms. Constants that depend only on (K, D), the X weights
and Algorithm 2's upper indices and a_D, are computed once, read-only.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from numbers import Rational
from operator import index
from typing import Optional, Sequence

import numpy as np

from .exactmath import _check_integers, ceil_power

__all__ = [
    "NoisePacket",
    "substream",
    "sample_increments_batch",
    "alg1_iterated_batch",
    "alg1_iterated_nested",
    "alg2_iterated_batch",
    "chain_arrays",
    "choose_D1",
    "choose_D2",
    "exact_second_moment",
]

_TWO_PI = 2.0 * np.pi


def _check_seed(seed, name: str = "seed") -> None:
    """ValueError naming the seed (or the named key) unless it is a
    non-negative integer; a bool is not one."""
    try:
        valid = not isinstance(seed, bool) and index(seed) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def substream(seed: int, *key: int) -> np.random.Generator:
    """SeedSequence-keyed SFC64 substream for (seed, key...), independent of
    every other key. SFC64 is the fastest of numpy's generators at standard
    normals, which dominate the cost of deep series. The seed and every key
    must be non-negative integers."""
    _check_seed(seed)
    for i, k in enumerate(key):
        _check_seed(k, f"substream key {i}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(index(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))


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
        if not 0 < self.h < math.inf:
            raise ValueError(f"packet step length must be positive and finite, got {self.h}")
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
    _check_integers(s=s, k=k)
    if s < 0 or k < 1:
        raise ValueError(f"s must be >= 0 and k >= 1, got s={s}, k={k}")
    if not 0 < h < math.inf:
        raise ValueError(f"step length must be positive and finite, got {h}")
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
# a series drawn ahead (`_SeriesDraws`) cuts the rows one buffer holds into
# this many chunks and keeps a ring of this many chunks' slots: one and a
# half buffers, whose extra half a study mostly offsets by stepping its
# reference a chunk of rows at a time (harness module docstring)
_AHEAD_SPLIT = 4
_AHEAD_SLOTS = 6


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=64)
def _alg1_constants(k: int, d: int):
    """Algorithm 1's X weights c_D / r, each repeated over the k directions."""
    return _readonly(np.repeat(_tail_scale(d) / np.arange(1.0, d + 1.0), k))


@lru_cache(maxsize=64)
def _alg2_constants(k: int, d: int):
    """Algorithm 2's X weights 1 / r, each repeated over the k directions,
    the row and column indices above the diagonal, and a_D."""
    rows, cols = np.triu_indices(k, 1)
    return (_readonly(np.repeat(1.0 / np.arange(1.0, d + 1.0), k)), _readonly(rows),
            _readonly(cols), math.sqrt(_S_INF - _partial_basel(d)))


def _buffer_rows(width: int, k: int) -> int:
    """Rows of `width` normals in one block of the series draws: at most
    _SERIES_BLOCK_NORMALS normals and _SERIES_BLOCK_NORMALS / k^2 rows, one
    row if a row is larger."""
    return max(1, _SERIES_BLOCK_NORMALS // max(width, k * k))


def _row_normals(sampler, k: int, d: int) -> int:
    """Series normals one row of `alg1_iterated_batch` or
    `alg2_iterated_batch` (`sampler`) draws at k directions and depth d."""
    return 2 * d * k + (k * (k - 1) // 2 if sampler is alg2_iterated_batch else 0)


class _SeriesDraws:
    """The series normals of a known sequence of sampler calls, drawn ahead
    into a ring of slots on a second thread.

    Each row draws `width` normals. One buffer of `_own_draws` would hold
    the rows of the longest block, up to `_buffer_rows`; a chunk is at most
    `rows`, a quarter of them rounded up, and the ring holds six chunks
    (one slot per chunk if there are fewer), half a buffer more than the
    inline buffer. Block by block (`blocks` gives each block's rows), the
    rows of a block are taken a chunk at a time, and each chunk of rows by
    every generator in `rngs` in turn, one sampler call per chunk. So
    consecutive chunks come from different generators unless there is only
    one. Chunk c is drawn into slot c % slots once chunk c - slots is given
    back. Chunks are begun in order, and none while an earlier chunk of its
    generator is still being drawn, so each generator draws its rows in
    order. Split draws equal whole ones, so every call gets the normals it
    would draw itself.

    `take` hands out the next chunk, which stays valid until it is given
    back. `start` runs the thread, which draws the chunks as their slots
    come free; it calls nothing but `standard_normal`, which leaves the
    interpreter lock to the caller while it fills a slot. When `take`
    needs a chunk that is not drawn, it draws the next chunk that may be
    begun itself (the one it needs, if the thread has not begun it) and
    waits only when none may, so the two threads share the draws and
    `take` works without the thread too. `close` stops and joins the
    thread.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], blocks: Sequence[int],
                 width: int, k: int):
        self.rngs, self.blocks, self.width = rngs, blocks, width
        longest = min(max(blocks, default=0), _buffer_rows(width, k))
        self.rows = max(1, -(-longest // _AHEAD_SPLIT))
        self.starts = [0]            # the first chunk of every block, then the count
        for s in blocks:
            self.starts.append(self.starts[-1] + len(rngs) * -(-s // self.rows))
        self.count = self.starts[-1]
        # with fewer chunks than slots, each chunk has a slot of its own rows
        rows = ([self._chunk(c)[1] for c in range(self.count)]
                if self.count < _AHEAD_SLOTS else [self.rows] * _AHEAD_SLOTS)
        self.slots = [np.empty((n, width)) for n in rows]
        self.ready = [-1] * len(rows)    # the chunk each slot holds, once drawn
        self.begun = 0               # chunks whose drawing has begun
        self.used = 0                # chunks handed out and given back
        self.cond = threading.Condition()
        self.thread = None
        self.stop = False

    def _chunk(self, c: int):
        """(generator, rows) of chunk c."""
        b = bisect_right(self.starts, c) - 1
        part, path = divmod(c - self.starts[b], len(self.rngs))
        return self.rngs[path], min(self.rows, self.blocks[b] - part * self.rows)

    def _claim(self):
        """Under the lock: begin the next chunk and return (c, generator,
        rows) if its slot is free and no earlier chunk of its generator is
        still being drawn, else None."""
        c, n = self.begun, len(self.slots)
        if c >= min(self.used + n, self.count):
            return None
        rng, rows = self._chunk(c)
        if any(self.ready[e % n] != e and self._chunk(e)[0] is rng
               for e in range(self.used, c)):
            return None
        self.begun += 1
        return c, rng, rows

    def _draw(self, c: int, rng: np.random.Generator, rows: int) -> None:
        n = len(self.slots)
        rng.standard_normal(out=self.slots[c % n][:rows])
        with self.cond:
            self.ready[c % n] = c
            self.cond.notify_all()

    def _ahead(self) -> None:
        try:
            while True:
                with self.cond:
                    job = None
                    while not self.stop and self.begun < self.count:
                        job = self._claim()
                        if job is not None:
                            break
                        self.cond.wait()
                    if job is None:
                        return
                self._draw(*job)
        finally:
            with self.cond:
                self.stop = True
                self.cond.notify_all()

    def start(self) -> None:
        """Start the thread that draws the chunks ahead."""
        self.thread = threading.Thread(target=self._ahead, name="mildspde-series-draws",
                                       daemon=True)
        self.thread.start()

    def close(self) -> None:
        """Stop the thread, if one runs, and wait for it to end."""
        with self.cond:
            self.stop = True
            self.cond.notify_all()
        if self.thread is not None:
            self.thread.join()

    def take(self, s: int, width: int):
        """Yield (0, s, z) once: z holds the (s, width) normals of the next
        chunk, which must be s rows of this width; it is given back when
        the caller asks for more."""
        e, n = self.used, len(self.slots)
        if width != self.width or e == self.count or self._chunk(e)[1] != s:
            raise RuntimeError("series draws asked for out of their sequence")
        while True:
            with self.cond:
                if self.ready[e % n] == e:
                    break
                job = self._claim()
                if job is None:
                    if self.stop:
                        raise RuntimeError("the series draw thread stopped early")
                    self.cond.wait()
                    continue
            self._draw(*job)
        try:
            yield 0, s, self.slots[e % n][:s]
        finally:
            with self.cond:
                self.used = e + 1
                self.cond.notify_all()


def _own_draws(rng: np.random.Generator, s: int, width: int, k: int):
    """Yield (lo, hi, z) over s rows of `width` normals drawn in order from
    rng into one reused buffer, `_buffer_rows` rows at a time."""
    chunk = _buffer_rows(width, k)
    buf = np.empty((min(s, chunk), width))
    for lo in range(0, s, chunk):
        hi = min(s, lo + chunk)
        rng.standard_normal(out=buf[: hi - lo])
        yield lo, hi, buf[: hi - lo]


def _series_blocks(rng, s: int, k: int, weights_x: np.ndarray, ledger=None,
                   extra: int = 0):
    """Stream the series draws of s rows of k directions block by block.

    weights_x holds the d weights of the X terms, each repeated k times.
    Row i draws its X terms, its Y terms, then `extra` further normals:
    2 * d * k + extra normals. rng is a generator, whose rows are drawn
    in order into one reused buffer (`_own_draws`), or the `_SeriesDraws`
    whose next chunk, a quarter of a block's rows at most, these s rows
    are. X is weighted in place; yields
    (lo, hi, x, y, g) with x and y of shape (hi - lo, d, k) and g the
    (hi - lo, extra) further normals. A block holds at most
    _SERIES_BLOCK_NORMALS normals (one row if a row is larger) and
    _SERIES_BLOCK_NORMALS / k^2 rows, so a caller's (rows, k, k) scratch
    stays within one block's size when k^2 exceeds the row width.
    """
    d = weights_x.size // k
    width = 2 * d * k + extra
    draws = (rng.take(s, width) if isinstance(rng, _SeriesDraws)
             else _own_draws(rng, s, width, k))
    for lo, hi, z in draws:
        _charge(ledger, (hi - lo) * width)
        # a 2-D update: when the row width is no multiple of k, numpy cannot
        # rule out overlap within a strided 3-D view and copies it first
        z[:, : d * k] *= weights_x
        yield (lo, hi, z[:, : d * k].reshape(hi - lo, d, k),
               z[:, d * k: 2 * d * k].reshape(hi - lo, d, k), z[:, 2 * d * k:])


def _check_batch(delta_beta, h: float, depths: Sequence[int], eta):
    """The (s, k) increments and the k eigenvalues as float arrays, or a
    ValueError naming what is wrong."""
    for d in depths:
        _check_integers(D=d)
    if min(depths, default=0) < 1:
        raise ValueError("truncation depth must be >= 1")
    if not 0 < h < math.inf:
        raise ValueError(f"step length must be positive and finite, got {h}")
    db = np.asarray(delta_beta, dtype=float)
    if db.ndim != 2:
        raise ValueError(f"delta_beta must have shape (s, k), got {db.shape}")
    k = db.shape[1]
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (k,):
        raise ValueError("eta length does not match increment count")
    # a negative or NaN eigenvalue would only show as NaN integrals
    if not np.all((eta >= 0.0) & (eta < math.inf)):
        raise ValueError(f"eta must be finite and non-negative, got {eta}")
    return db, eta


def _output(out: Optional[np.ndarray], s: int, k: int) -> np.ndarray:
    """A new (s, k, k) result array, or out if it is one a sampler can fill
    in place: C-contiguous, writable float64 of that shape."""
    if out is None:
        return np.empty((s, k, k))
    if not (isinstance(out, np.ndarray) and out.shape == (s, k, k)
            and out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable):
        desc = (f"{out.dtype} array of shape {out.shape}" if isinstance(out, np.ndarray)
                else type(out).__name__)
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape "
                         f"{(s, k, k)}, got {desc}")
    return out


def _finish(o: np.ndarray, db: np.ndarray, h: float, scale: np.ndarray,
            area: np.ndarray) -> None:
    """Overwrite o, which holds P, with scale * (db db^T / 2 - h I / 2
    + (h / 2 pi) (P - P^T)); area is a scratch array of o's shape."""
    n, k = db.shape
    np.subtract(o, np.swapaxes(o, -1, -2), out=area)
    area *= h / _TWO_PI
    np.multiply(db[:, :, None], db[:, None, :], out=o)
    o *= 0.5
    o.reshape(n, k * k)[:, :: k + 1] -= 0.5 * h
    o += area
    o *= scale


def alg1_iterated_batch(rng: np.random.Generator, delta_beta: np.ndarray,
                        h: float, d: int, eta: np.ndarray, ledger=None, *,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized iterated-integral sampling for a batch of steps.

    delta_beta has shape (s, k); the result has shape (s, k, k), written
    into out when given (a C-contiguous float64 array of that shape, which
    is returned). Consumes exactly 2*d*k normals per row, drawn in row
    order, so the first rows of a batch equal a shorter batch drawn from
    the same generator state. Beyond the result, the call holds one block
    of draws and one (rows, k, k) scratch array (module docstring).
    """
    db, eta = _check_batch(delta_beta, h, (d,), eta)
    s, k = db.shape
    scale = np.outer(np.sqrt(eta), np.sqrt(eta))
    out = _output(out, s, k)
    shift = math.sqrt(2.0 / h)
    area = None
    for lo, hi, x, y, _ in _series_blocks(rng, s, k, _alg1_constants(k, d), ledger):
        y += shift * db[lo:hi, None, :]
        o = out[lo:hi]
        np.matmul(np.swapaxes(x, -1, -2), y, out=o)
        area = np.empty_like(o) if area is None else area[: hi - lo]
        _finish(o, db[lo:hi], h, scale, area)
    return out


def alg2_iterated_batch(rng: np.random.Generator, delta_beta: np.ndarray,
                        h: float, d: int, eta: np.ndarray, ledger=None, *,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Algorithm 2: the series of Algorithm 1 with plain 1/r weights, plus
    a Gaussian approximation of its tail (module docstring).

    delta_beta has shape (s, k); the result has shape (s, k, k), written
    into out when given, as in `alg1_iterated_batch`. Consumes
    exactly 2*d*k + k*(k-1)/2 normals per row (X, Y, then the tail's),
    drawn in row order, so the first rows of a batch equal a shorter batch
    drawn from the same generator state. Beyond the result, the call holds
    one block of draws and one (rows, k, k) scratch array.
    """
    db, eta = _check_batch(delta_beta, h, (d,), eta)
    s, k = db.shape
    weights_x, upper_i, upper_j, a_d = _alg2_constants(k, d)
    scale = np.outer(np.sqrt(eta), np.sqrt(eta))
    out = _output(out, s, k)
    work = None
    for lo, hi, x, y, g in _series_blocks(rng, s, k, weights_x, ledger, extra=upper_i.size):
        o = out[lo:hi]
        work = np.empty_like(o) if work is None else work[: hi - lo]
        c = math.sqrt(2.0 / h) * db[lo:hi]
        # G = U - U^T with U the tail normals above the diagonal, v = G c
        work.fill(0.0)
        work[:, upper_i, upper_j] = g
        cv = c[:, :, None]
        v = (np.matmul(work, cv) - np.matmul(np.swapaxes(work, -1, -2), cv))[..., 0]
        # P = x^T y + (sum_r x_r + beta v) c^T + a_D sqrt(2) U with
        # beta = a_D / (sqrt(2) (1 + s)): x^T y + (sum_r x_r) c^T is the
        # series x^T (y + c), and P - P^T adds the tail a_D sqrt(Sigma) G
        s_row = np.sqrt(1.0 + np.einsum("ij,ij->i", db[lo:hi], db[lo:hi]) / h)
        v *= (a_d / (math.sqrt(2.0) * (1.0 + s_row)))[:, None]
        v += x.sum(axis=1)
        np.matmul(np.swapaxes(x, -1, -2), y, out=o)
        work *= a_d * math.sqrt(2.0)
        o += work
        np.multiply(v[:, :, None], c[:, None, :], out=work)
        o += work
        _finish(o, db[lo:hi], h, scale, work)
    return out


def alg1_iterated_nested(rng: np.random.Generator, delta_beta: np.ndarray,
                         h: float, d_values: Sequence[int], eta: np.ndarray) -> dict:
    """Algorithm 1 at several depths of one series draw: a dict depth ->
    (s, k, k) array for the (s, k) increments delta_beta. It draws what
    `alg1_iterated_batch` draws at the largest depth D, which it equals to
    rounding, and depth d finishes each row's first d terms with c_d."""
    db, eta = _check_batch(delta_beta, h, d_values, eta)
    depths = sorted({index(d) for d in d_values})
    s, k = db.shape
    scale = np.outer(np.sqrt(eta), np.sqrt(eta))
    tail = {d: _tail_scale(d) for d in depths}
    out = {d: np.empty((s, k, k)) for d in depths}
    shift = math.sqrt(2.0 / h)
    work = None
    weights_x = np.repeat(1.0 / np.arange(1.0, depths[-1] + 1.0), k)
    for lo, hi, x, y, _ in _series_blocks(rng, s, k, weights_x):
        y += shift * db[lo:hi, None, :]
        xt = np.swapaxes(x, -1, -2)
        work = np.empty((2, hi - lo, k, k)) if work is None else work[:, : hi - lo]
        acc, part = work
        acc.fill(0.0)
        for prev, d in zip([0] + depths, depths):
            acc += np.matmul(xt[:, :, prev:d], y[:, prev:d], out=part)
            np.multiply(acc, tail[d], out=out[d][lo:hi])
            _finish(out[d][lo:hi], db[lo:hi], h, scale, part)
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


def choose_D1(m: int, q: Rational) -> int:
    """Series depth maintaining the temporal order: ceil(m**(2q-1)), >= 1,
    for an exact rational q (`exactmath.ceil_power`)."""
    _check_integers(m=m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return ceil_power(m, 2 * q - 1)


def choose_D2(k: int, d1: int) -> int:
    """Algorithm 2 depth whose mean-square error bound over k directions
    matches Algorithm 1's at depth d1: the bounds K(K-1) h^2 / (2 pi^2 D1)
    and 5 K^2 (K-1) h^2 / (24 pi^2 D2^2) are equal at D2^2 = 5 K D1 / 12.
    Returns ceil(sqrt(5 k d1 / 12)) in integer arithmetic."""
    _check_integers(k=k, d1=d1)
    k, d1 = index(k), index(d1)
    if k < 1 or d1 < 1:
        raise ValueError(f"k and d1 must be >= 1, got k={k}, d1={d1}")
    # x >= sqrt(5 k d1 / 12)  <=>  x**2 >= ceil(5 k d1 / 12)
    return math.isqrt(-(-5 * k * d1 // 12) - 1) + 1


def exact_second_moment(i: int, j: int, h: float, eta: np.ndarray) -> float:
    """Second moment of the (i, j) covariance-scaled iterated integral:
    eta_i * eta_j * h**2 / 2. Cross-moments of distinct index pairs vanish."""
    eta = np.asarray(eta, dtype=float)
    return 0.5 * float(eta[i - 1]) * float(eta[j - 1]) * h * h
