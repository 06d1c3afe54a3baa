"""Monte Carlo convergence studies against coupled reference solutions.

Per path, one Brownian lattice of the reference's M steps is generated and
the reference scheme is integrated on it once. Every ladder row reads the
path W at its grid points and steps on the differences W(t_j) - W(t_j-1).
At a lattice point W is the running sum of the lattice increments; bridge
points exist only off the lattice, where a row's M does not divide the
reference M, and there W is drawn by Brownian bridge between the
neighbouring lattice points from normals of that M's own substream, so a
row's noise does not depend on the other rows. A row's M may not exceed
the reference M, so no lattice step holds two points of one grid. A row
at the reference's own M steps on the drawn increments themselves. So
reference and rows share the driving path. Milstein-type rows
additionally need iterated integrals. A Milstein-type reference samples
its own with Algorithm 2, whose error falls like 1/D rather than
1/sqrt(D), at its depth D (default:
`choose_D2` of its K and of the D1 rule at its M, the depth whose error
bound matches Algorithm 1's there), and uses them only itself. Whatever
the reference's kind, every Milstein-type M samples its own from its
increments with Algorithm 1, at the largest K and D of its rows. Rows
keep Algorithm 1 because the paper's cost model and effective order are
derived for it, and so a row's error includes the truncation error of
a series at its M, which its ledger bills.

The mean-square error (E |X_ref(T) - Y_M|^2)^(1/2) is estimated across
paths, with the standard error of the estimate obtained from the per-path
squared errors by the delta method. With error_at="all-grid" it is taken
at every grid point and the point of largest mean square is reported.
Each row's `integrate` call returns its states at the steps it observes,
the reference's call its states at the union of those steps on its
lattice. The comparison space is configurable: "reference" zero-extends
the approximation into the reference's spectral space, so the error
includes the reference's tail mass above the row's dimension; "row"
projects the reference onto the row's space (at small N the two differ
by the dominant spectral-tail term; BENCH_7.json compares both against
the published error tables). Reports are deterministic
bytes for a given (config, seed), independent of the worker count: every
path derives its own substreams and aggregation runs in path order.

Ledger columns bill each row at its standalone per-step contract: the
K increments plus, for Milstein-type rows, the 2 D K series draws of its
own depth, and the functional evaluations that `integrate` bills from the
registry's per-step counts (`Scheme.evals`). Rows share the lattice, and
rows at one M share its series, so billed draws are the cost a standalone
run would pay, not the draws made.

Paths run in chunks, one per worker: a pool of W workers maps chunks of
ceil(paths / W) paths. The pool is imported only when W > 1, so a
single-worker study never loads the multiprocessing stack (~2 MB RSS).
A worker receives the `StudyConfig` itself and its chunk's path range,
and `_study_feed` builds from them the one `_NoiseFeed` that makes all of
the chunk's noise, block by block: each path draws from its own
(purpose, 0, path) substreams (the series and the bridge normals of a
grid of M steps from (purpose, 0, path, M)), and a block is the next
lattice steps whose noise over the chunk's paths fits 1 MB of float64,
or 64 steps if that is more. Per block the reference and then
every row continue their batched `integrate` calls from their last states
(`y0`), and only the observed states are kept. Split draws equal whole
ones, and batched and single-path integration agree bit for bit, so the
blocks, the chunking and the worker count cannot change a report.
`estimate_sup_second_moment` steps one scheme on a feed of its own.

Every normal a feed's lattice series (the reference's Algorithm 2, the
estimator's Algorithm 1) will draw is known before its first block. So
when the process may use more CPUs than the study has workers (the
estimator counts as one) and one path's series of one block is large
enough to pay for it (`_AHEAD_MIN_NORMALS`), a second thread draws those
normals ahead (`_SeriesDraws`): block by block, a chunk of rows at a
time, each path's from its own generator, into two slots that split the
one buffer an inline sampler uses, while the sampler draws a chunk itself
when the thread has not got to it. Otherwise each path's sampler draws
its own, inline. The thread calls nothing but `standard_normal` and is
joined when the chunk or the estimate returns or raises. Every generator
still draws its normals in order, so the thread cannot change a report
either.

A reference or row state that turns non-finite stops its integration and
raises ValueError naming the seed, path and scheme.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cost import CostLedger, cost_formula, ledger_expected
from .eoc import PlanInput, optimal_resolution
from .exactmath import _check_integers, ceil_power
from .noise import (_check_seed, _row_normals, _SeriesDraws, alg1_iterated_batch,
                    alg2_iterated_batch, choose_D1, choose_D2, sample_increments_batch,
                    substream)
# imported only so that bench/tracer.py, which patches this name, keeps working
from .noise import NoisePacket  # noqa: F401
from .problems import ProblemSpec
from .schemes import (REGISTRY, NonFiniteState, SchemeConfig, _check_resolution,
                      canonical_kind, integrate)

__all__ = [
    "ReferenceSpec", "LadderRow", "StudyConfig", "ReportRow", "StudyReport",
    "OrderFit", "run_study", "estimate_ms_error", "measure_order",
    "plan_rows", "paper_reference", "estimate_sup_second_moment",
]

# substream purposes: the first key of each (purpose, 0, path) substream
_PURPOSE_INCREMENTS = 11
_PURPOSE_SERIES = 12
_PURPOSE_BRIDGE = 13
# largest reference M x paths a study runs without allow_big (no row M
# exceeds the reference M)
_GUARDRAIL_STEPS = 2**33


@dataclass(frozen=True)
class ReferenceSpec:
    """Scheme and resolutions of the reference solution. A Milstein-type
    reference takes an optional Algorithm 2 series depth (default:
    `choose_D2(K, D1)` with D1 the D1 rule at its M); an Euler-type one
    takes none."""

    kind: str
    n: int
    k: int
    m: int
    d: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _check_resolution(
            "reference", self.kind, self.n, self.k, self.m))
        _check_integers(D=self.d)
        if REGISTRY[self.kind].milstein:
            if self.d is not None and self.d < 1:
                raise ValueError("reference series depth must be >= 1")
        elif self.d is not None:
            raise ValueError(f"Euler-type reference {self.kind} takes no series depth")


@dataclass(frozen=True)
class LadderRow:
    """One (scheme, resolution) entry of the study ladder."""

    scheme: str
    n: int
    m: int
    k: int
    d: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", _check_resolution(
            "row", self.scheme, self.n, self.k, self.m))
        _check_integers(D=self.d)
        if REGISTRY[self.scheme].milstein:
            if self.d is None or self.d < 1:
                raise ValueError("Milstein-type rows need a series depth")
        elif self.d is not None:
            raise ValueError("Euler-type rows take no series depth")


def plan_rows(problem: ProblemSpec, schemes: Sequence[str],
              n_ladder: Sequence[int]) -> List[LadderRow]:
    """Auto ladder: per scheme and anchor N, the planner's (M, K, D)."""
    rows = []
    for scheme in schemes:
        plan = PlanInput.from_problem(problem, scheme)
        for n in n_ladder:
            res = optimal_resolution(plan, n)
            rows.append(LadderRow(scheme=scheme, n=n, m=res.m,
                                  k=min(res.k, n), d=res.d))
    return rows


def paper_reference(example_id: int) -> ReferenceSpec:
    """Published reference resolutions for the shipped examples (full tier)."""
    _check_integers(example_id=example_id)
    if example_id == 1:
        return ReferenceSpec("LIE", n=64, k=ceil_power(2, Fraction(14, 9)),
                             m=ceil_power(2, Fraction(35, 2)))
    if example_id == 2:
        return ReferenceSpec("LIE", n=64, k=ceil_power(2, Fraction(102, 77)),
                             m=ceil_power(2, Fraction(85, 6)))
    raise ValueError("published reference resolutions exist for examples 1 and 2")


@dataclass(frozen=True)
class StudyConfig:
    problem: ProblemSpec
    rows: Tuple[LadderRow, ...]
    reference: ReferenceSpec
    paths: int
    seed: int
    error_at: str = "final"          # "final" or "all-grid"
    error_space: str = "reference"   # "reference" (tail included) or "row"
    workers: int = 1
    allow_big: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        _check_seed(self.seed)
        _check_integers(paths=self.paths, workers=self.workers)
        if not self.rows:
            raise ValueError("the ladder has no rows")
        if self.paths < 2:
            raise ValueError("need at least two paths for an error estimate")
        if self.error_at not in ("final", "all-grid"):
            raise ValueError("error_at must be 'final' or 'all-grid'")
        if self.error_space not in ("reference", "row"):
            raise ValueError("error_space must be 'reference' or 'row'")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        ref = self.reference
        for row in self.rows:
            if row.n > ref.n:
                raise ValueError(f"row N={row.n} exceeds reference N={ref.n}")
            if row.k > ref.k:
                raise ValueError(f"row K={row.k} exceeds reference K={ref.k}")
            if row.m > ref.m:
                raise ValueError(f"row M={row.m} exceeds reference M={ref.m}")
            if row.m * ref.m >= 2**63:
                raise ValueError(f"row M={row.m} times reference M={ref.m} must stay "
                                 f"below 2^63, where grid positions are int64")
            if ref.m % row.m == 0:
                continue
            if self.error_at == "all-grid":
                raise ValueError(f"row {row.scheme} M={row.m} does not divide the "
                                 f"reference M={ref.m}, which error_at='all-grid' needs")


@dataclass(frozen=True)
class ReportRow:
    scheme: str
    n: int
    m: int
    k: int
    d: Optional[int]
    cost_formula: int
    cost_ledger: int
    error: float
    std: float
    paths: int


@dataclass(frozen=True)
class StudyReport:
    rows: Tuple[ReportRow, ...]
    config_echo: dict

    CSV_HEADER = "scheme,N,M,K,D,cost_formula,cost_ledger,error,std,paths"

    def csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            d = "" if r.d is None else str(r.d)
            lines.append(f"{r.scheme},{r.n},{r.m},{r.k},{d},{r.cost_formula},"
                         f"{r.cost_ledger},{float(r.error)!r},{float(r.std)!r},{r.paths}")
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        rows = [{"scheme": r.scheme, "N": r.n, "M": r.m, "K": r.k, "D": r.d,
                 "cost_formula": r.cost_formula, "cost_ledger": r.cost_ledger,
                 "error": float(r.error), "std": float(r.std), "paths": r.paths}
                for r in self.rows]
        return json.dumps({"config": self.config_echo, "rows": rows},
                          indent=2, sort_keys=True) + "\n"


def estimate_ms_error(per_path_sq_errors) -> Tuple[float, float]:
    """Root-mean of per-path squared errors plus its delta-method standard
    error: std(sq)/(2 * error * sqrt(P))."""
    sq = np.asarray(per_path_sq_errors, dtype=float)
    if sq.size < 2:
        raise ValueError("need at least two per-path squared errors")
    mean_sq = float(sq.mean())
    error = math.sqrt(mean_sq)
    if error == 0.0:
        return 0.0, 0.0
    spread = float(sq.std(ddof=1))
    return error, spread / (2.0 * error * math.sqrt(sq.size))


@dataclass(frozen=True)
class OrderFit:
    slope: float
    stderr: float
    ci_low: float
    ci_high: float


def fit_loglog(x, y) -> OrderFit:
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    if x.size < 3:
        raise ValueError("need at least three resolutions for an order fit")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate ladder: no spread on the x axis")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    sigma2 = float(np.sum(resid**2)) / dof if dof > 0 else 0.0
    stderr = math.sqrt(sigma2 / sxx)
    return OrderFit(slope=slope, stderr=stderr,
                    ci_low=slope - 1.96 * stderr, ci_high=slope + 1.96 * stderr)


def measure_order(report: StudyReport, axis: str = "M",
                  scheme: Optional[str] = None) -> OrderFit:
    """Least-squares slope of log error against log M or log cost."""
    if axis not in ("M", "cost"):
        raise ValueError("axis must be 'M' or 'cost'")
    rows = [r for r in report.rows
            if scheme is None or r.scheme == canonical_kind(scheme)]
    schemes = {r.scheme for r in rows}
    if len(schemes) > 1:
        raise ValueError("report mixes schemes; pass scheme=...")
    xs = [r.m if axis == "M" else r.cost_formula for r in rows]
    ys = [r.error for r in rows]
    if any(e <= 0 for e in ys):
        raise ValueError("order fit needs strictly positive errors")
    return fit_loglog(xs, ys)


# --- study execution ---------------------------------------------------------

# A chunk walks the lattice in blocks of steps whose noise, over all the
# chunk's paths, holds at most this many elements (1 MB of float64) ...
_BLOCK_ELEMS = 2**17
# ... but at least this many steps: every block costs each path a few
# generator and sampler calls of fixed overhead (~60 us per Algorithm 2 call
# at K = 16; a series drawn ahead makes two where one inline call fits),
# which must stay small next to the block's draws when a chunk holds many
# paths
_BLOCK_MIN_STEPS = 64
# a lattice series is drawn ahead only where one path's draws for one block
# hold at least this many normals: split in two, each chunk then takes ~0.4 ms
# to draw, several times the fixed cost of the extra sampler call the split
# adds (mil-allgrid-ex3's 72 x 216 normals ran ~9% slower drawn ahead;
# BENCH_24.json)
_AHEAD_MIN_NORMALS = 2**16


def _reference(config: StudyConfig) -> ReferenceSpec:
    """The reference that runs: a Milstein-type one left without a depth
    takes `choose_D2` of its K and of the D1 rule at its M. Resolved per
    call, so it follows `replace(config, problem=...)`."""
    ref = config.reference
    if REGISTRY[ref.kind].milstein and ref.d is None:
        ref = replace(ref, d=choose_D2(ref.k, choose_D1(ref.m, config.problem.params.q_dfm)))
    return ref


def _block_steps(paths: int, elems_per_step: int) -> int:
    """Lattice steps per block of a chunk of paths, each holding
    elems_per_step noise elements per step."""
    return max(_BLOCK_MIN_STEPS, _BLOCK_ELEMS // (paths * elems_per_step))


def _cpu_count() -> int:
    """CPUs this process may run on (the host's, where the platform cannot
    say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _series(sampler, rngs: Sequence, db: np.ndarray, h: float, d: int,
            eta: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
    """(P, s, k, k) iterated integrals of the (P, s, k) increments db,
    straight into their blocks of the result: `rows` steps at a time (all
    s if None), each by every path i in turn, drawn by sampler from rngs[i]
    (a generator, or the `_SeriesDraws` whose next chunk it is)."""
    out = np.empty(db.shape + db.shape[-1:])
    step = rows or db.shape[1]
    for lo in range(0, db.shape[1], step):
        for i, rng in enumerate(rngs):
            sampler(rng, np.ascontiguousarray(db[i, lo:lo + step]), h, d, eta,
                    out=out[i, lo:lo + step])
    return out


class _NoiseFeed:
    """Each block's noise for a set of paths (module docstring). Every path
    draws from its own generators, which keep their place from block to
    block, so the blocks cannot change a draw.

    The L-step lattice takes K = eta.size increments per step from `rngs`
    and, with `lattice_series` (sampler, depth, generators), their iterated
    integrals. Every grid in `grids`, (M, generators or None) with M < L,
    reads W at its points j, which lie at lattice position
    j L / M = c + f (integers c >= 0, 0 <= f < 1): W(c) where f = 0, else
    the Brownian-bridge draw W(c) + f (W(c+1) - W(c)) + sqrt(h f (1 - f)) z
    with z from the grid's own generators (None for a grid that divides
    L). Its points lie at least one lattice step apart, so no lattice step
    holds two of them, and given W on the lattice the draws are independent
    and exact. A grid step cut by a block's end waits for the next block,
    which starts from the grid's last W value (`done`, `last`). Each
    Milstein-type grid in `series`, (m, k, d, generators), samples its
    series from its increments by Algorithm 1.

    Used as a context manager, the feed draws the lattice series' normals
    ahead on a second thread (`_SeriesDraws`, over all its blocks) when the
    process may use more CPUs than the `workers` running feeds at once and
    one path's series of one block holds at least _AHEAD_MIN_NORMALS
    normals, and joins that thread on leaving.
    """

    def __init__(self, horizon: float, lattice: int, eta: np.ndarray,
                 rngs: Sequence[np.random.Generator], lattice_series=None,
                 grids: Sequence[Tuple[int, Optional[Sequence]]] = (),
                 series: Sequence[Tuple[int, int, int, Sequence]] = (), workers: int = 1):
        self.horizon, self.lattice, self.eta, self.rngs = horizon, lattice, eta, rngs
        self.lattice_series, self.grids, self.series = lattice_series, grids, series
        self.h = horizon / lattice
        self.w_start = np.zeros((len(rngs), eta.size))   # W at the next block's start
        self.done = {m: 0 for m, _ in grids}
        self.last = {m: self.w_start for m, _ in grids}
        self.draws = None                # the lattice series' draw-ahead, if any
        if lattice_series is not None and _cpu_count() > workers:
            sampler, d, series_rngs = lattice_series
            blocks = [b - a for a, b in self.spans()]
            width = _row_normals(sampler, eta.size, d)
            if blocks[0] * width >= _AHEAD_MIN_NORMALS:
                self.draws = _SeriesDraws(series_rngs, blocks, width, eta.size)

    def __enter__(self) -> "_NoiseFeed":
        if self.draws is not None:
            self.draws.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.draws is not None:
            self.draws.close()

    def _increments(self, rngs, s: int, h: float) -> np.ndarray:
        """(P, s, K) increments of step length h, path i's drawn from rngs[i]
        straight into its block of the result."""
        out = np.empty((len(rngs), s, self.eta.size))
        for i, rng in enumerate(rngs):
            out[i] = sample_increments_batch(rng, s, self.eta.size, h)
        return out

    def elems_per_step(self) -> int:
        """Noise elements one path holds per lattice step of a block,
        rounded up: its lattice increments and their iterated integrals, W
        at the lattice points, per grid its M - gcd(M, L) bridge normals, M
        values of W and M increments, and the increments and iterated
        integrals of every Milstein-type grid."""
        lattice, k = self.lattice, self.eta.size
        elems = lattice * (k + k**2 if self.lattice_series else k) + (lattice + 1) * k
        elems += sum(3 * m - math.gcd(m, lattice) for m, _ in self.grids) * k
        elems += sum(m * (k + k**2) for m, k, _, _ in self.series)
        return -(-elems // lattice)

    def spans(self) -> List[Tuple[int, int]]:
        """The (a, b) lattice steps a..b-1 of every block (`_block_steps`)."""
        block = _block_steps(len(self.rngs), self.elems_per_step())
        return [(a, min(self.lattice, a + block)) for a in range(0, self.lattice, block)]

    def lattice_noise(self, a: int, b: int):
        """(P, b - a, K) increments of lattice steps a..b-1 and, with a
        lattice series, their (P, b - a, K, K) iterated integrals, else
        None."""
        db = self._increments(self.rngs, b - a, self.h)
        if self.lattice_series is None:
            return db, None
        sampler, d, rngs = self.lattice_series
        if self.draws is None:
            return db, _series(sampler, rngs, db, self.h, d, self.eta)
        return db, _series(sampler, [self.draws] * len(rngs), db, self.h, d, self.eta,
                           self.draws.rows)

    def grid_noise(self, db: np.ndarray, a: int, b: int):
        """({M: increments}, {M: iterated integrals}) of the grid steps that
        end by lattice step b, given the increments db of steps a..b-1: a
        grid at the lattice's own M steps on db itself."""
        lattice, (paths, s, k) = self.lattice, db.shape
        w = np.empty((paths, s + 1, k))        # W at the lattice points a..b
        w[:, 0] = self.w_start
        w[:, 1:] = db
        np.cumsum(w, axis=1, out=w)
        self.w_start = w[:, s].copy()
        incs = {lattice: db}
        for m, rngs in self.grids:
            upto = b * m // lattice
            # j L < 2^63 for j <= M (StudyConfig), so the int64 cells are exact
            cell, r = np.divmod(np.arange(self.done[m] + 1, upto + 1) * lattice, m)
            vals = np.empty((paths, cell.size + 1, k))
            vals[:, 0] = self.last[m]
            vals[:, 1:] = w[:, cell - a]
            off = np.flatnonzero(r)
            if off.size:
                f, c = r[off] / m, cell[off] - a
                left = w[:, c]
                vals[:, off + 1] = (left + f[:, None] * (w[:, c + 1] - left)
                                    + np.sqrt(self.h * f * (1 - f))[:, None]
                                    * self._increments(rngs, off.size, 1.0))
            self.done[m], self.last[m] = upto, vals[:, -1]
            incs[m] = np.diff(vals, axis=1)
        del w
        iqs = {m: _series(alg1_iterated_batch, rngs, incs[m][:, :, :k], self.horizon / m,
                          d, self.eta[:k])
               for m, k, d, rngs in self.series if incs[m].shape[1]}
        return incs, iqs


def _study_feed(config: StudyConfig, lo: int, hi: int) -> _NoiseFeed:
    """The noise of a study's paths lo..hi-1. Each path draws from its own
    (purpose, 0, path) substreams, the series of a Milstein grid of M steps
    from (purpose, 0, path, M) at the largest K and D of that M's rows, and
    the bridge points of a grid of M steps that does not divide the
    reference M from (purpose, 0, path, M). Every row M but the lattice's
    own is a grid: a row at that M steps on the drawn increments
    themselves."""
    ref = _reference(config)

    def streams(purpose, *m):
        return [substream(config.seed, purpose, 0, p, *m) for p in range(lo, hi)]

    increments = streams(_PURPOSE_INCREMENTS)
    ref_series = ((alg2_iterated_batch, ref.d, streams(_PURPOSE_SERIES))
                  if REGISTRY[ref.kind].milstein else None)
    grids = [(m, streams(_PURPOSE_BRIDGE, m) if ref.m % m else None)
             for m in sorted({r.m for r in config.rows} - {ref.m})]
    milstein = [r for r in config.rows if REGISTRY[r.scheme].milstein]
    series = []
    for m in sorted({r.m for r in milstein}):
        at_m = [r for r in milstein if r.m == m]
        series.append((m, max(r.k for r in at_m), max(r.d for r in at_m),
                       streams(_PURPOSE_SERIES, m)))
    return _NoiseFeed(config.problem.horizon, ref.m, config.problem.q_law.values(ref.k),
                      increments, ref_series, grids, series, config.workers)


def _observed_steps(config: StudyConfig, row: LadderRow) -> np.ndarray:
    """The steps of a row's grid that enter its error: M, or 0..M."""
    return np.arange(row.m + 1) if config.error_at == "all-grid" else np.array([row.m])


class _Stepper:
    """One scheme integrated block by block on the paths lo, lo+1, ... of
    a study with this seed: its state, the steps taken, and the steps it
    observes."""

    def __init__(self, problem: ProblemSpec, seed: int, lo: int, cfg: SchemeConfig,
                 observed: np.ndarray, ledger=None):
        self.problem, self.seed, self.lo, self.cfg = problem, seed, lo, cfg
        self.observed, self.ledger = observed, ledger
        self.y = problem.initial_coeffs(cfg.n)
        self.done = 0

    def advance(self, db: np.ndarray, iq: Optional[np.ndarray]):
        """Step through the steps whose noise db (and iq) holds. Returns
        (i0, i1, states): the states at observed[i0:i1], the observed
        steps reached since the last call. A non-finite path is reported
        by its seed, path index and scheme."""
        start, stop = self.done, self.done + db.shape[1]
        i0 = int(np.searchsorted(self.observed, start, "left" if start == 0 else "right"))
        i1 = int(np.searchsorted(self.observed, stop, "right"))
        at = self.observed[i0:i1] - start
        if at.size == 0 or at[-1] != stop - start:
            at = np.append(at, stop - start)
        try:
            out = integrate(self.cfg, self.problem, db, iq, ledger=self.ledger,
                            at=at, y0=self.y)
        except NonFiniteState as exc:
            raise ValueError(f"non-finite state: seed {self.seed}, path "
                             f"{self.lo + exc.path}, scheme {exc.kind}") from None
        self.y, self.done = out[:, -1], stop
        return i0, i1, out[:, : i1 - i0]


def _sq_errors(config: StudyConfig, row: LadderRow, y: np.ndarray,
               ref: np.ndarray) -> np.ndarray:
    """(P, steps) squared errors of a row's (P, steps, N) states y against
    the (P, steps, N_ref) reference states ref at the same times, which
    it may overwrite."""
    if config.error_space == "row":
        diff = ref[..., : row.n] - y
    else:
        diff = ref
        diff[..., : row.n] -= y
    # one dot product per (path, step): bit-equal to np.dot of each difference
    return (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]


def _run_chunk(args):
    """All rows on paths lo..hi-1, streamed over the lattice in the blocks
    of their noise feed (`_study_feed`).

    Per block the reference steps on the lattice noise and lets its
    series go before the grids' noise is made; then every row continues
    its batched integration from its last states as far as its grid's
    increments are complete. Only observed states are kept: the
    reference's at every lattice step a row observes, and each row's
    squared errors.
    Returns per row the (hi-lo, observed steps) squared errors and the
    ledger total of one path.
    """
    config, lo, hi = args
    problem, ref, lattice = config.problem, config.reference, config.reference.m
    feed = _study_feed(config, lo, hi)

    # the reference is observed at every lattice step some row observes (a
    # mask, not np.unique, which imports numpy.ma: ~2 MB RSS per process)
    observed = np.zeros(lattice + 1, dtype=bool)
    for r in config.rows:
        observed[_observed_steps(config, r) * lattice // r.m] = True
    ref_cfg = SchemeConfig(kind=ref.kind, n=ref.n, k=ref.k, m=lattice)
    ref_run = _Stepper(problem, config.seed, lo, ref_cfg, np.flatnonzero(observed))
    ref_states = np.empty((hi - lo, ref_run.observed.size, ref.n))

    runs, sq_errors = [], []
    for row in config.rows:
        ledger = CostLedger()
        # bill the draws a standalone run of this row would make
        ledger.charge_normals(row.m * ledger_expected(row.scheme, row.n, row.k, row.d).normals)
        cfg = SchemeConfig(kind=row.scheme, n=row.n, k=row.k, m=row.m)
        runs.append(_Stepper(problem, config.seed, lo, cfg, _observed_steps(config, row), ledger))
        sq_errors.append(np.empty((hi - lo, runs[-1].observed.size)))

    with feed:
        for a, b in feed.spans():
            db, ref_iq = feed.lattice_noise(a, b)
            i0, i1, states = ref_run.advance(db, ref_iq)
            ref_states[:, i0:i1] = states
            del ref_iq, states
            incs, iqs = feed.grid_noise(db, a, b)
            for row, run, sq in zip(config.rows, runs, sq_errors):
                inc = incs[row.m]
                if not inc.shape[1]:
                    continue
                iq = (iqs[row.m][:, :, : row.k, : row.k]
                      if REGISTRY[row.scheme].milstein else None)
                i0, i1, y = run.advance(inc[:, :, : row.k], iq)
                # fancy indexing copies, so the reference states stay as they are
                at = np.searchsorted(ref_run.observed, run.observed[i0:i1] * lattice // row.m)
                sq[:, i0:i1] = _sq_errors(config, row, y, ref_states[:, at])
            # each block's arrays go before the next block draws its own
            del db, incs, iqs
    return sq_errors, [run.ledger.total() for run in runs]


def _chunk_size(paths: int, workers: int) -> int:
    """Paths per chunk: ceil(paths / workers), so every worker gets one."""
    return -(-paths // workers)


def run_study(config: StudyConfig) -> StudyReport:
    """Run the Monte Carlo study and assemble the per-row report. The
    reference and every row share each path's W (module docstring)."""
    problem = config.problem
    ref = config.reference
    q_milstein = problem.params.q_dfm

    total_steps = config.paths * ref.m
    if total_steps > _GUARDRAIL_STEPS and not config.allow_big:
        raise ValueError(
            f"study would take ~{total_steps:.2e} steps; pass allow_big=True "
            f"(--allow-big) to run it")

    size = _chunk_size(config.paths, config.workers)
    tasks = [(config, lo, min(lo + size, config.paths))
             for lo in range(0, config.paths, size)]
    if config.workers == 1:
        results = [_run_chunk(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor   # only here (module docstring)
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_chunk, tasks))

    # chunks come back in path order
    row_sq = [np.concatenate(parts) for parts in zip(*(sq for sq, _ in results))]
    row_ledger = results[0][1]

    report_rows = []
    for row_id, row in enumerate(config.rows):
        stacked = row_sq[row_id]                      # (paths, grid points)
        mean_per_point = stacked.mean(axis=0)
        at = int(np.argmax(mean_per_point))
        error, std = estimate_ms_error(stacked[:, at])
        cf = cost_formula(row.scheme, row.n, row.k, row.m, q_milstein)
        report_rows.append(ReportRow(
            scheme=row.scheme, n=row.n, m=row.m, k=row.k, d=row.d,
            cost_formula=cf, cost_ledger=row_ledger[row_id],
            error=error, std=std, paths=config.paths))

    echo = {
        "problem": problem.name,
        "horizon": problem.horizon,
        "params": {name: str(getattr(problem.params, name))
                   for name in ("beta", "gamma", "delta", "alpha", "rho_a", "rho_q")},
        # the depth and sampler that ran: D is None for Euler-type kinds,
        # which draw no series and so carry no "series" key
        "reference": {"kind": ref.kind, "N": ref.n, "K": ref.k, "M": ref.m,
                      "D": _reference(config).d,
                      **({"series": "alg2"} if REGISTRY[ref.kind].milstein else {})},
        "rows": [{"scheme": r.scheme, "N": r.n, "M": r.m, "K": r.k, "D": r.d}
                 for r in config.rows],
        "paths": config.paths,
        "seed": config.seed,
        "error_at": config.error_at,
        "error_space": config.error_space,
    }
    return StudyReport(rows=tuple(report_rows), config_echo=echo)


def estimate_sup_second_moment(problem: ProblemSpec, kind: str, n: int, k: int,
                               m: int, paths: int, seed: int) -> float:
    """Monte Carlo estimate of max over grid points of E |Y_step|^2 in the
    fractional norm of order delta, Milstein-type kinds sampling their
    series at the D1 depth of m. Path i draws its increments from the
    substream (71, m, i, 1) and its series from (71, m, i, 2); all paths
    step at once, in the blocks of one noise feed."""
    cfg = SchemeConfig(kind=kind, n=n, k=k, m=m)
    _check_integers(paths=paths)
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")

    def streams(purpose):
        return [substream(seed, 71, m, path, purpose) for path in range(paths)]

    series = ((alg1_iterated_batch, choose_D1(m, problem.params.q_dfm), streams(2))
              if REGISTRY[cfg.kind].milstein else None)
    run = _Stepper(problem, seed, 0, cfg, np.arange(m + 1))
    weights = problem.a_law.values(n) ** (2.0 * float(problem.params.delta))
    acc = np.zeros(m + 1)
    with _NoiseFeed(problem.horizon, m, problem.q_law.values(k), streams(1), series) as feed:
        for a, b in feed.spans():
            i0, i1, states = run.advance(*feed.lattice_noise(a, b))
            # path by path, as the sum over paths has always been added
            for traj in states:
                acc[i0:i1] += (traj**2 * weights[None, :]).sum(axis=1)
    return float((acc / paths).max())
