"""Monte Carlo convergence studies against coupled reference solutions.

Per path, one fine Brownian lattice is generated. The reference scheme is
integrated on it; every ladder row is integrated on a coarse grid whose
increments are block sums of the fine ones, so reference and approximation
share the driving path. Milstein-type rows additionally need iterated
integrals: these are generated once at the finest Milstein level of
the ladder (or taken from the reference lattice when the reference itself
is a Milstein-type scheme) and folded to coarser levels with the exact
chaining rule, preserving the pathwise coupling.

The mean-square error (E |X_ref(T) - Y_M|^2)^(1/2) is estimated across
paths, with the standard error of the estimate obtained from the per-path
squared errors by the delta method. The comparison space is configurable:
"reference" zero-extends the approximation into the reference's spectral
space, so the error includes the reference's tail mass above the row's
dimension; "row" projects the reference onto the row's space, which is the
convention the published error tables follow (at small N the two differ by
the dominant spectral-tail term). Reports are deterministic bytes for a
given (config, seed), independent of the worker count: every path derives
its own substreams and aggregation runs in path order.

Ledger columns bill each row at its standalone per-step contract (the
K increments plus, for Milstein-type rows, the 2 D K series draws of its
own depth), with functional evaluations instrumented from the actual run;
noise generation being shared across coupled levels, billed draws are the
cost a standalone run would pay.

Every integrated reference and row result is checked for finiteness; a
non-finite one raises ValueError naming the seed, lattice group, path and
scheme.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import noise as noise_mod
from .cost import CostLedger, cost_formula, ledger_expected
from .eoc import PlanInput, optimal_resolution
from .exactmath import ceil_power
from .noise import alg1_iterated_batch, choose_D1, sample_increments_batch, substream
# imported only so that bench/tracer.py, which patches this name, keeps working
from .noise import NoisePacket  # noqa: F401
from .problems import ProblemSpec
from .schemes import REGISTRY, SchemeConfig, canonical_kind, integrate

__all__ = [
    "ReferenceSpec", "LadderRow", "StudyConfig", "ReportRow", "StudyReport",
    "OrderFit", "run_study", "estimate_ms_error", "measure_order",
    "plan_rows", "paper_reference", "scaled_reference",
    "estimate_sup_second_moment",
]

# substream purposes: the first key of each (purpose, group, path) substream
_PURPOSE_INCREMENTS = 11
_PURPOSE_SERIES = 12
_DEFAULT_GUARDRAIL = 2**33


@dataclass(frozen=True)
class ReferenceSpec:
    """Scheme and resolutions of the reference solution."""

    kind: str
    n: int
    k: int
    m: int
    d: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        if min(self.n, self.k, self.m) < 1 or self.k > self.n:
            raise ValueError("reference needs 1 <= K <= N and M >= 1")


@dataclass(frozen=True)
class LadderRow:
    """One (scheme, resolution) entry of the study ladder."""

    scheme: str
    n: int
    m: int
    k: int
    d: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", canonical_kind(self.scheme))
        if not 1 <= self.k <= self.n or self.m < 1:
            raise ValueError("row needs 1 <= K <= N and M >= 1")
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
    if example_id == 1:
        return ReferenceSpec("LIE", n=64, k=ceil_power(2, Fraction(14, 9)),
                             m=ceil_power(2, Fraction(35, 2)))
    if example_id == 2:
        return ReferenceSpec("LIE", n=64, k=ceil_power(2, Fraction(102, 77)),
                             m=ceil_power(2, Fraction(85, 6)))
    raise ValueError("published reference resolutions exist for examples 1 and 2")


def scaled_reference(n: int = 64, k: int = 3, m: int = 2**14) -> ReferenceSpec:
    """Desk-scale reference preset."""
    return ReferenceSpec("LIE", n=n, k=k, m=m)


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
    guardrail: int = _DEFAULT_GUARDRAIL

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.paths < 2:
            raise ValueError("need at least two paths for an error estimate")
        if self.error_at not in ("final", "all-grid"):
            raise ValueError("error_at must be 'final' or 'all-grid'")
        if self.error_space not in ("reference", "row"):
            raise ValueError("error_space must be 'reference' or 'row'")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")
        for row in self.rows:
            if row.n > self.reference.n:
                raise ValueError(f"row N={row.n} exceeds reference N={self.reference.n}")
            if row.k > self.reference.k:
                raise ValueError(f"row K={row.k} exceeds reference K={self.reference.k}")


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

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "rows": [
                {"scheme": r.scheme, "N": r.n, "M": r.m, "K": r.k, "D": r.d,
                 "cost_formula": r.cost_formula, "cost_ledger": r.cost_ledger,
                 "error": float(r.error), "std": float(r.std), "paths": r.paths}
                for r in self.rows
            ],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.json_text())


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

@dataclass(frozen=True)
class _GroupContext:
    """Everything one worker needs to run all rows of a lattice group on
    one path. Must stay picklable."""

    problem: ProblemSpec
    reference: ReferenceSpec
    lattice_m: int
    rows: Tuple[Tuple[int, LadderRow], ...]   # (row index, row)
    seed: int
    gid: int
    error_at: str
    error_space: str
    q_milstein: Fraction


def _aggregate(fine: np.ndarray, m_coarse: int) -> Tuple[np.ndarray, int]:
    ratio = fine.shape[0] // m_coarse
    return fine.reshape(m_coarse, ratio, fine.shape[1]).sum(axis=1), ratio


def _row_sq_errors(ctx: _GroupContext, row: LadderRow, db_row, iq_row,
                   ref_final, ref_captures, lattice_m, ledger, path):
    problem = ctx.problem
    cfg = SchemeConfig(kind=row.scheme, n=row.n, k=row.k, m=row.m,
                       d=row.d, horizon=problem.horizon)

    def sq_diff(ref_state, y):
        if ctx.error_space == "row":
            diff = ref_state[: row.n] - y
        else:
            diff = ref_state.copy()
            diff[: row.n] -= y
        return float(np.dot(diff, diff))

    if ctx.error_at == "final":
        y_final = integrate(cfg, problem, db_row, iq_row, ledger=ledger, store="final")
        _check_finite(y_final, ctx, path, row.scheme)
        return np.array([sq_diff(ref_final, y_final)])
    traj = integrate(cfg, problem, db_row, iq_row, ledger=ledger, store="trajectory")
    _check_finite(traj, ctx, path, row.scheme)
    stride = lattice_m // row.m
    out = np.empty(row.m + 1)
    for step in range(row.m + 1):
        out[step] = sq_diff(ref_captures[step * stride], traj[step])
    return out


def _check_finite(states, ctx: _GroupContext, path: int, kind: str) -> None:
    if not np.isfinite(states).all():
        raise ValueError(f"non-finite state: seed {ctx.seed}, group {ctx.gid}, "
                         f"path {path}, scheme {kind}")


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


def _run_group_path(args):
    ctx, path = args
    problem = ctx.problem
    ref = ctx.reference
    lattice = ctx.lattice_m
    h_f = problem.horizon / lattice
    eta_ref = problem.q_law.values(ref.k)
    rng_inc = substream(ctx.seed, _PURPOSE_INCREMENTS, ctx.gid, path)
    rng_series = substream(ctx.seed, _PURPOSE_SERIES, ctx.gid, path)
    db_fine = sample_increments_batch(rng_inc, lattice, ref.k, h_f)

    mil_rows = [(i, r) for i, r in ctx.rows if REGISTRY[r.scheme].milstein]
    capture = None
    if ctx.error_at == "all-grid":
        capture = set()
        for _, r in ctx.rows:
            stride = lattice // r.m
            capture.update(step * stride for step in range(r.m + 1))

    # reference integration (iterated integrals only if the reference is
    # Milstein-type)
    ref_milstein = REGISTRY[ref.kind].milstein
    ref_cfg = SchemeConfig(kind=ref.kind, n=ref.n, k=ref.k, m=lattice,
                           d=ref.d if ref_milstein else None,
                           horizon=problem.horizon)
    gen_db = gen_iq = None
    gen_m = gen_k = None
    if ref_milstein:
        gen_db = db_fine
        gen_iq = alg1_iterated_batch(rng_series, db_fine, h_f, ref.d, eta_ref)
        gen_m, gen_k = lattice, ref.k
    ref_out = integrate(ref_cfg, problem, db_fine, gen_iq, store="final", capture=capture)
    ref_final, ref_captures = ref_out if capture is not None else (ref_out, None)
    _check_finite(ref_final, ctx, path, ref.kind)

    # generation level for Milstein rows when the reference consumes no
    # iterated integrals: the coarsest grid every Milstein row refines
    if mil_rows and gen_iq is None:
        gen_m = _lcm_all(r.m for _, r in mil_rows)
        gen_k = max(r.k for _, r in mil_rows)
        gen_db, _ = _aggregate(db_fine[:, :gen_k], gen_m)
        gen_iq = alg1_iterated_batch(rng_series, gen_db, problem.horizon / gen_m,
                                     choose_D1(gen_m, ctx.q_milstein), eta_ref[:gen_k])

    # fold the generation-level integrals onto each coarser Milstein grid
    level_arrays = {}
    if mil_rows:
        level_arrays[gen_m] = (gen_db, gen_iq)
        for target_m in sorted({r.m for _, r in mil_rows}, reverse=True):
            if target_m in level_arrays:
                continue
            ratio = gen_m // target_m
            db_lvl = gen_db.reshape(target_m, ratio, gen_k)
            iq_lvl = gen_iq.reshape(target_m, ratio, gen_k, gen_k)
            level_arrays[target_m] = noise_mod.chain_arrays(db_lvl, iq_lvl,
                                                            eta_ref[:gen_k])

    sq_errors: Dict[int, np.ndarray] = {}
    ledgers: Dict[int, Tuple[int, int, int, int]] = {}
    for row_id, row in ctx.rows:
        ledger = CostLedger()
        # bill the draws a standalone run of this row would make
        ledger.charge_normals(row.m * ledger_expected(row.scheme, row.n, row.k, row.d).normals)
        if REGISTRY[row.scheme].milstein:
            db_lvl, iq_lvl = level_arrays[row.m]
            db_row = db_lvl[:, : row.k]
            iq_row = iq_lvl[:, : row.k, : row.k]
        else:
            db_row, _ = _aggregate(db_fine[:, : row.k], row.m)
            iq_row = None
        sq_errors[row_id] = _row_sq_errors(ctx, row, db_row, iq_row, ref_final,
                                           ref_captures, lattice, ledger, path)
        ledgers[row_id] = (ledger.functional_evals_f, ledger.functional_evals_b,
                           ledger.functional_evals_bprime, ledger.normal_draws)
    return path, sq_errors, ledgers


def _lattice_for(m_row: int, m_target: int) -> int:
    return m_row * max(1, -(-m_target // m_row))


def run_study(config: StudyConfig) -> StudyReport:
    """Run the Monte Carlo study and assemble the per-row report.

    Rows whose step count divides the reference step count share one
    lattice (and hence one coupled path family) per path; a row with an
    incompatible M gets its own lattice of at least the reference size,
    rounded to an exact multiple of the row's M.
    """
    problem = config.problem
    ref = config.reference
    q_milstein = problem.params.q_dfm

    lattice_of_row = {i: _lattice_for(row.m, ref.m) for i, row in enumerate(config.rows)}
    lattices = sorted(set(lattice_of_row.values()))
    total_steps = config.paths * sum(lattices)
    if total_steps > config.guardrail and not config.allow_big:
        raise ValueError(
            f"study would take ~{total_steps:.2e} fine steps; pass allow_big=True "
            f"or raise the guardrail to run it")

    row_sq: Dict[int, np.ndarray] = {}
    row_ledger: Dict[int, Tuple[int, int, int, int]] = {}
    for gid, lattice in enumerate(lattices):
        group_rows = tuple((i, row) for i, row in enumerate(config.rows)
                           if lattice_of_row[i] == lattice)
        ref_d = ref.d
        if REGISTRY[ref.kind].milstein and ref_d is None:
            ref_d = choose_D1(lattice, q_milstein)
        ctx = _GroupContext(problem=problem,
                            reference=replace(ref, m=lattice, d=ref_d),
                            lattice_m=lattice, rows=group_rows,
                            seed=config.seed, gid=gid,
                            error_at=config.error_at,
                            error_space=config.error_space,
                            q_milstein=q_milstein)
        args = [(ctx, p) for p in range(config.paths)]
        if config.workers == 1:
            results = [_run_group_path(a) for a in args]
        else:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(_run_group_path, args,
                                        chunksize=max(1, config.paths // (4 * config.workers))))
        results.sort(key=lambda t: t[0])
        for row_id, _ in group_rows:
            stacked = np.stack([res[1][row_id] for res in results])
            row_sq[row_id] = stacked
            row_ledger[row_id] = results[0][2][row_id]

    report_rows = []
    for row_id, row in enumerate(config.rows):
        stacked = row_sq[row_id]                      # (paths, grid points)
        mean_per_point = stacked.mean(axis=0)
        at = int(np.argmax(mean_per_point))
        error, std = estimate_ms_error(stacked[:, at])
        cf = cost_formula(row.scheme, row.n, row.k, row.m, q_milstein)
        led = row_ledger[row_id]
        report_rows.append(ReportRow(
            scheme=row.scheme, n=row.n, m=row.m, k=row.k, d=row.d,
            cost_formula=cf, cost_ledger=int(sum(led)),
            error=error, std=std, paths=config.paths))

    echo = {
        "problem": problem.name,
        "horizon": problem.horizon,
        "params": {name: str(getattr(problem.params, name))
                   for name in ("beta", "gamma", "delta", "alpha", "rho_a", "rho_q")},
        "reference": {"kind": ref.kind, "N": ref.n, "K": ref.k, "M": ref.m,
                      "D": ref.d if ref.d is not None else "auto"},
        "rows": [{"scheme": r.scheme, "N": r.n, "M": r.m, "K": r.k, "D": r.d}
                 for r in config.rows],
        "lattices": {str(i): lattice_of_row[i] for i in range(len(config.rows))},
        "paths": config.paths,
        "seed": config.seed,
        "error_at": config.error_at,
        "error_space": config.error_space,
    }
    return StudyReport(rows=tuple(report_rows), config_echo=echo)


def estimate_sup_second_moment(problem: ProblemSpec, kind: str, n: int, k: int,
                               m: int, paths: int, seed: int,
                               r: Optional[float] = None,
                               d: Optional[int] = None) -> float:
    """Monte Carlo estimate of max over grid points of E |Y_step|^2 in the
    fractional norm of order r (default: the problem's delta)."""
    kind = canonical_kind(kind)
    milstein = REGISTRY[kind].milstein
    if r is None:
        r = float(problem.params.delta)
    if milstein and d is None:
        d = choose_D1(m, problem.params.q_dfm)
    h = problem.horizon / m
    eta = problem.q_law.values(k)
    weights = problem.a_law.values(n) ** (2.0 * r)
    cfg = SchemeConfig(kind=kind, n=n, k=k, m=m, d=d if milstein else None,
                       horizon=problem.horizon)
    acc = np.zeros(m + 1)
    for path in range(paths):
        rng_inc = substream(seed, 71, m, path, 1)
        rng_series = substream(seed, 71, m, path, 2)
        db = sample_increments_batch(rng_inc, m, k, h)
        iq = alg1_iterated_batch(rng_series, db, h, d, eta) if milstein else None
        traj = integrate(cfg, problem, db, iq, store="trajectory")
        acc += (traj**2 * weights[None, :]).sum(axis=1)
    return float((acc / paths).max())
