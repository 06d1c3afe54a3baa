"""SPDE problem definitions.

A problem bundles the eigenvalue laws of the linear drift and covariance
operators, the nonlinear drift, the diffusion operator (as a map from a
state to the columns of its matrix representation), an optional diffusion
derivative, an initial value, and the regularity exponents that drive the
convergence-order and planning formulas.

States are plain coefficient arrays in the eigenbasis of the linear drift
operator, (n,) or with a leading path axis (P, n); drift and diffusion act
on them directly, and the numerical checks (`commutativity_defect`,
`check_growth_bounds`) take (n,) arrays too.

The three shipped examples use the sine basis on (0,1) for both the state
and the noise space, a rational-decay diffusion that does not commute, and
regularity exponents taken in the limit of vanishing slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .spectral import EigenLaw

__all__ = [
    "RegularityParams",
    "temporal_order",
    "ProblemSpec",
    "GrowthBoundReport",
    "AffineDrift",
    "SpectralSineDrift",
    "ZeroDrift",
    "RationalDecayDiffusion",
    "ZeroDiffusion",
    "ZeroInitial",
    "PowerLawInitial",
    "make_example",
    "make_problem_from_config",
    "commutativity_defect",
    "check_growth_bounds",
]

RationalLike = Union[Fraction, int, str]


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def temporal_order(gamma: Fraction, beta: Fraction, milstein: bool) -> Fraction:
    """Temporal order q = min(2(gamma-beta), gamma) of the Milstein-type
    schemes; the Euler-type schemes are further capped at 1/2."""
    q = min(2 * (gamma - beta), gamma)
    return q if milstein else min(Fraction(1, 2), q)


@dataclass(frozen=True)
class RegularityParams:
    """Regularity exponents of a problem, kept as exact rationals.

    The temporal orders are derived by `temporal_order`. Upper interval
    ends are accepted closed because the shipped examples sit at the
    vanishing-slack limit.
    """

    beta: Fraction
    gamma: Fraction
    delta: Fraction
    alpha: Fraction
    rho_a: Fraction
    rho_q: Fraction

    def __post_init__(self):
        for name in ("beta", "gamma", "delta", "alpha", "rho_a", "rho_q"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        beta, gamma, delta = self.beta, self.gamma, self.delta
        if not (0 <= beta < 1):
            raise ValueError("beta must lie in [0,1)")
        if not (0 < delta <= Fraction(1, 2)):
            raise ValueError("delta must lie in (0,1/2]")
        if not (max(beta, delta) <= gamma <= delta + Fraction(1, 2)):
            raise ValueError("gamma must lie in [max(beta,delta), delta+1/2]")
        if gamma <= beta:
            # q = min(2(gamma-beta), gamma) would vanish
            raise ValueError("gamma must exceed beta and be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.rho_q <= 1:
            raise ValueError("rho_q must exceed 1 for a trace-class covariance")
        if self.rho_a <= 0:
            raise ValueError("rho_a must be positive")

    @property
    def q_dfm(self) -> Fraction:
        return temporal_order(self.gamma, self.beta, milstein=True)


# --- drift variants -------------------------------------------------------
# Drifts and diffusions take a state with an optional leading path axis,
# (N,) or (P, N), and keep their per-dimension constants in a cache filled
# on first use, so a step loop computes them once.

def _constants():
    """Dataclass field for a per-instance cache of step constants."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


def _cached(cache: dict, make, *args):
    """make(*args), computed on the first call for these arguments."""
    key = (make.__name__,) + args
    value = cache.get(key)
    if value is None:
        value = cache[key] = make(*args)
    return value


@dataclass(frozen=True)
class AffineDrift:
    """F(y) = 1 - y in the sine basis.

    The coefficients of the constant function 1 are analytic:
    <1, e_i> = sqrt(2)(1 - (-1)^i)/(i pi), i.e. 2*sqrt(2)/(i pi) for odd i
    and 0 for even i.
    """

    _cache: dict = _constants()

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return _cached(self._cache, self._ones, y.shape[-1]) - y

    @staticmethod
    def _ones(n: int) -> np.ndarray:
        idx = np.arange(1, n + 1)
        return np.sqrt(2.0) * (1.0 - (-1.0) ** idx) / (idx * np.pi)


@dataclass(frozen=True)
class SpectralSineDrift:
    """Componentwise drift i^(-s) * sin(i^r * y_i); globally bounded for s > 1/2."""

    s: float
    r: float
    _cache: dict = _constants()

    def __call__(self, y: np.ndarray) -> np.ndarray:
        scale, freq = _cached(self._cache, self._powers, y.shape[-1])
        return scale * np.sin(freq * y)

    def _powers(self, n: int):
        idx = np.arange(1.0, n + 1.0)
        return idx**-self.s, idx**self.r


@dataclass(frozen=True)
class ZeroDrift:
    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.zeros_like(y)


# --- diffusion variants ---------------------------------------------------

class DiffusionBase:
    """Interface for the diffusion operator in matrix-column form.

    States carry an optional leading path axis. column(y, j, n) is the
    n-vector of coefficients of the operator applied to the j-th noise
    basis element, (..., n). matrix(y, n, k) stacks columns 1..k,
    (..., n, k). stage_columns(stages, n) evaluates column j of the
    operator at a per-column state (row j of `stages`, which is
    (..., k, n)). deriv_column(y, v, j, n) is the derivative at y in
    direction v applied to the j-th noise basis element, (..., n); subclasses
    that provide it set has_derivative. j may also be a sequence of column
    indices: v then carries one direction per index, (..., len(j), n), row
    i pairing with j[i], and the call returns those columns at once,
    (..., len(j), n), row i equal bit for bit to the single call with j[i]
    and row i of v.
    """

    has_derivative = False

    def deriv_column(self, y: np.ndarray, v: np.ndarray, j, n: int) -> np.ndarray:
        raise NotImplementedError("this diffusion does not provide a derivative")


@dataclass(frozen=True)
class RationalDecayDiffusion(DiffusionBase):
    """Diffusion with matrix entries y_j / (i^p + j^4).

    Linear in the state, hence its derivative in direction v applied to the
    j-th noise basis element is the j-th column evaluated at v. The induced
    operator does not commute: swapping the two noise directions in the
    second-order term changes the value.
    """

    p: float
    _cache: dict = _constants()

    has_derivative = True

    def _column_denom(self, n: int, j: int) -> np.ndarray:
        # (n,) denominators i^p + j^4 of column j
        return np.arange(1.0, n + 1.0) ** self.p + float(j) ** 4

    def _deriv_plan(self, n: int, cols: tuple, width: int):
        # row r of a sequence call reads coefficient cols[r] of direction r
        # and divides by the (n,) denominators of column cols[r]
        if not all(1 <= j <= width for j in cols):
            raise ValueError(f"noise columns {cols} outside 1..{width}")
        return (np.arange(len(cols)), np.array(cols) - 1,
                np.stack([self._column_denom(n, j) for j in cols]))

    def _inv_denom(self, n: int, k: int) -> np.ndarray:
        # (n, k) reciprocals 1 / (i^p + j^4)
        i = np.arange(1.0, n + 1.0)[:, None]
        j = np.arange(1.0, k + 1.0)[None, :]
        return 1.0 / (i**self.p + j**4)

    def column(self, y: np.ndarray, j: int, n: int) -> np.ndarray:
        if not 1 <= j <= y.shape[-1]:
            raise ValueError(f"noise column {j} outside 1..{y.shape[-1]}")
        return y[..., j - 1, None] / _cached(self._cache, self._column_denom, n, j)

    def matrix(self, y: np.ndarray, n: int, k: int) -> np.ndarray:
        if k > y.shape[-1]:
            raise ValueError("noise dimension exceeds state dimension")
        return _cached(self._cache, self._inv_denom, n, k) * y[..., None, :k]

    def stage_columns(self, stages: np.ndarray, n: int) -> np.ndarray:
        k = stages.shape[-2]
        # column j only reads coefficient j of its own stage state
        diag = stages[..., np.arange(k), np.arange(k)]
        return _cached(self._cache, self._inv_denom, n, k) * diag[..., None, :]

    def deriv_column(self, y: np.ndarray, v: np.ndarray, j, n: int) -> np.ndarray:
        if isinstance(j, (int, np.integer)):
            return self.column(v, j, n)
        rows, coeffs, denoms = _cached(self._cache, self._deriv_plan, n, tuple(j), v.shape[-1])
        return v[..., rows, coeffs][..., None] / denoms


@dataclass(frozen=True)
class ZeroDiffusion(DiffusionBase):
    has_derivative = True

    def column(self, y: np.ndarray, j: int, n: int) -> np.ndarray:
        return np.zeros(y.shape[:-1] + (n,))

    def matrix(self, y: np.ndarray, n: int, k: int) -> np.ndarray:
        return np.zeros(y.shape[:-1] + (n, k))

    def stage_columns(self, stages: np.ndarray, n: int) -> np.ndarray:
        return np.zeros(stages.shape[:-2] + (n, stages.shape[-2]))

    def deriv_column(self, y, v, j, n):
        return np.zeros(y.shape[:-1] + np.shape(j) + (n,))


# --- initial values -------------------------------------------------------

@dataclass(frozen=True)
class ZeroInitial:
    def coeffs(self, n: int) -> np.ndarray:
        return np.zeros(n)


@dataclass(frozen=True)
class PowerLawInitial:
    """Initial coefficients i^(-exponent)."""

    exponent: float

    def coeffs(self, n: int) -> np.ndarray:
        return np.arange(1.0, n + 1.0) ** -self.exponent


# --- the problem container ------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A fully parameterized SPDE instance in spectral coordinates."""

    name: str
    a_law: EigenLaw
    q_law: EigenLaw
    drift: object
    diffusion: DiffusionBase
    initial: object
    params: RegularityParams
    horizon: float = 1.0

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"time horizon must be positive and finite, got {self.horizon}")

    def initial_coeffs(self, n: int) -> np.ndarray:
        return np.asarray(self.initial.coeffs(n), dtype=float)


def make_example(example_id: int) -> ProblemSpec:
    """The three shipped problem instances, slack exponents sent to zero.

    1: affine drift, p=4/3 -> (beta, gamma, delta, alpha, q) =
       (0, 7/8, 3/8, 9/4, 7/8).
    2: affine drift, p=44/41 -> (0, 17/24, 5/24, 77/36, 17/24).
    3: bounded sine drift with s=r=7/2, p=4, initial coefficients i^-2 ->
       (7/8, 1, 1/2, 7/3, 1/4).
    All use the scaled Dirichlet Laplacian (rho_a=2), cubic-decay covariance
    (rho_q=3) and unit horizon.
    """
    a_law = EigenLaw.laplacian(scale=0.01)
    q_law = EigenLaw.power_decay(rho=3.0)
    if example_id == 1:
        params = RegularityParams(
            beta=Fraction(0), gamma=Fraction(7, 8), delta=Fraction(3, 8),
            alpha=Fraction(9, 4), rho_a=Fraction(2), rho_q=Fraction(3))
        return ProblemSpec("example-1", a_law, q_law, AffineDrift(),
                           RationalDecayDiffusion(p=4.0 / 3.0), ZeroInitial(), params)
    if example_id == 2:
        params = RegularityParams(
            beta=Fraction(0), gamma=Fraction(17, 24), delta=Fraction(5, 24),
            alpha=Fraction(77, 36), rho_a=Fraction(2), rho_q=Fraction(3))
        return ProblemSpec("example-2", a_law, q_law, AffineDrift(),
                           RationalDecayDiffusion(p=44.0 / 41.0), ZeroInitial(), params)
    if example_id == 3:
        params = RegularityParams(
            beta=Fraction(7, 8), gamma=Fraction(1), delta=Fraction(1, 2),
            alpha=Fraction(7, 3), rho_a=Fraction(2), rho_q=Fraction(3))
        return ProblemSpec("example-3", a_law, q_law,
                           SpectralSineDrift(s=3.5, r=3.5),
                           RationalDecayDiffusion(p=4.0),
                           PowerLawInitial(exponent=2.0), params)
    raise ValueError(f"unknown example id {example_id!r} (expected 1, 2 or 3)")


_DRIFTS = {"affine": AffineDrift, "spectral_sine": SpectralSineDrift, "zero": ZeroDrift}
_CONFIG_REQUIRED = ("p", "rho_q", "gamma", "delta", "alpha")
_CONFIG_OPTIONAL = ("beta", "rho_a", "drift", "s", "r", "initial", "horizon",
                    "a_scale", "name")


def make_problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a custom problem from a plain dict (e.g. parsed JSON).

    Required keys: p, rho_q, gamma, delta, alpha. Optional: beta, rho_a,
    drift ("affine" | "spectral_sine" | "zero"; the sine drift also
    requires s and r), initial ("zero" or {"power": exponent}), horizon,
    a_scale, name. Exponents are exact rationals as strings or numbers.
    Unknown or missing keys raise ValueError.
    """
    accepted = ", ".join(_CONFIG_REQUIRED + _CONFIG_OPTIONAL)
    unknown = sorted(set(cfg) - set(_CONFIG_REQUIRED + _CONFIG_OPTIONAL))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; accepted: {accepted}")
    required = _CONFIG_REQUIRED
    if cfg.get("drift") == "spectral_sine":
        required += ("s", "r")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"missing config key(s) {', '.join(missing)}; accepted: {accepted}")
    params = RegularityParams(
        beta=_frac(cfg.get("beta", 0)), gamma=_frac(cfg["gamma"]),
        delta=_frac(cfg["delta"]), alpha=_frac(cfg["alpha"]),
        rho_a=_frac(cfg.get("rho_a", 2)), rho_q=_frac(cfg["rho_q"]))
    drift_kind = cfg.get("drift", "affine")
    if drift_kind == "spectral_sine":
        drift = SpectralSineDrift(s=float(_frac(cfg["s"])), r=float(_frac(cfg["r"])))
    elif drift_kind in _DRIFTS:
        drift = _DRIFTS[drift_kind]()
    else:
        raise ValueError(f"unknown drift variant {drift_kind!r}")
    initial_cfg = cfg.get("initial", "zero")
    if initial_cfg == "zero":
        initial = ZeroInitial()
    elif isinstance(initial_cfg, dict) and "power" in initial_cfg:
        initial = PowerLawInitial(exponent=float(initial_cfg["power"]))
    else:
        raise ValueError(f"unknown initial-value law {initial_cfg!r}")
    return ProblemSpec(
        name=cfg.get("name", "custom"),
        a_law=EigenLaw.laplacian(scale=float(cfg.get("a_scale", 0.01))),
        q_law=EigenLaw.power_decay(rho=float(_frac(cfg["rho_q"]))),
        drift=drift,
        diffusion=RationalDecayDiffusion(p=float(_frac(cfg["p"]))),
        initial=initial,
        params=params,
        horizon=float(cfg.get("horizon", 1.0)))


# --- numerical checks -----------------------------------------------------

def commutativity_defect(problem: ProblemSpec, y: np.ndarray,
                         n: int, k: int) -> float:
    """Worst-case asymmetry of the second-order noise term at the (n,)
    coefficient vector y.

    Returns max over pairs (m, n_) <= k of the Euclidean norm of
    deriv(y)(column_m(y), n_) - deriv(y)(column_n_(y), m), columns projected
    to dimension n. Zero exactly when the noise term commutes on the
    truncated spaces.
    """
    if k > n:
        raise ValueError("noise truncation must not exceed state truncation")
    diff = problem.diffusion
    y = np.asarray(y, dtype=float)
    cols = [diff.column(y, j, n) for j in range(1, k + 1)]
    worst = 0.0
    for m in range(1, k + 1):
        for n_ in range(m + 1, k + 1):
            lhs = diff.deriv_column(y, cols[m - 1], n_, n)
            rhs = diff.deriv_column(y, cols[n_ - 1], m, n)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


@dataclass(frozen=True)
class GrowthBoundReport:
    """Sampled linear-growth ratios of the diffusion operator norm."""

    ratios: np.ndarray
    max_ratio: float
    n: int
    k: int


def check_growth_bounds(problem: ProblemSpec, samples: list,
                        n: int, k: int) -> GrowthBoundReport:
    """Numerically probe the linear growth bound of the diffusion.

    For each (n,) coefficient vector y in samples, computes the operator
    norm of the truncated diffusion matrix measured into the delta-smoothed
    state norm and divides by (1 + |y| in that norm). A finite-truncation
    sanity check, not a proof; the dense-matrix 2-norm is the oracle.
    """
    weights = problem.a_law.values(n) ** float(problem.params.delta)
    ratios = []
    for y in samples:
        y = np.asarray(y, dtype=float)
        if y.shape != (n,):
            raise ValueError(f"sample has shape {y.shape}, expected ({n},)")
        mat = problem.diffusion.matrix(y, n, k)
        op_norm = float(np.linalg.norm(weights[:, None] * mat, 2))
        y_norm = float(np.sqrt(np.sum(weights**2 * y**2)))
        ratios.append(op_norm / (1.0 + y_norm))
    arr = np.asarray(ratios)
    return GrowthBoundReport(ratios=arr, max_ratio=float(arr.max(initial=0.0)), n=n, k=k)
