"""SPDE problem definitions.

A problem bundles the eigenvalue laws of the linear drift and covariance
operators, the nonlinear drift, the diffusion operator (as the batched
evaluations of its matrix representation that the schemes ask for,
`DiffusionBase`), an optional diffusion derivative, an initial value, and
the regularity exponents that drive the convergence-order and planning
formulas.

States are plain coefficient arrays in the eigenbasis of the linear drift
operator, (n,) or with a leading path axis (P, n); drift and diffusion act
on them directly, and the numerical checks (`commutativity_defect`,
`check_growth_bounds`) take (n,) arrays too.

The three shipped examples are configs of `make_problem_from_config`: the
sine basis on (0,1) for both the state and the noise space, a
rational-decay diffusion that does not commute, and regularity exponents
taken in the limit of vanishing slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .exactmath import _check_integers
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


def _check_exponents(beta, gamma, alpha, rho_a, rho_q) -> None:
    """ValueError unless 0 <= beta < 1, gamma > beta, alpha > 0, rho_a > 0
    and rho_q > 1: the exponents the planner and a problem both need."""
    if not (0 <= beta < 1):
        raise ValueError("beta must lie in [0,1)")
    if gamma <= beta:
        # q = min(2(gamma-beta), gamma) would vanish
        raise ValueError("gamma must exceed beta and be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if rho_a <= 0:
        raise ValueError("rho_a must be positive")
    if rho_q <= 1:
        raise ValueError("rho_q must exceed 1 for a trace-class covariance")


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
        _check_exponents(self.beta, self.gamma, self.alpha, self.rho_a, self.rho_q)
        delta = self.delta
        if not (0 < delta <= Fraction(1, 2)):
            raise ValueError("delta must lie in (0,1/2]")
        if not (delta <= self.gamma <= delta + Fraction(1, 2)):
            raise ValueError("gamma must lie in [max(beta,delta), delta+1/2]")

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
    """Interface for the diffusion operator B in matrix form.

    States y carry an optional leading path axis, (..., n). Column j of
    B(y) holds the n coefficients of the operator applied to the j-th noise
    basis element e_j. The schemes ask three batched questions, the last two
    in K directions dirs, (..., K, n), row j the direction that pairs with
    e_{j+1}:

    matrix(y, n, k) is B(y), (..., n, k).
    stage_columns(y, dirs, n) holds column j of B at the stage state
    y + dirs[j] as its column j, (..., n, K) (the DFM stage values).
    deriv_column(y, dirs, n) holds B'(y)(dirs[j], e_{j+1}) as its row j,
    (..., K, n) (the MIL derivative terms); subclasses that provide it set
    has_derivative.

    K may not exceed n.
    """

    has_derivative = False

    def deriv_column(self, y: np.ndarray, dirs: np.ndarray, n: int) -> np.ndarray:
        raise NotImplementedError("this diffusion does not provide a derivative")


@dataclass(frozen=True)
class RationalDecayDiffusion(DiffusionBase):
    """Diffusion with matrix entries y_j / (i^p + j^4).

    Linear in the state, hence its derivative in direction v applied to the
    j-th noise basis element is the j-th column evaluated at v, and column
    j at a stage state reads only that state's coefficient j. The induced
    operator does not commute: swapping the two noise directions in the
    second-order term changes the value.
    """

    p: float
    _cache: dict = _constants()

    has_derivative = True

    def _denoms(self, n: int, k: int):
        # the (k, n) denominators i^p + j^4, row j - 1 for column j, and
        # their (n, k) reciprocals, C-ordered as the products below expect
        if k > n:
            raise ValueError(f"noise dimension {k} exceeds state dimension {n}")
        denom = np.arange(1.0, n + 1.0) ** self.p + np.arange(1.0, k + 1.0)[:, None] ** 4
        return denom, np.ascontiguousarray(1.0 / denom.T)

    def matrix(self, y: np.ndarray, n: int, k: int) -> np.ndarray:
        return _cached(self._cache, self._denoms, n, k)[1] * y[..., None, :k]

    def stage_columns(self, y: np.ndarray, dirs: np.ndarray, n: int) -> np.ndarray:
        k = dirs.shape[-2]
        inv = _cached(self._cache, self._denoms, n, k)[1]
        # column j reads coefficient j of its stage state y + dirs[j] alone
        diag = y[..., :k] + dirs[..., np.arange(k), np.arange(k)]
        return inv * diag[..., None, :]

    def deriv_column(self, y: np.ndarray, dirs: np.ndarray, n: int) -> np.ndarray:
        k = dirs.shape[-2]
        denom = _cached(self._cache, self._denoms, n, k)[0]
        return dirs[..., np.arange(k), np.arange(k), None] / denom


@dataclass(frozen=True)
class ZeroDiffusion(DiffusionBase):
    has_derivative = True

    def matrix(self, y: np.ndarray, n: int, k: int) -> np.ndarray:
        return np.zeros(y.shape[:-1] + (n, k))

    def stage_columns(self, y: np.ndarray, dirs: np.ndarray, n: int) -> np.ndarray:
        return np.zeros(dirs.shape[:-2] + (n, dirs.shape[-2]))

    def deriv_column(self, y: np.ndarray, dirs: np.ndarray, n: int) -> np.ndarray:
        return np.zeros(dirs.shape[:-1] + (n,))


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


# the shipped problem instances, as configs (`make_problem_from_config`)
_EXAMPLES = {
    1: {"name": "example-1", "p": "4/3", "rho_q": 3, "gamma": "7/8", "delta": "3/8",
        "alpha": "9/4"},
    2: {"name": "example-2", "p": "44/41", "rho_q": 3, "gamma": "17/24",
        "delta": "5/24", "alpha": "77/36"},
    3: {"name": "example-3", "p": 4, "rho_q": 3, "beta": "7/8", "gamma": 1,
        "delta": "1/2", "alpha": "7/3", "drift": "spectral_sine", "s": "7/2",
        "r": "7/2", "initial": {"power": 2}},
}


def make_example(example_id: int) -> ProblemSpec:
    """The three shipped problem instances, slack exponents sent to zero.

    1: affine drift, p=4/3 -> (beta, gamma, delta, alpha, q) =
       (0, 7/8, 3/8, 9/4, 7/8).
    2: affine drift, p=44/41 -> (0, 17/24, 5/24, 77/36, 17/24).
    3: bounded sine drift with s=r=7/2, p=4, initial coefficients i^-2 ->
       (7/8, 1, 1/2, 7/3, 1/4).
    All use the scaled Dirichlet Laplacian (rho_a=2), cubic-decay covariance
    (rho_q=3) and unit horizon, the defaults of `make_problem_from_config`.
    """
    try:
        _check_integers(example_id=example_id)
        cfg = _EXAMPLES[example_id]
    except (KeyError, ValueError):
        raise ValueError(f"unknown example id {example_id!r} "
                         "(example_id must be 1, 2 or 3)") from None
    return make_problem_from_config(cfg)


_DRIFTS = {"affine": AffineDrift, "spectral_sine": SpectralSineDrift, "zero": ZeroDrift}
_CONFIG_REQUIRED = ("p", "rho_q", "gamma", "delta", "alpha")
# the optional keys and their defaults; the sine drift requires s and r
_CONFIG_DEFAULTS = {"beta": 0, "rho_a": 2, "drift": "affine", "s": None, "r": None,
                    "initial": "zero", "horizon": 1.0, "a_scale": 0.01, "name": "custom"}


def _rational(name: str, value) -> Fraction:
    """value as a finite exact rational; ValueError naming it if not."""
    try:
        x = _frac(value)
        float(x)
        return x
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"{name} has an invalid value {value!r}") from None


def make_problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a custom problem from a plain dict (e.g. parsed JSON).

    Required keys: p, rho_q, gamma, delta, alpha. Optional: beta, rho_a,
    drift ("affine" | "spectral_sine" | "zero"; the sine drift also
    requires s and r), initial ("zero" or {"power": exponent}), horizon,
    a_scale, name. Numbers are exact rationals as strings or numbers.
    Anything else raises ValueError naming the key.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"a problem config must be a JSON object, got {type(cfg).__name__}")
    keys = _CONFIG_REQUIRED + tuple(_CONFIG_DEFAULTS)
    accepted = ", ".join(keys)
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; accepted: {accepted}")
    required = _CONFIG_REQUIRED
    if cfg.get("drift") == "spectral_sine":
        required += ("s", "r")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValueError(f"missing config key(s) {', '.join(missing)}; accepted: {accepted}")
    cfg = {**_CONFIG_DEFAULTS, **cfg}
    num = {key: _rational(f"config key {key}", cfg[key])
           for key in required + ("beta", "rho_a", "horizon", "a_scale")}
    params = RegularityParams(**{key: num[key] for key in
                                 ("beta", "gamma", "delta", "alpha", "rho_a", "rho_q")})
    drift_kind = cfg["drift"]
    if drift_kind == "spectral_sine":
        drift = SpectralSineDrift(s=float(num["s"]), r=float(num["r"]))
    elif isinstance(drift_kind, str) and drift_kind in _DRIFTS:
        drift = _DRIFTS[drift_kind]()
    else:
        raise ValueError(f"unknown drift variant {drift_kind!r}")
    initial_cfg = cfg["initial"]
    if initial_cfg == "zero":
        initial = ZeroInitial()
    elif isinstance(initial_cfg, dict) and set(initial_cfg) == {"power"}:
        initial = PowerLawInitial(float(_rational("config key initial.power", initial_cfg["power"])))
    else:
        raise ValueError(f"unknown initial-value law {initial_cfg!r}")
    return ProblemSpec(
        name=cfg["name"],
        a_law=EigenLaw.laplacian(scale=float(num["a_scale"])),
        q_law=EigenLaw.power_decay(rho=float(num["rho_q"])),
        drift=drift,
        diffusion=RationalDecayDiffusion(p=float(num["p"])),
        initial=initial,
        params=params,
        horizon=float(num["horizon"]))


# --- numerical checks -----------------------------------------------------

def commutativity_defect(problem: ProblemSpec, y: np.ndarray,
                         n: int, k: int) -> float:
    """Worst-case asymmetry of the second-order noise term at the (n,)
    coefficient vector y.

    Returns max over pairs (a, b) <= k of the Euclidean norm of
    B'(y)(column_a(y), e_b) - B'(y)(column_b(y), e_a), columns projected to
    dimension n. Zero exactly when the noise term commutes on the truncated
    spaces. One batched `deriv_column` call takes every pair.
    """
    if k > n:
        raise ValueError("noise truncation must not exceed state truncation")
    diff = problem.diffusion
    y = np.asarray(y, dtype=float)
    cols = diff.matrix(y, n, k).T                                # (k, n)
    # batch a repeats column a in all k directions: terms[a, b] = B'(y)(column_a, e_b)
    terms = diff.deriv_column(np.broadcast_to(y, (k,) + y.shape),
                              np.broadcast_to(cols[:, None], (k, k, n)), n)
    return float(np.linalg.norm(terms - np.swapaxes(terms, 0, 1), axis=-1).max())


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
