"""Effective-order-of-convergence planner, in exact rational arithmetic.

Given the regularity exponents of a problem, the error of a scheme at
resolutions (N, K, M) behaves like N^(-gamma rho_A) + K^(-alpha rho_Q)
+ M^(-q). Minimizing this under a budget on the per-run cost yields, for
each scheme, an exponent theta with error = O(budget^(-theta)) -- the
effective order -- together with the optimal growth relations between M,
N and K. Which regime applies is decided by four ordered conditions on
g = gamma*rho_A and q; ties on a boundary are assigned to the earlier row
(the exponent formulas agree there, so the choice is unobservable).

All arithmetic is exact; floats appear nowhere, and integer resolutions
are rounded from rational powers by exact integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .exactmath import ceil_power
from .noise import choose_D1
from .problems import ProblemSpec, temporal_order
from .schemes import REGISTRY, canonical_kind

__all__ = ["PlanInput", "Classification", "Resolution", "classify",
           "eoc_exponent", "optimal_resolution"]


@dataclass(frozen=True)
class PlanInput:
    """Exact planning parameters for one scheme on one problem."""

    gamma: Fraction
    beta: Fraction
    alpha: Fraction
    rho_a: Fraction
    rho_q: Fraction
    scheme: str = "DFM"
    finite_dim_noise: bool = False

    def __post_init__(self):
        for name in ("gamma", "beta", "alpha", "rho_a", "rho_q"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        object.__setattr__(self, "scheme", canonical_kind(self.scheme))
        if not (0 <= self.beta < 1):
            raise ValueError("beta must lie in [0,1)")
        if self.gamma <= self.beta or self.gamma <= 0:
            raise ValueError("gamma must exceed beta and be positive")
        if self.alpha <= 0 or self.rho_a <= 0:
            raise ValueError("alpha and rho_a must be positive")
        if self.rho_q <= 1:
            raise ValueError("rho_q must exceed 1")

    @classmethod
    def from_problem(cls, problem: ProblemSpec, scheme: str = "DFM",
                     finite_dim_noise: bool = False) -> "PlanInput":
        params = problem.params
        return cls(gamma=params.gamma, beta=params.beta, alpha=params.alpha,
                   rho_a=params.rho_a, rho_q=params.rho_q, scheme=scheme,
                   finite_dim_noise=finite_dim_noise)

    @property
    def q_milstein(self) -> Fraction:
        return temporal_order(self.gamma, self.beta, milstein=True)

    @property
    def q(self) -> Fraction:
        """Temporal order of this input's scheme."""
        return temporal_order(self.gamma, self.beta, REGISTRY[self.scheme].milstein)


@dataclass(frozen=True)
class Classification:
    row: int
    label: str
    optimal: Tuple[str, ...]


_ROWS = (
    (1, "q <= 1/2", ("DFM", "EES")),
    (2, "g(2q-1) <= q and q > 1/2", ("DFM",)),
    (3, "q <= g(2q-1) <= 2q", ("DFM",)),
    (4, "2q <= g(2q-1)", ("DFM", "MIL")),
)


def classify(plan: PlanInput) -> Classification:
    """Match the first applicable regime row (g = gamma*rho_A, q the
    Milstein temporal order) and return it with its optimal scheme set."""
    q = plan.q_milstein
    g = plan.gamma * plan.rho_a
    half = Fraction(1, 2)
    if q <= half:
        row = 1
    elif g * (2 * q - 1) <= q:
        row = 2
    elif g * (2 * q - 1) <= 2 * q:
        row = 3
    else:
        row = 4
    idx, label, optimal = _ROWS[row - 1]
    return Classification(row=idx, label=label, optimal=optimal)


def _balanced(g: Fraction, a: Fraction, q: Fraction) -> Fraction:
    # g*a*q / ((a+g) q + a*g): cost dominated by the M N K sweep
    return g * a * q / ((a + g) * q + a * g)


def _mil_balanced(g: Fraction, a: Fraction, q: Fraction) -> Fraction:
    # g*a*q / ((2a+g) q + a*g): cost dominated by the M N^2 K sweep
    return g * a * q / ((2 * a + g) * q + a * g)


def _series_capped(a: Fraction) -> Fraction:
    # a / (2a + 1): cost dominated by the series-depth draws
    return a / (2 * a + 1)


def eoc_exponent(plan: PlanInput) -> Fraction:
    """Exact effective order for the plan's scheme in its regime.

    Bounded by 1/2 whenever the series integral simulator is involved; the
    derivative-free scheme dominates the other schemes for every admissible
    parameter set.
    """
    g = plan.gamma * plan.rho_a
    a = plan.alpha * plan.rho_q
    q = plan.q
    scheme = plan.scheme
    milstein = REGISTRY[scheme].milstein
    if plan.finite_dim_noise:
        if not milstein:
            return g * q / (g + q)
        if scheme == "DFM":
            return g * q / (g + q) if g * (2 * q - 1) <= q else Fraction(1, 2)
        return g * q / (g + 2 * q) if g * (2 * q - 1) <= 2 * q else Fraction(1, 2)
    if not milstein:
        return _balanced(g, a, q)
    if scheme == "DFM":
        return _balanced(g, a, q) if g * (2 * q - 1) <= q else _series_capped(a)
    return _mil_balanced(g, a, q) if g * (2 * q - 1) <= 2 * q else _series_capped(a)


@dataclass(frozen=True)
class Resolution:
    """Integer resolutions anchored at N, with the exact growth exponents."""

    n: int
    m: int
    k: Optional[int]
    d: Optional[int]
    m_exponent: Fraction
    k_exponent: Optional[Fraction]


def optimal_resolution(plan: PlanInput, anchor_n: int) -> Resolution:
    """Optimal (M, K, D) for a given N under the plan's regime.

    The balanced growth laws reduce, expressed through the N anchor, to
    M = ceil(N^(g/q)) and K = ceil(N^(g/a)) with g = gamma*rho_A and
    a = alpha*rho_Q, q the scheme's temporal order; rounding is exact.
    For finite-dimensional noise K is fixed externally and omitted. The
    series depth follows the order-preserving rule for the Milstein-type
    schemes and is omitted for the Euler-type ones.
    """
    if anchor_n < 1:
        raise ValueError("anchor dimension must be >= 1")
    g = plan.gamma * plan.rho_a
    a = plan.alpha * plan.rho_q
    q = plan.q
    e_m = g / q
    m = ceil_power(anchor_n, e_m)
    if plan.finite_dim_noise:
        k, e_k = None, None
    else:
        e_k = g / a
        k = ceil_power(anchor_n, e_k)
    d = choose_D1(m, q) if REGISTRY[plan.scheme].milstein else None
    return Resolution(n=anchor_n, m=m, k=k, d=d, m_exponent=e_m, k_exponent=e_k)
