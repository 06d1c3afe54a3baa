"""Effective-order-of-convergence planner, in exact rational arithmetic.

Given the regularity exponents of a problem, the error of a scheme at
resolutions (N, K, M) behaves like N^(-g) + K^(-a) + M^(-q), with
g = gamma*rho_A, a = alpha*rho_Q and q the scheme's temporal order.
Balancing the terms at an error e sets N = e^(-1/g), K = e^(-1/a) and
M = e^(-1/q), and one run then costs

    the step sweep  M N^nu K = e^(-S),  S = 1/q + nu/g + kappa/a,
    the series      M^(2q) K = e^(-C),  C = 2 + kappa/a.

nu is the highest power of N in the kind's per-step evaluations
(`Scheme.evals`): 2 when a step evaluates the derivative b', else 1.
kappa is 0 for finite-dimensional noise, whose K is fixed, and 1
otherwise. The series term applies to the Milstein-type kinds, which
draw their iterated integrals at depth M^(2q-1); C = 0 for the others.
So the error is O(cost^(-theta)) with the effective order
theta = 1 / max(S, C), and the growth relations between M, N and K
follow. `classify` names the paper's four regimes, decided by ordered
conditions on g and the Milstein order q; ties on a boundary are
assigned to the earlier row (the exponent formulas agree there, so the
choice is unobservable).

All arithmetic is exact; floats appear nowhere, and integer resolutions
are rounded from rational powers by exact integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .exactmath import _check_integers, ceil_power
from .noise import choose_D1
from .problems import ProblemSpec, _check_exponents, _rational, temporal_order
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
            object.__setattr__(self, name, _rational(name, getattr(self, name)))
        object.__setattr__(self, "scheme", canonical_kind(self.scheme))
        _check_exponents(self.beta, self.gamma, self.alpha, self.rho_a, self.rho_q)

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


def eoc_exponent(plan: PlanInput) -> Fraction:
    """Exact effective order theta = 1 / max(S, C) of the plan's scheme
    (module docstring). It is at most 1/2 for every kind: C >= 2 for the
    Milstein-type ones, and the Euler-type ones' q is at most 1/2. DFM's is
    the largest of the four: nu = 1 makes its S no larger than MIL's, and
    the Euler-type S exceeds both DFM's S and its C."""
    g = plan.gamma * plan.rho_a
    a = plan.alpha * plan.rho_q
    scheme = REGISTRY[plan.scheme]
    kappa = 0 if plan.finite_dim_noise else 1
    nu = 2 if scheme.bprime_per_n2k else 1
    sweep = 1 / plan.q + nu / g + kappa / a
    series = 2 + kappa / a if scheme.milstein else 0
    return 1 / max(sweep, series)


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
    _check_integers(anchor_n=anchor_n)
    if anchor_n < 1:
        raise ValueError(f"anchor_n must be >= 1, got {anchor_n}")
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
