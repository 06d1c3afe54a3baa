"""Theoretical cost model and run instrumentation.

Cost is counted in evaluations of real-valued functionals (coefficients of
the drift, diffusion or diffusion-derivative against basis elements) plus
standard normal draws, each at unit cost. The closed-form per-run totals
are

    DFM + series integrals:  M N + 2 M N K + M K (1 + 2 M^(2q-1))
    MIL + series integrals:  M N + M N K + M N^2 K + M K (1 + 2 M^(2q-1))
    EES / LIE:               M N + M N K + M K

taken at the exact rational power M^(2q-1), with one final ceiling decided
in integer arithmetic (`exactmath.ceil_power`). The ledger of an actual run
uses the integer series depth D = ceil(M^(2q-1)) instead, so the two totals
are reported separately. The per-step functional evaluations of every kind
come from `schemes.Scheme.evals`, which also bills the ledger of every
`integrate` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from typing import Optional

from .exactmath import _check_integers, ceil_power
from .schemes import REGISTRY, canonical_kind

__all__ = ["CostLedger", "StepCounts", "cost_formula", "ledger_expected"]


@dataclass
class CostLedger:
    """Mutable evaluation counters for one integration run.

    Counters only ever increase. unit_ops tracks diagonal linear-operator
    applications (semigroup / resolvent coefficients) for information only;
    it does not enter the per-step expectation contract.
    """

    functional_evals_f: int = 0
    functional_evals_b: int = 0
    functional_evals_bprime: int = 0
    normal_draws: int = 0
    unit_ops: int = 0

    def charge_f(self, n: int) -> None:
        self.functional_evals_f += n

    def charge_b(self, n: int) -> None:
        self.functional_evals_b += n

    def charge_bprime(self, n: int) -> None:
        self.functional_evals_bprime += n

    def charge_normals(self, n: int) -> None:
        self.normal_draws += n

    def charge_unit(self, n: int) -> None:
        self.unit_ops += n

    def total(self) -> int:
        """Model cost: functional evaluations plus draws, each at unit cost."""
        return (self.functional_evals_f + self.functional_evals_b
                + self.functional_evals_bprime + self.normal_draws)


@dataclass(frozen=True)
class StepCounts:
    """Per-step evaluation counts expected for a scheme."""

    f: int
    b: int
    bprime: int
    normals: int

    def total(self) -> int:
        return self.f + self.b + self.bprime + self.normals


def cost_formula(kind: str, n: int, k: int, m: int,
                 q: Optional[Rational] = None) -> int:
    """Closed-form per-run cost, ceiling applied once to the full total.

    q (the temporal order) is required for the Milstein-type schemes, where
    the series-depth term M^(2q-1) enters, and must be an exact rational.
    Every other term is an integer, so the one ceiling is that of the depth
    term 2 M K M^(2q-1), decided exactly by `exactmath.ceil_power`.
    """
    scheme = REGISTRY[canonical_kind(kind)]
    _check_integers(N=n, K=k, M=m)
    if min(n, k, m) < 1:
        raise ValueError("resolutions must be positive")
    base = m * sum(scheme.evals(n, k)) + m * k
    if not scheme.milstein:
        return base
    if q is None:
        raise ValueError("Milstein-type cost needs the temporal order q")
    return base + ceil_power(m, 2 * q - 1, scale=2 * m * k)


def ledger_expected(kind: str, n: int, k: int, d: Optional[int] = None) -> StepCounts:
    """Expected per-step counts for one time step of a scheme.

    d is the integer series depth and is required for the Milstein-type
    schemes (their packets cost K(1+2D) draws per step); Euler-type schemes
    draw only the K increments.
    """
    scheme = REGISTRY[canonical_kind(kind)]
    _check_integers(N=n, K=k, D=d)
    if min(n, k) < 1:
        raise ValueError("resolutions must be positive")
    normals = k
    if scheme.milstein:
        if d is None or d < 1:
            raise ValueError("Milstein-type schemes need a series depth d >= 1")
        normals = k * (1 + 2 * d)
    f, b, bprime = scheme.evals(n, k)
    return StepCounts(f=f, b=b, bprime=bprime, normals=normals)
