"""Theoretical cost model and run instrumentation.

Cost is counted in evaluations of real-valued functionals (coefficients of
the drift, diffusion or diffusion-derivative against basis elements) plus
standard normal draws, each at unit cost. The closed-form per-run totals
are

    DFM + series integrals:  M N + 2 M N K + M K (1 + 2 M^(2q-1))
    MIL + series integrals:  M N + M N K + M N^2 K + M K (1 + 2 M^(2q-1))
    EES / LIE:               M N + M N K + M K

evaluated with the real-valued power and a single final ceiling. The
instrumented ledger of an actual run uses the integer series depth
D = ceil(M^(2q-1)) instead, so the two totals are reported separately.
The per-step counts of every kind are read from `schemes.REGISTRY`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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

    def total(self, c: int = 1) -> int:
        """Model cost: functional evaluations at cost c each plus draws."""
        funcs = (self.functional_evals_f + self.functional_evals_b
                 + self.functional_evals_bprime)
        return c * funcs + self.normal_draws


@dataclass(frozen=True)
class StepCounts:
    """Per-step evaluation counts expected for a scheme."""

    f: int
    b: int
    bprime: int
    normals: int

    def total(self, c: int = 1) -> int:
        return c * (self.f + self.b + self.bprime) + self.normals


def _exact_int_power(m: int, e: Fraction) -> Optional[int]:
    # m**e when it is an exact integer, else None
    if e == 0:
        return 1
    if e < 0:
        return None
    p, q = e.numerator, e.denominator
    target = m**p
    r = max(1, int(round(float(target) ** (1.0 / q))))
    for cand in (r - 1, r, r + 1):
        if cand >= 1 and cand**q == target:
            return cand
    return None


def cost_formula(kind: str, n: int, k: int, m: int,
                 q: Union[Fraction, float, None] = None) -> int:
    """Closed-form per-run cost, ceiling applied once to the full total.

    q (the temporal order) is required for the Milstein-type schemes, where
    the series-depth term M^(2q-1) enters; exact rationals keep perfectly
    representable powers exact.
    """
    scheme = REGISTRY[canonical_kind(kind)]
    if min(n, k, m) < 1:
        raise ValueError("resolutions must be positive")
    base = m * (n + scheme.b_per_nk * n * k + scheme.bprime_per_n2k * n * n * k)
    if not scheme.milstein:
        return base + m * k
    if q is None:
        raise ValueError("Milstein-type cost needs the temporal order q")
    if isinstance(q, Fraction):
        e = 2 * q - 1
        t_exact = _exact_int_power(m, e)
        if t_exact is not None:
            return base + m * k * (1 + 2 * t_exact)
        t = float(m) ** float(e)
    else:
        t = float(m) ** (2.0 * float(q) - 1.0)
    total = base + m * k * (1.0 + 2.0 * t)
    return math.ceil(total - 1e-9 * max(1.0, total))


def ledger_expected(kind: str, n: int, k: int, d: Optional[int] = None) -> StepCounts:
    """Expected per-step counts for one time step of a scheme.

    d is the integer series depth and is required for the Milstein-type
    schemes (their packets cost K(1+2D) draws per step); Euler-type schemes
    draw only the K increments.
    """
    scheme = REGISTRY[canonical_kind(kind)]
    normals = k
    if scheme.milstein:
        if d is None or d < 1:
            raise ValueError("Milstein-type schemes need a series depth d >= 1")
        normals = k * (1 + 2 * d)
    return StepCounts(f=n, b=scheme.b_per_nk * k * n,
                      bprime=scheme.bprime_per_n2k * k * n * n, normals=normals)
