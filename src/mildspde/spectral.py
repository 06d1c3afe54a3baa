"""Closed-form eigenvalue laws of the diagonal operators.

Everything lives in the eigenbasis of the linear drift operator: a state is
a plain (n,) coefficient vector (or a (P, n) batch of them), the semigroup
and fractional powers act diagonally on it, and projection is truncation.
Eigenfunctions are never materialized; this module only supplies the
eigenvalue sequences the schemes, the harness and the planner read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EigenLaw"]


@dataclass(frozen=True)
class EigenLaw:
    """Closed-form eigenvalue sequence of a diagonal operator.

    kind "laplacian": values(n)[i-1] = scale * pi^2 * i^2, strictly
    increasing and bounded away from zero; used for the negative drift
    operator. kind "power": values(n)[j-1] = scale * j^(-rho), non-increasing
    and summable for rho > 1; used for covariance eigenvalues. Both laws
    share the Dirichlet sine basis on (0,1).
    """

    kind: str
    scale: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("laplacian", "power"):
            raise ValueError(f"unknown eigenvalue law kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("eigenvalue scale must be positive")
        if self.kind == "power" and self.rho <= 0:
            raise ValueError("power law needs a positive decay exponent")

    @classmethod
    def laplacian(cls, scale: float = 1.0) -> "EigenLaw":
        return cls(kind="laplacian", scale=scale)

    @classmethod
    def power_decay(cls, rho: float, scale: float = 1.0) -> "EigenLaw":
        return cls(kind="power", scale=scale, rho=rho)

    def values(self, n: int) -> np.ndarray:
        """Eigenvalues for indices 1..n."""
        if n < 1:
            raise ValueError("need at least one index")
        idx = np.arange(1, n + 1, dtype=float)
        if self.kind == "laplacian":
            return self.scale * np.pi**2 * idx**2
        return self.scale * idx**-self.rho
