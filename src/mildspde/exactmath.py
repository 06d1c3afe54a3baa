"""Exact integer rounding of rational powers, the package's one rounding
rule, and its one integer check (`_check_integers`).

Every planned integer is a ceiling of a scaled rational power: the
resolutions ceil(N^(g/q)), the series depth ceil(M^(2q-1)) and the depth
term ceil(2 M K M^(2q-1)) of the cost. Floats can be off by one near an
integer and overflow for large N, so the ceiling is decided by integer
comparisons alone.
"""

from __future__ import annotations

from numbers import Rational
from operator import index

__all__ = ["ceil_power"]


def ceil_power(n: int, e: Rational, scale: int = 1) -> int:
    """Smallest integer x with x >= scale * n**e, for integers n, scale >= 1
    and a rational e (an int or a Fraction; a float raises ValueError).

    With e = p/r, x >= scale * n**e exactly when
    x**r * n**max(-p, 0) >= scale**r * n**max(p, 0); that test is bisected
    over a bracket read off the bit lengths.
    """
    if not isinstance(e, Rational):
        raise ValueError(f"exponent must be an exact rational, got {e!r}")
    # Python ints throughout: numpy integers would wrap on overflow
    n, scale = index(n), index(scale)
    if n < 1 or scale < 1:
        raise ValueError("base and scale must be positive integers")
    p, r = int(e.numerator), int(e.denominator)
    # x >= scale * n**e  <=>  x**r >= target = ceil(scale**r * n**p)
    target = -(-scale**r * n**max(p, 0) // n**max(-p, 0))
    hi = 1 << -(-target.bit_length() // r)      # hi**r >= 2**bits > target
    lo = hi >> 1                                # (lo - 1)**r < target
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**r >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _check_integers(**fields) -> None:
    """ValueError naming the first field that is not an integer (None:
    absent). A bool is not one, though `operator.index` takes it."""
    for name, value in fields.items():
        if value is None:
            continue
        try:
            if isinstance(value, bool):
                raise TypeError
            index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
