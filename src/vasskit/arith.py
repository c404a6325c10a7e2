"""Exact integer helpers for the hard-family constructions.

Python ints are arbitrary precision and `fractions.Fraction` keeps values
reduced with a positive denominator, so this module only adds the handful
of operations the generators need: the divisibility threshold that forces
long runs in the exponential family, and its inverse lookup.
"""

from __future__ import annotations

import math
from fractions import Fraction


def divisibility_threshold(n: int) -> int:
    """lcm{2..n+1} / (n+1): the smallest value a pump counter must divide
    into for the exponential three-counter family to halt.

    The division is exact because lcm{2..n+1} is a multiple of n+1.
    """
    if n < 1:
        raise ValueError(f"divisibility_threshold requires n >= 1, got {n}")
    return math.lcm(*range(2, n + 2)) // (n + 1)


def threshold_index(values: list[int] | tuple[int, ...]) -> int:
    """Least n >= 1 with divisibility_threshold(n) >= max(values).

    The threshold is not monotone in n (it dips, e.g. at n=5), so this
    scans upward rather than bisecting.
    """
    if not values:
        raise ValueError("threshold_index requires a nonempty list")
    if any(v < 1 for v in values):
        raise ValueError("threshold_index requires positive values")
    need = max(values)
    n = 1
    while divisibility_threshold(n) < need:
        n += 1
    return n


def description_size(f: Fraction) -> int:
    """max(numerator, denominator) of a reduced nonnegative fraction."""
    return max(f.numerator, f.denominator)
