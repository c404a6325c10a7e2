"""Exact integer helpers for the hard-family constructions.

Python ints are arbitrary precision and `fractions.Fraction` keeps values
reduced with a positive denominator, so this module only adds the handful
of operations the generators need: range lcm, the divisibility threshold
that forces long runs in the exponential family, and its inverse lookup.
"""

from __future__ import annotations

import math
from fractions import Fraction


def lcm_range(lo: int, hi: int) -> int:
    """Least common multiple of all integers in [lo, hi], by folding lcm."""
    if lo < 1:
        raise ValueError(f"lcm_range requires lo >= 1, got {lo}")
    if lo > hi:
        raise ValueError(f"lcm_range requires lo <= hi, got [{lo}, {hi}]")
    acc = 1
    for v in range(lo, hi + 1):
        acc = math.lcm(acc, v)
    return acc


def divisibility_threshold(n: int) -> int:
    """lcm{2..n+1} / (n+1): the smallest value a pump counter must divide
    into for the exponential three-counter family to halt.

    The division is exact because lcm{2..n+1} is a multiple of n+1.
    """
    if n < 1:
        raise ValueError(f"divisibility_threshold requires n >= 1, got {n}")
    total = lcm_range(2, n + 1)
    quotient, rem = divmod(total, n + 1)
    assert rem == 0
    return quotient


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
