import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from vasskit.arith import description_size, divisibility_threshold, threshold_index


def lcm_fold_oracle(lo, hi):
    # independent of math.lcm: fold a*b // gcd(a,b)
    return reduce(lambda a, b: a * b // math.gcd(a, b), range(lo, hi + 1), 1)


class TestDivisibilityThreshold:
    def test_examples(self):
        assert divisibility_threshold(1) == 1  # lcm{2}/2
        assert divisibility_threshold(4) == 12  # lcm{2..5} = 60, over 5
        assert divisibility_threshold(5) == 10  # lcm{2..6} = 60, over 6

    def test_division_is_exact(self):
        for n in range(1, 101):
            assert divisibility_threshold(n) * (n + 1) == lcm_fold_oracle(2, n + 1)

    def test_product_divisible_by_all(self):
        for n in range(1, 101):
            value = divisibility_threshold(n) * (n + 1)
            for i in range(2, n + 2):
                assert value % i == 0

    def test_factorial_upper_bound(self):
        for n in range(1, 21):
            assert divisibility_threshold(n) <= math.factorial(n)

    def test_not_monotone(self):
        # the scan in threshold_index depends on this dip existing
        assert divisibility_threshold(5) < divisibility_threshold(4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisibility_threshold(0)


class TestThresholdIndex:
    def test_examples(self):
        assert threshold_index([1]) == 1
        assert threshold_index([3]) == 3  # threshold(2)=2 < 3, threshold(3)=3
        assert threshold_index([12]) == 4  # threshold(3)=3 < 12, threshold(4)=12

    def test_is_least(self):
        for need in range(1, 40):
            n = threshold_index([need])
            assert divisibility_threshold(n) >= need
            assert all(divisibility_threshold(i) < need for i in range(1, n))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            threshold_index([])
        with pytest.raises(ValueError):
            threshold_index([0, 3])


class TestFractionBehavior:
    # the package leans on stdlib fractions staying reduced; pin that down
    def test_reduced_after_arithmetic(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = rng.randint(1, 10**9), rng.randint(1, 10**9)
            c, d = rng.randint(1, 10**9), rng.randint(1, 10**9)
            prod = Fraction(a, b) * Fraction(c, d)
            assert math.gcd(prod.numerator, prod.denominator) == 1
            assert prod.numerator * b * d == a * c * prod.denominator
            cube = Fraction(a, b) ** 3
            assert cube == Fraction(a**3, b**3)

    def test_description_size(self):
        assert description_size(Fraction(23409, 16384)) == 23409
        assert description_size(Fraction(3, 7)) == 7
