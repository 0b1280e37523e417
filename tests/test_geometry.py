import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from echlens import geometry as geo

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=97
)
small_ints = st.integers(min_value=-50, max_value=50)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("0", 0), ("7", 7), ("-3", -3), ("3/4", Fraction(3, 4)), ("-10/4", Fraction(-5, 2))],
    )
    def test_parse(self, text, value):
        assert Fraction(*geo.parse_ratio(text)) == value

    @pytest.mark.parametrize("text", ["", "1.5", "1/-2", "1 /2", "a", "+3", "1/0x"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            geo.parse_ratio(text)

    def test_parse_zero_denominator(self):
        for text in ("1/0", "3/00", "-2/0"):
            with pytest.raises(ValueError, match="q > 0"):
                geo.parse_ratio(text)
        assert geo.parse_ratio("3/007") == (3, 7)

    @given(rationals)
    def test_roundtrip(self, value):
        # format_ratio prints the text of str(Fraction)
        text = geo.format_ratio(value.numerator * 3, value.denominator * 3)
        assert text == str(value)
        assert Fraction(*geo.parse_ratio(text)) == value

    def test_format(self):
        assert geo.format_ratio(6, 4) == "3/2"
        assert geo.format_ratio(8, 4) == "2"
        assert geo.format_ratio(-1, 3) == "-1/3"


class TestOverOneDenominator:
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_ints_fractions_and_pairs_agree(self, values):
        ints, d = geo.over_one_denominator(values)
        assert d == math.lcm(*(v.denominator for v in values))
        assert [Fraction(i, d) for i in ints] == values
        # pairs are put over the LCM of their own, unreduced, denominators
        pairs = [(3 * v.numerator, 3 * v.denominator) for v in values]
        assert geo.over_one_denominator(pairs) == ([3 * i for i in ints], 3 * d)
        plain = [int(v) if v.denominator == 1 else v for v in values]
        assert geo.over_one_denominator(plain) == (ints, d)

    def test_nothing_is_over_one(self):
        assert geo.over_one_denominator([]) == ([], 1)


class TestFloorSum:
    def test_against_direct_sum(self):
        rng = random.Random(131)
        for _ in range(3000):
            n, m = rng.randint(0, 40), rng.randint(1, 30)
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert geo.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    @pytest.mark.parametrize(
        "p,q,periods",
        [(1, 1, 5), (3, 7, 1), (-89, 466, 10**9), (233, 144, 12345), (-5, 10**6 - 1, 10**9),
         (999_983, 10**6, 7), (-1, 10**6, 10**9)],
    )
    def test_reciprocity(self, p, q, periods):
        # gcd(p, q) = 1: a full period sums to (p-1)(q-1)/2, and each period
        # adds p per term to the one before
        expected = periods * (p - 1) * (q - 1) // 2 + p * q * periods * (periods - 1) // 2
        assert geo.floor_sum(periods * q, q, p, 0) == expected


class TestCross:
    @given(small_ints, small_ints, small_ints, small_ints)
    def test_antisymmetry(self, a, b, c, d):
        assert geo.cross((a, b), (c, d)) == -geo.cross((c, d), (a, b))

    @given(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints)
    def test_bilinearity(self, a, b, c, d, e, f):
        u, v, w = (a, b), (c, d), (e, f)
        assert geo.cross(u, (c + e, d + f)) == geo.cross(u, v) + geo.cross(u, w)

    def test_orientation(self):
        assert geo.cross((1, 0), (0, 1)) == 1


class TestCone:
    def test_membership(self):
        assert geo.in_cone((0, 0), 2)
        assert geo.in_cone((2, 1), 2)  # on the slanted ray
        assert geo.in_cone((0, 5), 2)  # on the vertical ray
        assert geo.in_cone((1, 1), 2)
        assert not geo.in_cone((3, 1), 2)
        assert not geo.in_cone((-1, 1), 2)

    def test_strict(self):
        assert geo.strictly_in_cone((1, 1), 2)
        assert not geo.strictly_in_cone((2, 1), 2)
        assert not geo.strictly_in_cone((0, 1), 2)

    @given(st.integers(min_value=1, max_value=6), small_ints, small_ints)
    def test_strict_implies_weak(self, n, x, y):
        if geo.strictly_in_cone((x, y), n):
            assert geo.in_cone((x, y), n)


class TestPrimitive:
    def test_examples(self):
        assert geo.is_primitive((-1, 0))
        assert geo.is_primitive((-3, 2))
        assert not geo.is_primitive((-2, 2))
        assert not geo.is_primitive((0, 0))

