import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from echlens import geometry as geo
from echlens.errors import ParseError

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
        assert geo.parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "1.5", "1/-2", "1 /2", "a", "+3", "1/0x"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            geo.parse_rational(text)

    def test_parse_zero_denominator(self):
        for text in ("1/0", "3/00", "-2/0"):
            with pytest.raises(ValueError, match="q > 0"):
                geo.parse_rational(text)
        assert geo.parse_rational("3/007") == Fraction(3, 7)

    @given(rationals)
    def test_roundtrip(self, value):
        assert geo.parse_rational(geo.format_rational(value)) == value

    def test_format(self):
        assert geo.format_rational(Fraction(6, 4)) == "3/2"
        assert geo.format_rational(Fraction(8, 4)) == "2"
        assert geo.format_rational(Fraction(-1, 3)) == "-1/3"


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


class TestParsePoint:
    def test_valid(self):
        assert geo.parse_point("(3/2,-1)", 1, 1) == ((3, 2), (-1, 1))

    @pytest.mark.parametrize("text", ["3,4", "(3;4)", "(3,4,5)", "(a,1)"])
    def test_invalid(self, text):
        with pytest.raises(ParseError) as info:
            geo.parse_point(text, 5, 9)
        assert info.value.line == 5

    def test_error_column_points_at_bad_coordinate(self):
        with pytest.raises(ParseError) as info:
            geo.parse_point("(1,x)", 2, 10)
        assert info.value.line == 2
        assert info.value.column == 13  # opening paren + "1," before the bad token
