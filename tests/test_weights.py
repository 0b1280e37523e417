import random
from fractions import Fraction

import pytest

import echlens as e
from echlens import weights
from echlens.checks import DEFAULT_SEED
from echlens.errors import EchLensError, ResourceLimit
from helpers import (
    boundary_height,
    contains_point,
    fraction_weight_expansion,
    large_denominator_domain,
)


def standard(vertices):
    """A first-quadrant chain from (a, 0) to (0, b), carried onto V_1 by the
    shear (x, y) -> (x, x + y); the peels of the expansion act on these."""
    return e.validate_domain(1, [(x, x + y) for x, y in vertices])


class TestValidateStandard:
    def test_triangle(self):
        dom = standard([(2, 0), (0, 1)])
        assert dom.vertices == ((2, 2), (0, 1))

    @pytest.mark.parametrize(
        "vertices, match",
        [
            ([(2, 0)], "^boundary needs at least two vertices$"),
            ([(0, 1), (2, 0)], r"^first vertex \(0,1\) is not"),  # wrong orientation
            ([(2, 1), (0, 1)], r"^first vertex \(2,3\) is not"),  # first vertex off the x-axis
            # an interior vertex on an axis; slopes not strictly decreasing
            ([(2, 0), (1, 0), (0, 1)], "^interior vertex .* lies on the cone boundary$"),
            ([(2, 0), (1, 2), (0, 3)], "^edge slopes not strictly decreasing"),
        ],
        ids=[f"vertices{i}" for i in range(5)],
    )
    def test_rejects(self, vertices, match):
        with pytest.raises(EchLensError, match=match):
            standard(vertices)


def peel(dom):
    """weights._peel on the domain's ints: (a, left, right), each piece an
    int chain over the domain's scale, as a tuple to compare with .ints."""
    a, *pieces = weights._peel(dom.n, dom.ints, dom.scale)
    return (a, *(None if p is None else tuple(p) for p in pieces))


class TestSplitDomain:
    def test_triangle_base_case(self):
        dom = e.validate_domain(2, [(4, 2), (0, 2)])
        assert peel(dom) == (2, None, None)

    def test_left_piece_only(self):
        dom = e.validate_domain(2, [(4, 2), (2, 2), (0, 3)])
        a, left, right = peel(dom)
        assert a == 2
        assert left == standard([(2, 0), (0, 1)]).ints  # the y-axis side, dropped by a
        assert right is None

    def test_right_piece_only(self):
        dom = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
        a, left, right = peel(dom)
        assert a == 2
        assert left is None
        assert right == standard([(1, 0), (0, 1)]).ints

    def test_peel_maps_keep_area_and_land_on_the_rays(self):
        # at every split of every expansion, the triangle and the two mapped
        # pieces make up the area, and each piece runs from V_1's (1,1)-ray
        # to its y-axis
        rng = random.Random(29)
        splits = 0
        for n in (1, 2, 3, 4):
            for _ in range(25):
                work = [e.random_concave_domain(rng, n=n)]
                while work:
                    dom = work.pop()
                    a, *pieces = peel(dom)
                    # the pieces' ints are over dom.scale, in any terms
                    pieces = [e.ConcaveDomain(1, p, dom.scale) for p in pieces if p is not None]
                    assert e.domain_area(dom) == Fraction(dom.n * a * a, 2 * dom.scale**2) + sum(
                        (e.domain_area(p) for p in pieces), Fraction(0)
                    )
                    for p in pieces:
                        (x0, y0), (x1, y1) = p.ints[0], p.ints[-1]
                        assert x0 == y0 > 0 and x1 == 0 < y1
                    work.extend(pieces)
                    splits += 1
        assert splits > 200


class TestSplitStandard:
    def test_ball(self):
        assert peel(standard([(3, 0), (0, 3)])) == (3, None, None)

    def test_ellipsoid_21(self):
        a, left, right = peel(standard([(2, 0), (0, 1)]))
        assert a == 1
        assert left is None
        assert right == standard([(1, 0), (0, 1)]).ints

    def test_corner_touch(self):
        # the supporting line x+y=a meets the boundary at a single vertex
        a, left, right = peel(standard([(3, 0), (1, 1), (0, 3)]))
        assert a == 2
        assert left == standard([(1, 0), (0, 1)]).ints
        assert right == standard([(1, 0), (0, 1)]).ints


def expand_standard(vertices):
    w = e.singular_weight_expansion(standard(vertices))
    return sorted([w.singular_weight, *w.plain_weights])


class TestStandardExpansion:
    def test_ball(self):
        assert expand_standard([(5, 0), (0, 5)]) == [5]

    def test_ellipsoids(self):
        assert expand_standard([(2, 0), (0, 1)]) == [1, 1]
        assert expand_standard([(3, 0), (0, 1)]) == [1, 1, 1]

    def test_empty(self):
        # a triangle leaves no piece, so no plain weight
        assert peel(standard([(5, 0), (0, 5)]))[1:] == (None, None)
        assert e.singular_weight_expansion(standard([(5, 0), (0, 5)])).plain_weights == ()


class TestSingularExpansion:
    @pytest.mark.parametrize("m", [100, 2000])
    def test_thin_domain_has_no_depth_cap(self, m):
        # (1,1)(0,m) peels one triangle per unit of height: m - 1 nested pieces
        w = e.singular_weight_expansion(e.validate_domain(1, [(1, 1), (0, m)]))
        assert w.singular_weight == 1
        assert w.plain_weights == (1,) * (m - 1)

    def test_triangle(self):
        dom = e.validate_domain(2, [(4, 2), (0, 2)])
        w = e.singular_weight_expansion(dom)
        assert w.singular_weight == 2
        assert w.plain_weights == ()

    def test_left_remainder(self):
        dom = e.validate_domain(2, [(4, 2), (2, 2), (0, 3)])
        w = e.singular_weight_expansion(dom)
        assert w.singular_weight == 2
        assert w.plain_weights == (1, 1)

    def test_right_remainder(self):
        dom = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
        w = e.singular_weight_expansion(dom)
        assert w.singular_weight == 2
        assert w.plain_weights == (1,)

    def test_weights_sorted_nonincreasing(self):
        rng = random.Random(7)
        for _ in range(100):
            w = e.singular_weight_expansion(e.random_concave_domain(rng))
            assert all(x > 0 for x in [w.singular_weight, *w.plain_weights])
            assert list(w.plain_weights) == sorted(w.plain_weights, reverse=True)

    def test_area_conservation(self):
        rng = random.Random(9)
        for _ in range(200):
            dom = e.random_concave_domain(rng)
            w = e.singular_weight_expansion(dom)
            total = Fraction(dom.n) * w.singular_weight**2 / 2 + sum(
                (x * x for x in w.plain_weights), Fraction(0)
            ) / 2
            assert total == e.domain_area(dom)

    def test_scaling(self):
        rng = random.Random(13)
        for _ in range(50):
            dom = e.random_concave_domain(rng)
            w = e.singular_weight_expansion(dom)
            for r in (Fraction(1, 3), 2, Fraction(7, 5)):
                scaled = e.validate_domain(dom.n, [(r * x, r * y) for x, y in dom.vertices])
                ws = e.singular_weight_expansion(scaled)
                assert ws.singular_weight == r * w.singular_weight
                assert ws.plain_weights == tuple(r * x for x in w.plain_weights)

    def test_first_weight_is_largest_inscribed_ball(self):
        rng = random.Random(21)
        for _ in range(50):
            dom = e.random_concave_domain(rng)
            w0 = e.singular_weight_expansion(dom).singular_weight
            n = dom.n
            # the triangle of size w0 fits: its top edge stays under the boundary
            for x, _ in dom.vertices:
                if x <= n * w0:
                    assert boundary_height(dom, x) >= w0
            # any larger triangle pokes out above the lowest boundary vertex
            t = w0 + Fraction(1, 7)
            x_low = min(
                (v[0] for v in dom.vertices if v[1] == w0),
            )
            assert not contains_point(dom, (x_low, t))


class TestIntExpansion:
    """The expansion peels ints over the domain's one denominator, against
    the Fraction peel of helpers.fraction_weight_expansion."""

    def test_matches_the_fraction_peel_on_the_check_domains(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(300):
            dom = e.random_concave_domain(rng)
            w = e.singular_weight_expansion(dom)
            assert (w.singular_weight, w.plain_weights) == fraction_weight_expansion(dom)
            assert w.scale == dom.scale

    def test_large_denominators(self):
        # denominators up to 10**6, so scales up to about 10**24
        rng = random.Random(24)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                dom = large_denominator_domain(rng, n)
                w = e.singular_weight_expansion(dom)
                assert (w.singular_weight, w.plain_weights) == fraction_weight_expansion(dom)
                area = Fraction(n) * w.singular_weight**2 / 2 + sum(
                    (x * x for x in w.plain_weights), Fraction(0)
                ) / 2
                assert area == e.domain_area(dom)
                assert e.capacities_via_weights(dom, 6) == e.capacities_via_oracle(dom, 6)

    def test_peel_budget_counts_plain_weights(self, monkeypatch):
        # the thin triangle (1,1)(0,m) peels m - 1 plain weights
        monkeypatch.setattr(weights, "PEEL_BUDGET", 8)
        fits = e.validate_domain(1, [(1, 1), (0, 9)])
        assert e.singular_weight_expansion(fits).plain == (1,) * 8
        with pytest.raises(ResourceLimit, match="budget of 8"):
            e.singular_weight_expansion(e.validate_domain(1, [(1, 1), (0, 10)]))
        with pytest.raises(ResourceLimit, match="budget of 8"):
            e.capacities_via_weights(e.validate_domain(1, [(1, 1), (0, 10**9)]), 3)
