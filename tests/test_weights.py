import random
from fractions import Fraction

import pytest

import echlens as e
from echlens.errors import (
    ComplementNotConvex,
    EmptyBoundary,
    EndpointNotOnRay,
    VertexOutsideCone,
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
        "vertices, error",
        [
            ([(2, 0)], EmptyBoundary),
            ([(0, 1), (2, 0)], EndpointNotOnRay),  # wrong orientation
            ([(2, 1), (0, 1)], EndpointNotOnRay),  # first vertex off the x-axis
            ([(2, 0), (1, 0), (0, 1)], VertexOutsideCone),  # interior vertex on an axis
            ([(2, 0), (1, 2), (0, 3)], ComplementNotConvex),  # slopes not strictly decreasing
        ],
        ids=[f"vertices{i}" for i in range(5)],
    )
    def test_rejects(self, vertices, error):
        with pytest.raises(error):
            standard(vertices)


class TestSplitDomain:
    def test_triangle_base_case(self):
        dom = e.validate_domain(2, [(4, 2), (0, 2)])
        a, left, right = e.split_domain(dom)
        assert (a, left, right) == (2, None, None)

    def test_left_piece_only(self):
        dom = e.validate_domain(2, [(4, 2), (2, 2), (0, 3)])
        a, left, right = e.split_domain(dom)
        assert a == 2
        assert left == standard([(2, 0), (0, 1)])  # the y-axis side, dropped by a
        assert right is None

    def test_right_piece_only(self):
        dom = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
        a, left, right = e.split_domain(dom)
        assert a == 2
        assert left is None
        assert right == standard([(1, 0), (0, 1)])

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
                    a, *pieces = e.split_domain(dom)
                    pieces = [p for p in pieces if p is not None]
                    assert e.domain_area(dom) == dom.n * a * a / 2 + sum(
                        (e.domain_area(p) for p in pieces), Fraction(0)
                    )
                    for p in pieces:
                        (x0, y0), (x1, y1) = p.vertices[0], p.vertices[-1]
                        assert p.n == 1 and x0 == y0 > 0 and x1 == 0 < y1
                    work.extend(pieces)
                    splits += 1
        assert splits > 200


class TestSplitStandard:
    def test_ball(self):
        a, left, right = e.split_domain(standard([(3, 0), (0, 3)]))
        assert (a, left, right) == (3, None, None)

    def test_ellipsoid_21(self):
        a, left, right = e.split_domain(standard([(2, 0), (0, 1)]))
        assert a == 1
        assert left is None
        assert right == standard([(1, 0), (0, 1)])

    def test_corner_touch(self):
        # the supporting line x+y=a meets the boundary at a single vertex
        a, left, right = e.split_domain(standard([(3, 0), (1, 1), (0, 3)]))
        assert a == 2
        assert left == standard([(1, 0), (0, 1)])
        assert right == standard([(1, 0), (0, 1)])


def expand_standard(vertices):
    return sorted(e.singular_weight_expansion(standard(vertices)).as_multiset())


class TestStandardExpansion:
    def test_ball(self):
        assert expand_standard([(5, 0), (0, 5)]) == [5]

    def test_ellipsoids(self):
        assert expand_standard([(2, 0), (0, 1)]) == [1, 1]
        assert expand_standard([(3, 0), (0, 1)]) == [1, 1, 1]

    def test_empty(self):
        # a triangle leaves no piece, so no plain weight
        assert e.split_domain(standard([(5, 0), (0, 5)]))[1:] == (None, None)
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

    def test_as_multiset(self):
        dom = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
        assert e.singular_weight_expansion(dom).as_multiset() == [2, 1]

    def test_weights_sorted_nonincreasing(self):
        rng = random.Random(7)
        for _ in range(100):
            w = e.singular_weight_expansion(e.random_concave_domain(rng))
            assert all(x > 0 for x in w.as_multiset())
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
                ws = e.singular_weight_expansion(e.scale_domain(dom, r))
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
                    assert e.boundary_height(dom, x) >= w0
            # any larger triangle pokes out above the lowest boundary vertex
            t = w0 + Fraction(1, 7)
            x_low = min(
                (v[0] for v in dom.vertices if v[1] == w0),
            )
            assert not e.contains_point(dom, (x_low, t))
