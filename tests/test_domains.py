import random
import re
from fractions import Fraction

import pytest

import echlens as e
from echlens import domains
from echlens.checks import DEFAULT_SEED
from echlens.errors import EchLensError, ParseError
from helpers import (
    boundary_height,
    contains_point,
    exceptional_index,
    omega_length,
    rotation_numbers,
)

B21 = e.validate_domain(2, [(2, 1), (0, 1)])
EXAMPLE = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])


class TestValidation:
    def test_triangle(self):
        assert B21.vertices[0][1] == 1
        assert B21.vertices[-1][1] == 1

    def test_three_vertices(self):
        assert EXAMPLE.vertices[0][1] == 3
        assert EXAMPLE.vertices[-1][1] == 2
        assert (EXAMPLE.ints, EXAMPLE.scale) == (((6, 3), (3, 2), (0, 2)), 1)

    def test_fractional_coordinates(self):
        dom = e.validate_domain(3, [(Fraction(9, 2), Fraction(3, 2)), (0, 2)])
        assert dom.vertices[0][1] == Fraction(3, 2)

    def test_too_few_vertices(self):
        with pytest.raises(EchLensError, match="^boundary needs at least two vertices$"):
            e.validate_domain(2, [(2, 1)])

    def test_first_vertex_off_ray(self):
        with pytest.raises(EchLensError, match=r"^first vertex \(3,1\) is not a0\*\(2,1\)"):
            e.validate_domain(2, [(3, 1), (0, 1)])

    def test_last_vertex_off_axis(self):
        with pytest.raises(EchLensError, match=r"^last vertex \(1,1\) is not \(0, a1\)"):
            e.validate_domain(2, [(2, 1), (1, 1)])

    def test_zero_height_endpoint(self):
        with pytest.raises(EchLensError, match=r"^first vertex \(0,0\) is not a0\*\(2,1\)"):
            e.validate_domain(2, [(0, 0), (0, 1)])

    def test_vertex_outside_cone(self):
        with pytest.raises(EchLensError, match=r"^vertex \(3,1\) outside the cone V_2$"):
            e.validate_domain(2, [(4, 2), (3, 1), (0, 1)])

    def test_interior_vertex_on_ray(self):
        with pytest.raises(EchLensError, match=r"^interior vertex \(2,1\) lies on the cone"):
            e.validate_domain(2, [(4, 2), (2, 1), (0, 3)])

    def test_not_graph(self):
        with pytest.raises(EchLensError, match=r"^x does not strictly decrease at \(4,2\)"):
            e.validate_domain(2, [(4, 2), (4, 3), (0, 3)])

    def test_complement_not_convex(self):
        # slopes must strictly decrease along the boundary
        with pytest.raises(EchLensError, match="^edge slopes not strictly decreasing at"):
            e.validate_domain(2, [(6, 3), (3, 2), (0, 1)])

    def test_bad_n(self):
        with pytest.raises(EchLensError, match="^n must be a positive integer, got 0$"):
            e.validate_domain(0, [(2, 1), (0, 1)])


class TestConstructor:
    # ConcaveDomain(n, ints, scale) is the one checked way to build a domain

    def test_refuses_a_chain_off_the_ray(self):
        # orbit_set_index priced this chain (as 2) when the constructor checked nothing
        match = r"^first vertex \(-3,5\) is not a0\*\(2,1\) with a0 > 0$"
        with pytest.raises(EchLensError, match=match):
            e.ConcaveDomain(2, ((-3, 5), (2, -1)), 1)

    def test_refuses_bad_n_and_scale(self):
        with pytest.raises(EchLensError, match="^n must be a positive integer, got 0$"):
            e.ConcaveDomain(0, ((2, 1), (0, 1)), 1)
        with pytest.raises(EchLensError, match="^scale must be a positive integer, got -1$"):
            e.ConcaveDomain(2, ((-2, -1), (0, -1)), -1)

    def test_stores_lowest_terms(self):
        dom = e.ConcaveDomain(1, ((2, 2), (0, 2)), 2)
        reference = e.validate_domain(1, [(1, 1), (0, 1)])
        assert dom == reference and hash(dom) == hash(reference)
        assert (dom.ints, dom.scale) == (((1, 1), (0, 1)), 1)

    def test_agrees_with_validate_domain_on_random_int_chains(self):
        rng = random.Random(34)
        built = 0
        for _ in range(3000):
            n, scale = rng.randint(1, 4), rng.randint(1, 3)
            chain = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
            # half the chains start on the ray and end on the y-axis
            if rng.random() < 0.5:
                a0 = rng.randint(1, 6)
                chain = [(n * a0, a0), *chain[1:-1], (0, rng.randint(1, 6))]
            try:
                reference = e.validate_domain(
                    n, [(Fraction(x, scale), Fraction(y, scale)) for x, y in chain]
                )
            except EchLensError as exc:
                with pytest.raises(EchLensError) as info:
                    e.ConcaveDomain(n, chain, scale)
                assert str(info.value) == str(exc)
            else:
                assert e.ConcaveDomain(n, chain, scale) == reference
                built += 1
        assert 100 < built < 2900

    @pytest.mark.parametrize(
        "build, args, message",
        [
            (e.validate_domain, (2, [(2, 1, 0), (0, 1)]), "vertex (2, 1, 0) is not a pair (x, y)"),
            (e.validate_domain, (2, [(2, 1), 5]), "vertex 5 is not a pair (x, y)"),
            (e.validate_domain, (2, [(0,), (0, 1)]), "vertex (0,) is not a pair (x, y)"),
            (e.ConcaveDomain, (2, ((2, 1, 0), (0, 1)), 1), "vertex (2, 1, 0) is not a pair of ints"),
            (e.ConcaveDomain, (2, ((2.0, 1), (0, 1)), 1), "vertex (2.0, 1) is not a pair of ints"),
            (e.path_from_vertices, (2, [(2, 1, 0), (0, 2)]), "start (2, 1, 0) is not a pair of ints"),
            (e.make_path, (2, 5, ()), "start 5 is not a pair of ints"),
            (
                e.make_path,
                (2, (2, 1), [((-2, 1), 1, 5)]),
                "edge ((-2, 1), 1, 5) is not ((dx, dy), m) of ints",
            ),
            (
                e.make_path,
                (2, (2, 1), [((-2, 1.0), 1)]),
                "edge ((-2, 1.0), 1) is not ((dx, dy), m) of ints",
            ),
        ],
    )
    def test_refuses_a_malformed_vertex_or_edge(self, build, args, message):
        # each raised ValueError or TypeError, or built a path from (2, 1, 0)
        with pytest.raises(EchLensError) as info:
            build(*args)
        assert str(info.value) == message


class TestEdgeLength:
    # the Fraction reference that the oracle's int pricing is checked against
    def test_horizontal(self):
        # min over vertices of cross(p, (-1, 0)) = min vertex height
        assert omega_length(B21, (-1, 0)) == 1
        assert omega_length(EXAMPLE, (-1, 0)) == 2

    def test_slanted(self):
        assert omega_length(EXAMPLE, (-2, 0)) == 4
        assert omega_length(EXAMPLE, (-3, 1)) == min(
            6 * 1 - 3 * (-3), 3 * 1 - 2 * (-3), 0 * 1 - 2 * (-3)
        )

    def test_superadditivity_random(self):
        rng = random.Random(3)
        for _ in range(300):
            dom = e.random_concave_domain(rng)
            v1 = (-rng.randint(1, 5), rng.randint(-5, 5))
            v2 = (-rng.randint(1, 5), rng.randint(-5, 5))
            total = (v1[0] + v2[0], v1[1] + v2[1])
            assert omega_length(dom, v1) + omega_length(dom, v2) <= omega_length(dom, total)


class TestBlowup:
    def test_max_delta(self):
        # the largest admissible blow-up is the singular weight, the lowest vertex height
        assert e.singular_weight_expansion(EXAMPLE).singular_weight == 2
        assert min(y for _, y in EXAMPLE.vertices) == 2


class TestRotationNumbers:
    # orbit_set_index reads the rotation numbers from the int end edges;
    # helpers.rotation_numbers reads them in Fractions from the vertices
    EMPTY = {n: e.ConcaveGenerator(e.empty_path(n), ()) for n in range(1, 5)}
    # over V_2, every m_plus, m_minus <= 12 with an even sum
    PAIRS = [(p, m) for p in range(13) for m in range(p % 2, 13, 2)]

    def test_ellipsoid_like(self):
        # the triangle of E_2(1, 2): (a - b)/(n*b) and (b - a)/(n*a); i*phi_plus
        # is an integer at i = 4, 8, 12 and is read one lower, i*phi_minus
        # at every even i and is not
        dom = e.validate_domain(2, [(2, 1), (0, 2)])
        assert rotation_numbers(dom) == (Fraction(-1, 4), Fraction(1, 2))
        for p, m in self.PAIRS:
            assert e.orbit_set_index(dom, self.EMPTY[2], p, m) == exceptional_index(dom, p, m)

    def test_flat_boundary(self):
        assert rotation_numbers(B21) == (0, 0)
        for p, m in self.PAIRS:
            assert e.orbit_set_index(B21, self.EMPTY[2], p, m) == exceptional_index(B21, p, m)

    def test_scale_invariant_on_the_check_domains(self):
        # each rotation number is a ratio of one edge's coordinates
        rng = random.Random(DEFAULT_SEED)
        for _ in range(300):
            dom = e.random_concave_domain(rng)
            n, empty = dom.n, self.EMPTY[dom.n]
            pairs = [(p, 12 * n - p) for p in range(0, 12 * n + 1, 5)]
            index = [e.orbit_set_index(dom, empty, p, m) for p, m in pairs]
            for r in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
                scaled = e.validate_domain(n, [(r * x, r * y) for x, y in dom.vertices])
                assert [e.orbit_set_index(scaled, empty, p, m) for p, m in pairs] == index

    def test_degenerate_edge(self):
        # a first edge along the (n,1)-ray or a vertical last edge puts an
        # interior vertex on the cone's boundary, so the constructor refuses
        # both and _end_rotations never divides by zero
        match = r"^interior vertex \(2,1\) lies on the cone boundary$"
        with pytest.raises(EchLensError, match=match):
            e.ConcaveDomain(n=2, ints=((4, 2), (2, 1), (0, 1)), scale=1)
        match = r"^interior vertex \(0,1\) lies on the cone boundary$"
        with pytest.raises(EchLensError, match=match):
            e.ConcaveDomain(n=2, ints=((2, 1), (0, 1), (0, 2)), scale=1)


class TestGeometryQueries:
    def test_boundary_height(self):
        # the Fraction reference of contains_point and hull_coround
        assert boundary_height(EXAMPLE, 3) == 2
        assert boundary_height(EXAMPLE, Fraction(9, 2)) == Fraction(5, 2)
        assert boundary_height(EXAMPLE, 0) == 2
        with pytest.raises(ValueError):
            boundary_height(EXAMPLE, 7)

    def test_contains_point(self):
        assert contains_point(EXAMPLE, (3, 2))
        assert contains_point(EXAMPLE, (1, 1))
        assert not contains_point(EXAMPLE, (3, 3))
        assert not contains_point(EXAMPLE, (5, 1))  # below the ray

    def test_area(self):
        assert e.domain_area(B21) == 1
        assert e.domain_area(EXAMPLE) == Fraction(9, 2)


class TestParsePoint:
    def test_valid(self):
        assert domains._parse_point("(3/2,-1)", 1, 1) == ((3, 2), (-1, 1))

    @pytest.mark.parametrize("text", ["3,4", "(3;4)", "(3,4,5)", "(a,1)"])
    def test_invalid(self, text):
        with pytest.raises(ParseError) as info:
            domains._parse_point(text, 5, 9)
        assert info.value.line == 5

    def test_error_column_points_at_bad_coordinate(self):
        with pytest.raises(ParseError) as info:
            domains._parse_point("(1,x)", 2, 10)
        assert info.value.line == 2
        assert info.value.column == 13  # opening paren + "1," before the bad token


SPACES = ("", " ", "  ")
MALFORMED_LINES = [
    *(f"n{a}={b}x" for a in SPACES for b in SPACES),
    *(f"vertices{a}={b}(x,1) (0,1)" for a in SPACES for b in SPACES),
    "  n = 2/1",
    "\tvertices = (2,1) (0,y)",
    "vertices = (2,1)  (0,y)",
    "   vertices =  (2,y)  (0,1)",
    "vertices = (2,1)  (0 ,1)",
    "vertices = (2,1) (0,1)  (0,1,2)",
    "vertices = (2,1) 0,1)",
]


class TestParseDomainFile:
    def test_valid(self):
        text = "# comment\nn = 2\n\nvertices = (6,3) (3,2) (0,2)\n"
        dom = e.parse_domain_file(text)
        assert dom == EXAMPLE

    def test_rational_coordinates(self):
        dom = e.parse_domain_file("n = 2\nvertices = (3,3/2) (0,2)\n")
        assert dom.vertices[0][1] == Fraction(3, 2)

    def test_missing_n(self):
        with pytest.raises(ParseError):
            e.parse_domain_file("vertices = (2,1) (0,1)\n")

    @pytest.mark.parametrize(
        "text,column",
        [
            ("n = 2\nvertices = \n", 11),
            ("n = 2\nvertices =\n", 11),
            ("n = 2\n  vertices =  \n", 13),
        ],
    )
    def test_empty_vertices_reports_its_line(self, text, column):
        with pytest.raises(ParseError, match="expected at least one vertex") as info:
            e.parse_domain_file(text)
        assert (info.value.line, info.value.column) == (2, column)

    @pytest.mark.parametrize("raw", MALFORMED_LINES)
    def test_error_column_is_the_faulty_texts(self, raw):
        with pytest.raises(ParseError) as info:
            e.parse_domain_file(f"# one malformed line\n{raw}\n")
        named = re.search(r"'(.+)'", str(info.value))[1]
        assert info.value.line == 2
        assert raw[info.value.column - 1 :].startswith(named)

    def test_bad_vertex_reports_location(self):
        with pytest.raises(ParseError) as info:
            e.parse_domain_file("n = 2\nvertices = (2,1) (0,x)\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            "n = 2\nvertices = (2,1) (0,1)\nn = 2\n",
            "n = 2\nvertices = (2,1) (0,1)\n# again\nvertices = (4,2) (0,2)\n",
        ],
        ids=["n", "vertices"],
    )
    def test_repeated_key(self, text):
        with pytest.raises(ParseError, match="repeated key") as info:
            e.parse_domain_file(text)
        assert (info.value.line, info.value.column) == (len(text.splitlines()), 1)

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            e.parse_domain_file("n = 2\nfoo = 1\nvertices = (2,1) (0,1)\n")

    def test_invalid_domain_propagates(self):
        with pytest.raises(EchLensError, match=r"^first vertex \(3,1\) is not a0\*\(2,1\)"):
            e.parse_domain_file("n = 2\nvertices = (3,1) (0,1)\n")
