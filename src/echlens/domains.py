"""Concave toric domains over the cone V_n and the length of lattice edges.

A domain is described by the vertex chain of its upper boundary, traversed
from the endpoint on the (n,1)-ray to the endpoint on the y-axis.  This
module validates, parses, scales and measures such chains: area, singular
ball capacity and edge length.  A chain is stored, and a domain file parsed,
as int vertices over one denominator.  The length of a leftward
lattice edge v is min_p cross(p, v) over boundary vertices p; this
min-formula is the operational form of the supporting-line definition and
fixes every sign convention downstream.  The rotation numbers of a domain's
exceptional orbits and the boundary height serve only the index formulas,
in index.py.
"""

from __future__ import annotations

from math import gcd, lcm

from . import geometry as geo
from .errors import (
    ComplementNotConvex,
    EmptyBoundary,
    EndpointNotOnRay,
    NonPositiveScale,
    NotGraphOfFunction,
    ParseError,
    VertexOutsideCone,
    WrongOrientation,
    ZeroEdge,
)
from .record import Record


class ConcaveDomain(Record):
    # ints: ((x, y), ...) over scale in lowest terms, ray endpoint first
    __slots__ = ("n", "ints", "scale")

    @property
    def vertices(self) -> tuple:
        from fractions import Fraction

        s = self.scale
        return tuple((Fraction(x, s), Fraction(y, s)) for x, y in self.ints)

    def edge_vectors(self):
        v = self.vertices
        return [geo.vec_sub(v[i + 1], v[i]) for i in range(len(v) - 1)]


def validate_domain(n: int, vertices) -> ConcaveDomain:
    """Validate a chain of exact rational vertices (ints or Fractions),
    raising the first violated invariant."""
    return _from_ratios(
        n, [((x.numerator, x.denominator), (y.numerator, y.denominator)) for x, y in vertices]
    )


def _from_ratios(n: int, points) -> ConcaveDomain:
    # the domain of a chain of points ((p, q), (p, q)), each coordinate p/q
    if n < 1:
        raise VertexOutsideCone(f"n must be a positive integer, got {n}")
    scale = lcm(*(q for point in points for _, q in point))
    ints = [tuple(p * (scale // q) for p, q in point) for point in points]
    _check_chain(n, ints, scale)
    return _lowest_terms(n, ints, scale)


def _lowest_terms(n: int, ints, scale: int) -> ConcaveDomain:
    g = gcd(scale, *(c for v in ints for c in v))
    return ConcaveDomain(n, tuple((x // g, y // g) for x, y in ints), scale // g)


def _check_chain(n: int, verts, scale: int):
    # raise the first invariant that the int chain over `scale` violates
    if len(verts) < 2:
        raise EmptyBoundary("boundary needs at least two vertices")
    fmt = geo.format_point
    first, last = verts[0], verts[-1]
    if first[0] != n * first[1] or first[1] <= 0:
        raise EndpointNotOnRay(f"first vertex {fmt(first, scale)} is not a0*({n},1) with a0 > 0")
    if last[0] != 0 or last[1] <= 0:
        raise EndpointNotOnRay(f"last vertex {fmt(last, scale)} is not (0, a1) with a1 > 0")
    for i, v in enumerate(verts):
        if not geo.in_cone(v, n):
            raise VertexOutsideCone(f"vertex {fmt(v, scale)} outside the cone V_{n}")
        if 0 < i < len(verts) - 1 and not geo.strictly_in_cone(v, n):
            raise VertexOutsideCone(f"interior vertex {fmt(v, scale)} lies on the cone boundary")
    for u, v in zip(verts, verts[1:]):
        if v[0] >= u[0]:
            raise NotGraphOfFunction(
                f"x does not strictly decrease at {fmt(u, scale)} -> {fmt(v, scale)}"
            )
    edges = [geo.vec_sub(v, u) for u, v in zip(verts, verts[1:])]
    for e1, e2 in zip(edges, edges[1:]):
        if geo.cross(e1, e2) >= 0:
            raise ComplementNotConvex(
                f"edge slopes not strictly decreasing at {fmt(e1, scale)} -> {fmt(e2, scale)}"
            )


def omega_length_edge(domain: ConcaveDomain, v):
    """Length of the single lattice edge v; v must point leftward (v.x <= 0)."""
    if v == (0, 0):
        raise ZeroEdge("zero vector has no length")
    if v[0] > 0:
        raise WrongOrientation(f"edge {v} must have non-positive x-component")
    return min(geo.cross(p, v) for p in domain.vertices)


def singular_ball_capacity(domain: ConcaveDomain):
    """Largest a with the singular ball B_n(a) included in the domain: the
    triangle of size a fits exactly when it stays under the lowest vertex."""
    return min(y for _, y in domain.vertices)


def scale_domain(domain: ConcaveDomain, r) -> ConcaveDomain:
    if r <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {r}")
    p = r.numerator
    ints = [(x * p, y * p) for x, y in domain.ints]
    return _lowest_terms(domain.n, ints, domain.scale * r.denominator)


def _twice_area(domain: ConcaveDomain) -> int:
    # twice the domain's area times scale**2, an int
    poly = [(0, 0), *domain.ints]
    return abs(sum(geo.cross(u, v) for u, v in zip(poly, poly[1:] + poly[:1])))


def domain_area(domain: ConcaveDomain):
    """Exact area of the region between the boundary chain and the two rays."""
    from fractions import Fraction

    return Fraction(_twice_area(domain), 2 * domain.scale**2)


def parse_domain_file(text: str) -> ConcaveDomain:
    """Parse the line-based domain description format.

    line 1: ``n = <positive integer>``
    line 2: ``vertices = (x1,y1) (x2,y2) ...``
    Blank lines and ``#`` comments are ignored; each key appears once.
    """
    n = None
    vertices = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected `name = value`", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        col = raw.index("=") + 2
        if (key == "n" and n is not None) or (key == "vertices" and vertices is not None):
            raise ParseError(f"repeated key {key!r}", lineno, 1)
        if key == "n":
            try:
                n = int(value)
            except ValueError:
                raise ParseError(f"bad integer {value!r}", lineno, col) from None
            if n < 1:
                raise ParseError(f"n must be positive, got {n}", lineno, col)
        elif key == "vertices":
            vertices = []
            cursor = col
            for token in value.split(" "):
                if not token:
                    cursor += 1
                    continue
                vertices.append(geo.parse_point(token, lineno, cursor))
                cursor += len(token) + 1
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)
    if n is None:
        raise ParseError("missing `n = ...` line", 1, 1)
    if not vertices:
        raise ParseError("missing `vertices = ...` line", 1, 1)
    return _from_ratios(n, vertices)
