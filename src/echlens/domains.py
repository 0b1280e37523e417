"""Concave toric domains over the cone V_n and the length of lattice edges.

A domain is described by the vertex chain of its upper boundary, traversed
from the endpoint on the (n,1)-ray to the endpoint on the y-axis.  This
module validates, parses, scales and measures such chains: boundary height,
area, singular ball capacity and edge length.  The length of a leftward
lattice edge v is min_p cross(p, v) over boundary vertices p; this
min-formula is the operational form of the supporting-line definition and
fixes every sign convention downstream.  The rotation numbers of a domain's
exceptional orbits serve only the index formulas, in index.py.
"""

from __future__ import annotations

from fractions import Fraction

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
    # vertices: ((x, y), ...) exact rationals, ray endpoint first
    __slots__ = ("n", "vertices")

    def edge_vectors(self):
        v = self.vertices
        return [geo.vec_sub(v[i + 1], v[i]) for i in range(len(v) - 1)]


def validate_domain(n: int, vertices) -> ConcaveDomain:
    """Validate a raw vertex chain, raising the first violated invariant."""
    if n < 1:
        raise VertexOutsideCone(f"n must be a positive integer, got {n}")
    # Integer coordinates are checked as ints, several times cheaper than as
    # Fractions; given and corounded paths come here, enumerated ones do not.
    verts = tuple((_exact(x), _exact(y)) for x, y in vertices)
    if len(verts) < 2:
        raise EmptyBoundary("boundary needs at least two vertices")
    fmt = geo.format_point
    first, last = verts[0], verts[-1]
    if first[0] != n * first[1] or first[1] <= 0:
        raise EndpointNotOnRay(f"first vertex {fmt(first)} is not a0*({n},1) with a0 > 0")
    if last[0] != 0 or last[1] <= 0:
        raise EndpointNotOnRay(f"last vertex {fmt(last)} is not (0, a1) with a1 > 0")
    for i, v in enumerate(verts):
        if not geo.in_cone(v, n):
            raise VertexOutsideCone(f"vertex {fmt(v)} outside the cone V_{n}")
        if 0 < i < len(verts) - 1 and not geo.strictly_in_cone(v, n):
            raise VertexOutsideCone(f"interior vertex {fmt(v)} lies on the cone boundary")
    for u, v in zip(verts, verts[1:]):
        if v[0] >= u[0]:
            raise NotGraphOfFunction(f"x does not strictly decrease at {fmt(u)} -> {fmt(v)}")
    edges = [geo.vec_sub(v, u) for u, v in zip(verts, verts[1:])]
    for e1, e2 in zip(edges, edges[1:]):
        if geo.cross(e1, e2) >= 0:
            raise ComplementNotConvex(
                f"edge slopes not strictly decreasing at {fmt(e1)} -> {fmt(e2)}"
            )
    return ConcaveDomain(n=n, vertices=tuple((Fraction(x), Fraction(y)) for x, y in verts))


def _exact(x):
    return x if isinstance(x, int) else Fraction(x)


def omega_length_edge(domain: ConcaveDomain, v) -> Fraction:
    """Length of the single lattice edge v; v must point leftward (v.x <= 0)."""
    if v == (0, 0):
        raise ZeroEdge("zero vector has no length")
    if v[0] > 0:
        raise WrongOrientation(f"edge {v} must have non-positive x-component")
    return min(geo.cross(p, v) for p in domain.vertices)


def singular_ball_capacity(domain: ConcaveDomain) -> Fraction:
    """Largest a with the singular ball B_n(a) included in the domain: the
    triangle of size a fits exactly when it stays under the lowest vertex."""
    return min(Fraction(v[1]) for v in domain.vertices)


def scale_domain(domain: ConcaveDomain, r) -> ConcaveDomain:
    r = Fraction(r)
    if r <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {r}")
    return ConcaveDomain(
        n=domain.n, vertices=tuple((r * x, r * y) for x, y in domain.vertices)
    )


def boundary_height(domain: ConcaveDomain, x) -> Fraction:
    """Exact height of the upper boundary over abscissa x (0 <= x <= start.x)."""
    x = Fraction(x)
    verts = domain.vertices
    if not (0 <= x <= verts[0][0]):
        raise ValueError(f"x={x} outside the boundary's span")
    for u, v in zip(verts, verts[1:]):
        if v[0] <= x <= u[0]:
            if u[0] == v[0]:
                return max(u[1], v[1])
            t = (x - v[0]) / (u[0] - v[0])
            return v[1] + t * (u[1] - v[1])
    raise AssertionError("unreachable: x inside span but no edge found")


def domain_area(domain: ConcaveDomain) -> Fraction:
    """Exact area of the region between the boundary chain and the two rays."""
    poly = [(Fraction(0), Fraction(0))] + list(domain.vertices)
    total = Fraction(0)
    for u, v in zip(poly, poly[1:] + poly[:1]):
        total += geo.cross(u, v)
    return abs(total) / 2


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
    return validate_domain(n, vertices)
