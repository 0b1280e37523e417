"""Concave toric domains over the cone V_n.

A domain is described by the vertex chain of its upper boundary, traversed
from the endpoint on the (n,1)-ray to the endpoint on the y-axis.  A
ConcaveDomain checks its chain when it is built, so every route can trust
it; this module also parses domain files and measures area.  A chain is
stored, and a domain file parsed, as int vertices over one denominator.
Edge lengths are priced by the oracle route (capacities.oracle_ints), and
the rotation numbers of the exceptional orbits, which serve only the index
formulas, are read in bijectivity.py.
"""

from __future__ import annotations

from math import gcd, lcm

from . import geometry as geo
from .errors import EchLensError, ParseError
from .record import Record, _set


class ConcaveDomain(Record):
    """The domain in V_n under the int chain `ints` over `scale`, ray
    endpoint first: the constructor raises the first invariant the chain
    violates and stores it in lowest terms (gcd(scale, *coordinates) == 1),
    so equal domains compare and hash equal."""

    __slots__ = ("n", "ints", "scale")

    def __init__(self, n: int, ints, scale: int):
        if n < 1:
            raise EchLensError(f"n must be a positive integer, got {n}")
        if scale < 1:
            raise EchLensError(f"scale must be a positive integer, got {scale}")
        _check_chain(n, ints, scale)
        g = gcd(scale, *(c for v in ints for c in v))
        _set(self, "n", n)
        _set(self, "ints", tuple((x // g, y // g) for x, y in ints))
        _set(self, "scale", scale // g)

    @property
    def vertices(self) -> tuple:
        from fractions import Fraction

        s = self.scale
        return tuple((Fraction(x, s), Fraction(y, s)) for x, y in self.ints)


def validate_domain(n: int, vertices) -> ConcaveDomain:
    """Validate a chain of exact rational vertices (ints or Fractions),
    raising the first violated invariant."""
    return _from_ratios(
        n, [((x.numerator, x.denominator), (y.numerator, y.denominator)) for x, y in vertices]
    )


def _from_ratios(n: int, points) -> ConcaveDomain:
    # the domain of a chain of points ((p, q), (p, q)), each coordinate p/q,
    # put over the LCM of their denominators
    scale = lcm(*(q for point in points for _, q in point))
    return ConcaveDomain(n, [tuple(p * (scale // q) for p, q in point) for point in points], scale)


def _check_chain(n: int, verts, scale: int):
    # raise the first invariant that the int chain over `scale` violates
    if len(verts) < 2:
        raise EchLensError("boundary needs at least two vertices")
    fmt = geo.format_point
    first, last = verts[0], verts[-1]
    if first[0] != n * first[1] or first[1] <= 0:
        raise EchLensError(f"first vertex {fmt(first, scale)} is not a0*({n},1) with a0 > 0")
    if last[0] != 0 or last[1] <= 0:
        raise EchLensError(f"last vertex {fmt(last, scale)} is not (0, a1) with a1 > 0")
    for i, v in enumerate(verts):
        if not geo.in_cone(v, n):
            raise EchLensError(f"vertex {fmt(v, scale)} outside the cone V_{n}")
        if 0 < i < len(verts) - 1 and not geo.strictly_in_cone(v, n):
            raise EchLensError(f"interior vertex {fmt(v, scale)} lies on the cone boundary")
    for u, v in zip(verts, verts[1:]):
        if v[0] >= u[0]:
            raise EchLensError(
                f"x does not strictly decrease at {fmt(u, scale)} -> {fmt(v, scale)}"
            )
    edges = [geo.vec_sub(v, u) for u, v in zip(verts, verts[1:])]
    for e1, e2 in zip(edges, edges[1:]):
        if geo.cross(e1, e2) >= 0:
            raise EchLensError(
                f"edge slopes not strictly decreasing at {fmt(e1, scale)} -> {fmt(e2, scale)}"
            )


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
