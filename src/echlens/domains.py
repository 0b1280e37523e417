"""Concave toric domains over the cone V_n.

A domain is described by the vertex chain of its upper boundary, traversed
from the endpoint on the (n,1)-ray to the endpoint on the y-axis.  A
ConcaveDomain checks its chain when it is built, so every route can trust
it; this module also owns the domain-file format, its point syntax
included, and measures area.  A chain is stored, and a domain file parsed,
as int vertices over one denominator.
Edge lengths are priced by the oracle route (capacities_via_oracle in
capacities.py), and the rotation numbers of the exceptional orbits, which
serve only the index formulas, are read in bijectivity.py.
"""

from __future__ import annotations

import re
from math import gcd

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
    """Validate a chain of rational vertices (x, y), put over_one_denominator,
    raising the first violated invariant."""
    vertices = list(vertices)
    for v in vertices:
        if not _is_pair(v, object):
            raise EchLensError(f"vertex {v!r} is not a pair (x, y)")
    coords, scale = geo.over_one_denominator(c for x, y in vertices for c in (x, y))
    return ConcaveDomain(n, list(zip(coords[::2], coords[1::2])), scale)


def _is_pair(v, kind) -> bool:
    # whether v is a tuple or list of two `kind`s
    return isinstance(v, (tuple, list)) and len(v) == 2 and all(isinstance(c, kind) for c in v)


def _check_chain(n: int, verts, scale: int):
    # raise the first invariant that the int chain over `scale` violates
    for v in verts:
        if not _is_pair(v, int):
            raise EchLensError(f"vertex {v!r} is not a pair of ints")
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


def _parse_point(text: str, line: int, col: int):
    """Parse the token `(x,y)` at column `col` into two parse_ratio pairs;
    an error names the column of the faulty text."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected (x,y), got {text!r}", line, col)
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated coordinates in {text!r}", line, col)
    x, y = parts
    coords = []
    for offset, part in ((1, x), (len(x) + 2, y)):
        try:
            coords.append(geo.parse_ratio(part))
        except ValueError:
            raise ParseError(f"bad rational {part!r}", line, col + offset) from None
    return tuple(coords)


def parse_domain_file(text: str) -> ConcaveDomain:
    """Parse the line-based domain description format.

    line 1: ``n = <positive integer>``
    line 2: ``vertices = (x1,y1) (x2,y2) ...``
    Blank lines and ``#`` comments are ignored; each key appears once.  A
    parse error names the line and column of the faulty text.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected `name = value`", lineno, 1)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        # the value's own column; an empty value's is the one after `=`
        col = raw.find(value, raw.index("=") + 1) + 1
        if key in fields:
            raise ParseError(f"repeated key {key!r}", lineno, 1)
        if key == "n":
            try:
                n = fields[key] = int(value)
            except ValueError:
                raise ParseError(f"bad integer {value!r}", lineno, col) from None
            if n < 1:
                raise ParseError(f"n must be positive, got {n}", lineno, col)
        elif key == "vertices":
            tokens = re.finditer(r"[^ ]+", value)
            fields[key] = [_parse_point(t[0], lineno, col + t.start()) for t in tokens]
            if not fields[key]:
                raise ParseError("expected at least one vertex (x,y)", lineno, col)
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)
    for key in ("n", "vertices"):
        if key not in fields:
            raise ParseError(f"missing `{key} = ...` line", 1, 1)
    return validate_domain(fields["n"], fields["vertices"])
