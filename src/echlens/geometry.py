"""Exact 2D primitives: rational scalars, cross products, cone tests, parsing.

All scalars are `fractions.Fraction` (or plain int where a value is known to
be integral); nothing in the library ever rounds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import ParseError

# Points and lattice vectors are plain (x, y) pairs.

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the `p` / `p/q` rational syntax (no whitespace, q > 0)."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(value) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_point(p) -> str:
    """`(x,y)` in the rational syntax of the domain files."""
    return f"({format_rational(p[0])},{format_rational(p[1])})"


def cross(u, v):
    """u.x * v.y - u.y * v.x; the single orientation convention of the library."""
    return u[0] * v[1] - u[1] * v[0]


def in_cone(p, n: int) -> bool:
    """Membership in V_n = {r1*(n,1) + r2*(0,1) : r1, r2 >= 0}."""
    return p[0] >= 0 and n * p[1] >= p[0]


def strictly_in_cone(p, n: int) -> bool:
    return p[0] > 0 and n * p[1] > p[0]


def is_primitive(v) -> bool:
    return gcd(abs(v[0]), abs(v[1])) == 1 and v != (0, 0)


def vec_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def parse_point(text: str, line: int, col: int):
    """Parse `(x,y)` with rational coordinates; errors carry line/column."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"expected (x,y), got {text!r}", line, col)
    body = text[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated coordinates in {text!r}", line, col)
    coords = []
    offset = 1
    for part in parts:
        try:
            coords.append(parse_rational(part))
        except ValueError:
            raise ParseError(f"bad rational {part!r}", line, col + offset) from None
        offset += len(part) + 1
    return (coords[0], coords[1])
