"""Exact 2D primitives: rational scalars, cross products, cone tests, parsing.

Rationals are parsed to, and printed from, int pairs (p, q) with q > 0.
Nothing rounds.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import EchLensError, ParseError

# Points and lattice vectors are plain (x, y) pairs.

_RATIONAL_RE = re.compile(r"^-?\d+(?:/0*[1-9]\d*)?$")


def parse_ratio(text: str) -> tuple:
    """(p, q) from the `p` / `p/q` rational syntax (no whitespace, q > 0)."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal with q > 0: {text!r}")
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def format_ratio(p: int, q: int) -> str:
    """The rational p/q, for ints p and q > 0, as `p` or `p/q` in lowest
    terms: the text of str(Fraction(p, q)).  A part too long for Python's
    int-to-text limit raises EchLensError with Python's text."""
    g = gcd(p, q)
    try:
        return str(p // g) if g == q else f"{p // g}/{q // g}"
    except ValueError as exc:  # past Python's int-to-text digit limit
        raise EchLensError(str(exc)) from None


def format_point(p, scale: int = 1) -> str:
    """The int point p over `scale` as `(x,y)` in the domain-file syntax."""
    return f"({format_ratio(p[0], scale)},{format_ratio(p[1], scale)})"


def cross(u, v):
    """u.x * v.y - u.y * v.x; the single orientation convention of the library."""
    return u[0] * v[1] - u[1] * v[0]


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of (a*i + b) // m over 0 <= i < n, for m > 0 and ints a, b of any
    sign, in O(log m) steps (the floor_sum recursion of the AtCoder Library).
    The library's lattice counts and single rotation-floor sums are all one."""
    total = 0
    while True:
        total += a // m * (n * (n - 1) // 2) + b // m * n
        a %= m
        b %= m
        # now 0 <= a, b < m: counted by rows, the lattice points under the
        # line y = (a*x + b)/m are the same sum with m and a swapped
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = y_max // m, y_max % m
        m, a = a, m


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
    """Parse `(x,y)` with rational coordinates into two parse_ratio pairs;
    errors carry line/column."""
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
            coords.append(parse_ratio(part))
        except ValueError:
            raise ParseError(f"bad rational {part!r}", line, col + offset) from None
        offset += len(part) + 1
    return (coords[0], coords[1])
