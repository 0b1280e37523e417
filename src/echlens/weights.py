"""Weight expansion of rational concave toric domains.

The first peel takes the largest inscribed singular-ball triangle off a
domain in V_n; every later peel takes a classical ball triangle off a piece.
Each remaining piece is carried to a domain in V_1, where the classical peel
is the singular peel at n = 1, so one peel runs on an explicit work list.
The peel maps are integer-affine and a peeled size is a vertex height, so
the expansion runs on the domain's ints over its one denominator.  It
terminates for rational input, and is refused past PEEL_BUDGET weights.
"""

from __future__ import annotations

from .domains import ConcaveDomain, _check_chain, _lowest_terms, _twice_area
from .errors import DomainError, ResourceLimit
from .geometry import format_ratio
from .record import Record

PEEL_BUDGET = 1 << 17  # plain weights; (1,1)(0,m) has m - 1, so m = 10**5 fits


class WeightExpansion(Record):
    # ints over the domain's scale, plain sorted non-increasing
    __slots__ = ("singular", "plain", "scale")

    @property
    def singular_weight(self):
        from fractions import Fraction

        return Fraction(self.singular, self.scale)

    @property
    def plain_weights(self) -> tuple:
        from fractions import Fraction

        return tuple(Fraction(w, self.scale) for w in self.plain)


def split_domain(domain: ConcaveDomain):
    """Peel the largest inscribed singular-ball triangle.

    Returns (a, left_piece, right_piece); a piece is None when empty.  Both
    pieces are domains in V_1, each carried there by a unimodular map:

    - left: the chain from the last lowest vertex on, by
      (x, y) -> (x, x + y - a), which takes the quadrant x >= 0, y >= a
      onto V_1;
    - right: the chain up to the first lowest vertex, by
      (x, y) -> (y - a, (n+1)(y - a) - (x - n a)), which takes the cone at
      the triangle corner a*(n,1) spanned by (n,1) and (-1,0) onto V_1.

    A piece that fails validation is a broken invariant (AssertionError),
    not bad input.
    """
    from fractions import Fraction

    s = domain.scale
    a, *pieces = _peel(domain.n, domain.ints, s)
    return Fraction(a, s), *(None if p is None else _lowest_terms(1, p, s) for p in pieces)


def _peel(n: int, verts, scale: int):
    # split_domain on an int chain: a and the pieces are ints over its scale
    heights = [y for _, y in verts]
    a = min(heights)
    first = heights.index(a)
    last = len(heights) - 1 - heights[::-1].index(a)

    left = None
    if last < len(verts) - 1:
        left = _piece([(x, x + y - a) for x, y in verts[last:]], scale)

    right = None
    if first > 0:
        right = _piece(
            [(y - a, (n + 1) * (y - a) - (x - n * a)) for x, y in verts[: first + 1]], scale
        )

    return a, left, right


def _piece(verts, scale: int):
    try:
        _check_chain(1, verts, scale)
    except DomainError as exc:
        raise AssertionError(f"peeled piece is not a V_1 domain: {exc}") from exc
    return verts


def singular_weight_expansion(domain: ConcaveDomain) -> WeightExpansion:
    """One singular weight plus the classical weights of the two side pieces."""
    a, *work = _peel(domain.n, domain.ints, domain.scale)
    plain = []
    while work:
        piece = work.pop()
        if piece is not None:
            if len(plain) == PEEL_BUDGET:
                raise ResourceLimit(
                    f"weight expansion: more plain weights than the budget of {PEEL_BUDGET}"
                )
            w, *pieces = _peel(1, piece, domain.scale)
            plain.append(w)
            work.extend(pieces)
    expansion = WeightExpansion(a, tuple(sorted(plain, reverse=True)), domain.scale)
    _check_area(domain, expansion)
    return expansion


def _check_area(domain: ConcaveDomain, expansion: WeightExpansion):
    # n*w0^2 + sum w_i^2 must reproduce twice the domain area exactly, all
    # as ints over scale^2
    total = domain.n * expansion.singular**2 + sum(w * w for w in expansion.plain)
    area, double = _twice_area(domain), 2 * domain.scale**2
    if total != area:
        raise AssertionError(
            f"weight expansion area {format_ratio(total, double)} does not match "
            f"domain area {format_ratio(area, double)}"
        )
