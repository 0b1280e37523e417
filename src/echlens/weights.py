"""Weight expansion of rational concave toric domains.

The first peel takes the largest inscribed singular-ball triangle off a
domain in V_n; every later peel takes a classical ball triangle off a piece.
Each remaining piece is carried to a domain in V_1, where the classical peel
is the singular peel at n = 1, so one peel runs on an explicit work list.
The expansion terminates for rational input.
"""

from __future__ import annotations

from fractions import Fraction

from .domains import ConcaveDomain, domain_area, singular_ball_capacity, validate_domain
from .errors import DomainError
from .record import Record


class WeightExpansion(Record):
    __slots__ = ("singular_weight", "plain_weights")  # plain_weights sorted non-increasing

    def as_multiset(self):
        return [self.singular_weight, *self.plain_weights]


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
    n = domain.n
    verts = domain.vertices
    a = singular_ball_capacity(domain)
    heights = [y for _, y in verts]
    first = heights.index(a)
    last = len(heights) - 1 - heights[::-1].index(a)

    left = None
    if last < len(verts) - 1:
        left = _piece([(x, x + y - a) for x, y in verts[last:]])

    right = None
    if first > 0:
        right = _piece(
            [(y - a, (n + 1) * (y - a) - (x - n * a)) for x, y in verts[: first + 1]]
        )

    return a, left, right


def _piece(vertices) -> ConcaveDomain:
    try:
        return validate_domain(1, vertices)
    except DomainError as exc:
        raise AssertionError(f"peeled piece is not a V_1 domain: {exc}") from exc


def singular_weight_expansion(domain: ConcaveDomain) -> WeightExpansion:
    """One singular weight plus the classical weights of the two side pieces."""
    a, *work = split_domain(domain)
    plain = []
    while work:
        piece = work.pop()
        if piece is not None:
            w, *pieces = split_domain(piece)
            plain.append(w)
            work.extend(pieces)
    expansion = WeightExpansion(
        singular_weight=a, plain_weights=tuple(sorted(plain, reverse=True))
    )
    _check_area(domain, expansion)
    return expansion


def _check_area(domain: ConcaveDomain, expansion: WeightExpansion):
    # n*w0^2/2 + sum w_i^2/2 must reproduce the domain area exactly
    total = Fraction(domain.n) * expansion.singular_weight**2 / 2
    total += sum((w * w for w in expansion.plain_weights), Fraction(0)) / 2
    area = domain_area(domain)
    if total != area:
        raise AssertionError(
            f"weight expansion area {total} does not match domain area {area}"
        )
