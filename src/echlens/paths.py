"""Concave integral lattice paths in V_n and their enumeration.

A path runs from a lattice point M*(n,1) on the ray to a lattice point on the
y-axis, with leftward primitive edge directions of strictly increasing slope.
This module holds what the oracle route runs: the path record, the one
lattice count and L_n built from it, and the one depth-first walk over all
paths up to a count, which holds no path and hands each chain's value (the
oracle's running length) to its consumer as the path closes.  Paths given by
a caller, corner corounding, the combinatorial index of labeled generators
and the path text form serve the index formulas, in index.py.
"""

from __future__ import annotations

from math import gcd

from . import geometry as geo
from .errors import EchLensError, ResourceLimit
from .record import Record, _set


class IntegralPath(Record):
    # start: (M*n, M), integers; edges: (((-p, q), mult), ...) primitive
    # directions, slopes increasing
    __slots__ = ("n", "start", "edges")

    def __init__(self, n, start, edges):
        # positional and explicit: the enumeration builds one per path
        _set(self, "n", n)
        _set(self, "start", start)
        _set(self, "edges", edges)

    def vertices(self):
        out = [self.start]
        cur = self.start
        for (dx, dy), m in self.edges:
            cur = (cur[0] + m * dx, cur[1] + m * dy)
            out.append(cur)
        return out


def empty_path(n: int) -> IntegralPath:
    return IntegralPath(n=n, start=(0, 0), edges=())


def _below_line(n: int, x, y, d) -> int:
    """The one lattice count: floor(h(c)) + 1 - ceil(c/n) over 0 <= c < x,
    for h the line through (x, y) along d, dx < 0.  An edge of g steps along
    d from u to v has below(u) - below(v) - g cone points strictly under it,
    as floor(h) + 1 - ceil(h) is 1 exactly at its lattice points."""
    return x * (y + 1) + geo.floor_sum(x, -d[0], -d[1], d[1] * x) + geo.floor_sum(x, n, -1, 0)


def lattice_count(path: IntegralPath) -> int:
    """L_n: lattice points enclosed by the path and the two rays, minus the
    path, one _below_line difference per edge.  Works for any chain of
    primitive edges with strictly decreasing x that stays in the cone;
    concavity is not assumed (the auxiliary paths of the orbit-set index are
    not concave).  The empty path counts 0."""
    n, (x, y), total = path.n, path.start, 0
    for d, m in path.edges:
        total += _below_line(n, x, y, d) - m
        x, y = x + m * d[0], y + m * d[1]
        total -= _below_line(n, x, y, d)
    return total


# ---------------------------------------------------------------------------
# Exhaustive enumeration


# paths per walk: n = 1 closes 942 258 at kmax 62 in about 1.4 s, and every
# n >= 32 closes 1 012 004 at kmax 32 in about 3.5 s (2 vCPUs)
PATH_BUDGET = 1 << 20
# columns scanned per walk, which grow with n where paths do not:
# (100, 24) scans 501 570 of them, n = 10**9 at kmax 1 a billion
COLUMN_BUDGET = 1 << 21


def _enumerate_all(n: int, kmax: int, begin, step, close):
    """The one depth-first walk over the concave paths with L_n <= kmax,
    which holds no path: each chain carries a value down the recursion next
    to its running count.  A chain from M*(n,1) starts with begin(M), an
    edge of g steps along the primitive direction d turns the value v into
    step(v, d, g), and close(k, v) receives it when the path closes with
    L_n = k; the empty path closes first, as close(0, begin(0)).  The paths
    of each k close in the same order for every kmax.

    A path from M*(n,1) encloses the M ray points below its start, so
    M <= L_n.  Each new vertex lies strictly above the line of the previous
    edge (of the ray, for the first edge), which also keeps it strictly
    inside the cone.  Every continuation from a new vertex lies strictly
    above the line of the new edge, so the cone points on or below that line
    end up enclosed: with the edge's own, _below_line(x1, y1, d) - g for an
    edge of g steps along d.  A chain whose count plus these exceeds kmax is
    dead.  Raising the new vertex in its column pivots the edge's line
    upward about the previous vertex, so they only grow with the height, and
    each column's heights run from the slope bound to the first dead chain:
    one count per column for it, and one or, unless it closes, two per live
    chain.  Closing more than PATH_BUDGET paths, or scanning more than
    COLUMN_BUDGET columns (each call scans the x1 columns left of its
    vertex), raises ResourceLimit; n < 1 or a negative kmax raises
    EchLensError.  A path closes at each k <= kmax, so a kmax of PATH_BUDGET
    or more raises ResourceLimit before the walk starts.
    """
    if n < 1:
        raise EchLensError(f"n must be a positive integer, got {n}")
    if kmax < 0:
        raise EchLensError(f"kmax must be non-negative, got {kmax}")
    if kmax >= PATH_BUDGET:
        raise ResourceLimit(f"n={n}, kmax={kmax}: more paths than the budget of {PATH_BUDGET}")
    found = 1
    columns = 0

    def extend(x1, y1, value, count, px, py):
        nonlocal found, columns
        columns += x1
        if columns > COLUMN_BUDGET:
            raise ResourceLimit(
                f"n={n}, kmax={kmax}: more columns than the budget of {COLUMN_BUDGET}"
            )
        for x2 in range(x1 - 1, -1, -1):
            y2 = y1 + (py * (x2 - x1)) // px + 1
            while True:
                dx, dy = x2 - x1, y2 - y1
                g = gcd(dx, dy)
                d = (dx // g, dy // g)
                total = count + _below_line(n, x1, y1, d) - g
                if total > kmax:
                    break
                new_value = step(value, d, g)
                if x2 == 0:
                    found += 1
                    if found > PATH_BUDGET:
                        raise ResourceLimit(
                            f"n={n}, kmax={kmax}: more paths than the budget of {PATH_BUDGET}"
                        )
                    close(total, new_value)  # nothing lies left of the y-axis
                else:
                    extend(x2, y2, new_value, total - _below_line(n, x2, y2, d), dx, dy)
                y2 += 1

    close(0, begin(0))
    for m in range(1, kmax + 1):
        extend(m * n, m, begin(m), 0, -n, -1)


def enumerate_paths_up_to(n: int, kmax: int):
    """Buckets {k: paths with L_n = k} for all k <= kmax, each in the walk's
    depth-first order (the same for every kmax), collected from one walk;
    ResourceLimit past PATH_BUDGET paths or COLUMN_BUDGET columns."""
    buckets = {}
    _enumerate_all(
        n,
        kmax,
        lambda m: ((m * n, m), ()),
        lambda chain, d, g: (chain[0], chain[1] + ((d, g),)),
        lambda k, chain: buckets.setdefault(k, []).append(IntegralPath(n, *chain)),
    )
    return {k: tuple(buckets.get(k, ())) for k in range(kmax + 1)}
