"""Concave integral lattice paths in V_n and their enumeration.

A path runs from a lattice point M*(n,1) on the ray to a lattice point on the
y-axis, with leftward primitive edge directions of strictly increasing slope.
This module holds what the oracle route runs: the path record, the enclosed
lattice count L_n, and the one depth-first walk over all paths up to a count,
in which each column's heights run from the slope bound to the first chain
that cannot close within the count.  The walk holds no path: it carries a
value down each chain (the oracle's running length) and hands it over as the
path closes, so a walk holds its recursion and what its consumer keeps.  The
buckets of all paths are collected from the same walk.  Paths given by a caller,
corner corounding, the combinatorial index of labeled generators and the
path text form serve the index formulas, in index.py.
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


def _edge_count(n: int, x1, y1, x2, y2) -> int:
    """Count contribution of columns x2 <= c < x1 for the edge (x1,y1)->(x2,y2):
    the lattice points of the cone strictly below the edge, ceil(h(c)) -
    ceil(c/n) in column c, where h is the edge's height."""
    dy, w = y2 - y1, x1 - x2
    return w * y2 - geo.floor_sum(w, w, dy, 0) + geo.floor_sum(w, n, -1, -x2)


def lattice_count(path: IntegralPath) -> int:
    """L_n: lattice points enclosed by the path and the two rays, minus the path.

    Works for any chain of vertices with strictly decreasing x that stays in
    the cone; concavity is not assumed (the auxiliary paths of the orbit-set
    index are not concave).  The empty path has one vertex and counts 0.
    """
    verts = path.vertices()
    return sum(_edge_count(path.n, *u, *v) for u, v in zip(verts, verts[1:]))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


# paths per walk: n = 1 closes 942 258 at kmax 62 in about 3 s, and every
# n >= 32 closes 1 012 004 at kmax 32 in about 6 s (2 vCPUs)
PATH_BUDGET = 1 << 20
# columns scanned per walk, which grow with n where paths do not:
# (100, 24) scans 501 570 of them, n = 10**9 at kmax 1 a billion
COLUMN_BUDGET = 1 << 21


def _completion_bound(n: int, x2, y2, dx, dy) -> int:
    """Cone points in columns 0 <= c < x2 on or below the line of the edge
    (dx, dy), dx < 0, that ends at (x2, y2); no column count is negative, as
    enumerated edges have n*dy - dx > 0 and end in the cone."""
    return x2 * (y2 + 1) + geo.floor_sum(x2, -dx, -dy, dy * x2) + geo.floor_sum(x2, n, -1, 0)


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
    to its left end up enclosed: a chain whose count plus this completion
    bound exceeds kmax is dead.  Raising the new vertex in its column pivots
    the edge's line upward about the previous vertex, so the count and the
    bound both only grow with the height, and each column's heights run from
    the slope bound to the first dead chain.  Closing more than PATH_BUDGET
    paths, or scanning more than COLUMN_BUDGET columns (each call scans the
    x1 columns left of its vertex), raises ResourceLimit; n < 1 or a
    negative kmax raises EchLensError.  At least one path closes at each
    k <= kmax, so a kmax of PATH_BUDGET or more raises ResourceLimit before
    the walk starts.
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
                new_count = count + _edge_count(n, x1, y1, x2, y2)
                if new_count + _completion_bound(n, x2, y2, dx, dy) > kmax:
                    break
                g = gcd(dx, dy)
                new_value = step(value, (dx // g, dy // g), g)
                if x2 == 0:
                    found += 1
                    if found > PATH_BUDGET:
                        raise ResourceLimit(
                            f"n={n}, kmax={kmax}: more paths than the budget of {PATH_BUDGET}"
                        )
                    close(new_count, new_value)
                else:
                    extend(x2, y2, new_value, new_count, dx, dy)
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
