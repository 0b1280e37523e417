"""Concave integral lattice paths in V_n.

A path runs from a lattice point M*(n,1) on the ray to a lattice point on the
y-axis, with leftward primitive edge directions of strictly increasing slope.
Its vertices are exactly a lattice concave chain, so a path given by a caller
is validated as a domain boundary by `domains.validate_domain`.
The enclosed lattice count L_n, the enumeration of all paths up to a count
(one cached search per n, in which each column's heights run from the slope
bound to the first chain that cannot close within the count), corner
corounding, homology classes, and the combinatorial index of labeled
generators all live here.
"""

from __future__ import annotations

import re
from math import ceil, gcd

from . import geometry as geo
from .domains import boundary_height, validate_domain
from .errors import DomainError, InvalidVertex, PathError, ResourceLimit, ZeroEdge
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


class ConcaveGenerator(Record):
    __slots__ = ("path", "labels")  # labels: one 'e'/'h' per distinct edge direction


def empty_path(n: int) -> IntegralPath:
    return IntegralPath(n=n, start=(0, 0), edges=())


def _boundary(path: IntegralPath):
    """The path's vertices as a validated domain boundary chain in V_n."""
    try:
        return validate_domain(path.n, path.vertices())
    except DomainError as exc:
        raise PathError(str(exc)) from exc


def make_path(n: int, start, edges) -> IntegralPath:
    """The empty path at the origin, or a path with primitive directions and
    positive multiplicities whose vertices validate_domain accepts as a
    boundary chain of V_n (so it starts at M*(n,1) with M > 0)."""
    if n < 1:
        raise PathError(f"n must be positive, got {n}")
    for d, m in edges:
        if not geo.is_primitive(d):
            raise PathError(f"direction {geo.format_point(d)} is not primitive")
        if m < 1:
            raise PathError(f"multiplicity {m} must be positive")
    path = IntegralPath(n=n, start=tuple(start), edges=tuple(edges))
    if path != empty_path(n):
        _boundary(path)
    return path


def path_from_vertices(n: int, verts) -> IntegralPath:
    """Build a path from a chain of lattice vertices, collapsing to primitive edges."""
    edges = []
    for u, v in zip(verts, verts[1:]):
        dx, dy = v[0] - u[0], v[1] - u[1]
        if (dx, dy) == (0, 0):
            raise ZeroEdge("repeated vertex in chain")
        g = gcd(abs(dx), abs(dy))
        d = (dx // g, dy // g)
        if edges and edges[-1][0] == d:
            edges[-1] = (d, edges[-1][1] + g)
        else:
            edges.append((d, g))
    return make_path(n, verts[0] if verts else (0, 0), tuple(edges))


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


def homology_class(w, n: int):
    """Unique (l, k1, k2) with 0 <= l < n and w + l*(-1,0) = k1*(n,1) + k2*(0,1)."""
    l = w[0] % n
    k1 = (w[0] - l) // n
    k2 = w[1] - k1
    return l, k1, k2


def generator_index(gen: ConcaveGenerator) -> int:
    """Combinatorial index 2*L_n + (number of hyperbolic labels)."""
    return 2 * lattice_count(gen.path) + gen.labels.count("h")


# ---------------------------------------------------------------------------
# Exhaustive enumeration


_ENUM_CACHE = {}  # n -> buckets of the largest kmax enumerated so far
PATH_BUDGET = 1 << 17  # paths per enumeration; every n >= 24 has 109 016 with L_n <= 24


def _completion_bound(n: int, x2, y2, dx, dy) -> int:
    """Cone points in columns 0 <= c < x2 on or below the line of the edge
    (dx, dy), dx < 0, that ends at (x2, y2); no column count is negative, as
    enumerated edges have n*dy - dx > 0 and end in the cone."""
    return x2 * (y2 + 1) + geo.floor_sum(x2, -dx, -dy, dy * x2) + geo.floor_sum(x2, n, -1, 0)


def _enumerate_all(n: int, kmax: int):
    """All concave paths with L_n <= kmax, bucketed by L_n into tuples in
    depth-first order.

    A path from M*(n,1) encloses the M ray points below its start, so
    M <= L_n.  Each new vertex lies strictly above the line of the previous
    edge (of the ray, for the first edge), which also keeps it strictly
    inside the cone.  Every continuation from a new vertex lies strictly
    above the line of the new edge, so the cone points on or below that line
    to its left end up enclosed: a chain whose count plus this completion
    bound exceeds kmax is dead.  Raising the new vertex in its column pivots
    the edge's line upward about the previous vertex, so the count and the
    bound both only grow with the height, and each column's heights run from
    the slope bound to the first dead chain.  Building more than
    PATH_BUDGET paths raises ResourceLimit.
    """
    buckets = {k: [] for k in range(kmax + 1)}
    buckets[0].append(empty_path(n))
    found = 1

    def extend(start, x1, y1, edges, count, px, py):
        nonlocal found
        for x2 in range(x1 - 1, -1, -1):
            y2 = y1 + (py * (x2 - x1)) // px + 1
            while True:
                dx, dy = x2 - x1, y2 - y1
                new_count = count + _edge_count(n, x1, y1, x2, y2)
                if new_count + _completion_bound(n, x2, y2, dx, dy) > kmax:
                    break
                g = gcd(dx, dy)
                new_edges = edges + (((dx // g, dy // g), g),)
                if x2 == 0:
                    found += 1
                    if found > PATH_BUDGET:
                        raise ResourceLimit(
                            f"n={n}, kmax={kmax}: more paths than the budget of {PATH_BUDGET}"
                        )
                    buckets[new_count].append(IntegralPath(n, start, new_edges))
                else:
                    extend(start, x2, y2, new_edges, new_count, dx, dy)
                y2 += 1

    for m in range(1, kmax + 1):
        extend((m * n, m), m * n, m, (), 0, -n, -1)
    return {k: tuple(bucket) for k, bucket in buckets.items()}


def enumerate_paths_up_to(n: int, kmax: int):
    """Buckets {k: paths with L_n = k} for all k <= kmax, in the enumeration's
    depth-first order (the same for every kmax), read from one cached
    enumeration per n; ResourceLimit past PATH_BUDGET paths, caching nothing."""
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    cached = _ENUM_CACHE.get(n)
    if cached is None or len(cached) <= kmax:
        cached = _ENUM_CACHE[n] = _enumerate_all(n, kmax)
    return {k: cached[k] for k in range(kmax + 1)}


# ---------------------------------------------------------------------------
# Corounding the corner


def coround_corner(path: IntegralPath, vertex_index: int) -> IntegralPath:
    """Replace the path by the hull boundary of its upper lattice region minus
    the addressed corner.

    The result never has larger length and never has a smaller L_n than the
    input; if the corner removal changes nothing the input is returned.
    """
    verts = path.vertices()
    if not 1 <= vertex_index <= len(verts) - 2:
        raise InvalidVertex(f"vertex index {vertex_index} is not an interior vertex")
    corner = verts[vertex_index]
    n = path.n
    sx = path.start[0]
    boundary = _boundary(path)

    # Per-column lowest lattice point of the upper region, skipping the corner;
    # plus ray columns beyond the start so the hull rides the (n,1)-direction.
    candidates = []
    for c in range(0, sx + 1):
        ymin = ceil(boundary_height(boundary, c))
        if (c, ymin) == corner:
            ymin += 1
        candidates.append((c, ymin))
    for c in range(sx + 1, sx + 2 * n + 1):
        candidates.append((c, -(-c // n)))

    # lower convex hull, left to right
    hull = []
    for pt in candidates:
        while len(hull) >= 2 and geo.cross(
            (hull[-1][0] - hull[-2][0], hull[-1][1] - hull[-2][1]),
            (pt[0] - hull[-1][0], pt[1] - hull[-1][1]),
        ) <= 0:
            hull.pop()
        hull.append(pt)
    chain = [pt for pt in hull if pt[0] <= sx]
    if not chain or chain[-1] != path.start:
        chain = [pt for pt in chain if pt[0] < sx] + [path.start]
    chain.reverse()  # traversal from the ray to the y-axis
    new_path = path_from_vertices(n, chain)
    if new_path == path:
        return path
    return new_path


# ---------------------------------------------------------------------------
# Text form (CLI debugging output)


_PATH_RE = re.compile(
    r"^start=\((-?\d+),(-?\d+)\);\s*edges=\[(.*?)\](?:;\s*labels=\[(.*?)\])?$"
)
_EDGE = r"\((-?\d+),(-?\d+)\)x(\d+)"
_EDGE_RE = re.compile(_EDGE)
_EDGE_LIST_RE = re.compile(rf"\s*(?:{_EDGE}(?:\s*,\s*{_EDGE})*)?\s*")


def parse_path_text(n: int, text: str):
    """Inverse of path_to_text: returns (IntegralPath, labels-or-None)."""
    m = _PATH_RE.match(text.strip())
    if m is None:
        raise PathError(f"cannot parse path text {text!r}")
    start = (int(m.group(1)), int(m.group(2)))
    body = m.group(3)
    if _EDGE_LIST_RE.fullmatch(body) is None:
        raise PathError(f"cannot parse edge list [{body}]; edges are (dx,dy)xN")
    edges = tuple(((int(dx), int(dy)), int(k)) for dx, dy, k in _EDGE_RE.findall(body))
    labels, text = None, m.group(4)
    if text is not None:
        # an empty token is an error; only `labels=[]` lists no labels
        labels = tuple(tok.strip() for tok in text.split(",")) if text.strip() else ()
        if any(lab not in ("e", "h") for lab in labels):
            raise PathError(f"labels must be 'e' or 'h', got [{text}]")
        if len(labels) != len(edges):
            raise PathError("need exactly one label per distinct edge direction")
    return make_path(n, start, edges), labels


def path_to_text(path: IntegralPath, labels=None) -> str:
    edges = ", ".join(f"({d[0]},{d[1]})x{m}" for d, m in path.edges)
    text = f"start=({path.start[0]},{path.start[1]}); edges=[{edges}]"
    if labels is not None:
        text += "; labels=[" + ",".join(labels) + "]"
    return text
