"""The ECH index formula for orbit sets, and the path code only it uses.

One formula, orbit_set_index, prices an orbit set with exceptional-orbit
powers over a concave domain.  Around it live what it and `index orbit` need
beyond the oracle's path code (paths.py): labeled generators and the paths a
caller gives, the combinatorial index of a generator, corner corounding and
the path text form.  Its rotation floors are read in bijectivity.py, on ints;
on the ellipsoid's triangle with the empty generator the formula is the int
closed form there, which prices E_n(a, b)'s orbit sets without it.
"""

from __future__ import annotations

import re
from math import gcd

from . import geometry as geo
from .bijectivity import _end_rotations, _rotation_sum
from .domains import ConcaveDomain, _check_chain, _is_pair
from .errors import EchLensError
from .paths import IntegralPath, empty_path, lattice_count
from .record import Record


class ConcaveGenerator(Record):
    __slots__ = ("path", "labels")  # labels: one 'e'/'h' per distinct edge direction


def make_path(n: int, start, edges) -> IntegralPath:
    """The empty path at the origin, or a path with primitive directions and
    positive multiplicities whose vertices pass the domain chain check as a
    boundary chain of V_n (so it starts at M*(n,1) with M > 0)."""
    if n < 1:
        raise EchLensError(f"n must be positive, got {n}")
    if not _is_pair(start, int):
        raise EchLensError(f"start {start!r} is not a pair of ints")
    for edge in edges:
        if not (_is_pair(edge, object) and _is_pair(edge[0], int) and isinstance(edge[1], int)):
            raise EchLensError(f"edge {edge!r} is not ((dx, dy), m) of ints")
        d, m = edge
        if not geo.is_primitive(d):
            raise EchLensError(f"direction {geo.format_point(d)} is not primitive")
        if m < 1:
            raise EchLensError(f"multiplicity {m} must be positive")
    path = IntegralPath(n=n, start=tuple(start), edges=tuple(edges))
    if path != empty_path(n):
        _check_chain(n, path.vertices(), 1)
    return path


def _edges(verts) -> tuple:
    """The primitive edges of a chain of lattice vertices, collinear runs merged."""
    edges = []
    for u, v in zip(verts, verts[1:]):
        dx, dy = v[0] - u[0], v[1] - u[1]
        if (dx, dy) == (0, 0):
            raise EchLensError("repeated vertex in chain")
        g = gcd(abs(dx), abs(dy))
        d = (dx // g, dy // g)
        if edges and edges[-1][0] == d:
            edges[-1] = (d, edges[-1][1] + g)
        else:
            edges.append((d, g))
    return tuple(edges)


def path_from_vertices(n: int, verts) -> IntegralPath:
    """Build a path from a chain of lattice vertices, collapsing to primitive edges."""
    return make_path(n, verts[0] if verts else (0, 0), _edges(verts))


def generator_index(gen: ConcaveGenerator) -> int:
    """Combinatorial index 2*L_n + (number of hyperbolic labels)."""
    return 2 * lattice_count(gen.path) + gen.labels.count("h")


def orbit_set_index(
    domain: ConcaveDomain, generator: ConcaveGenerator, m_plus: int, m_minus: int
) -> int:
    """Index of an orbit set with exceptional-orbit powers: the combinatorial
    index of the auxiliary path (m_plus horizontal unit edges, the
    generator's edges, m_minus horizontal unit edges), plus 2 per
    exceptional orbit and twice each rotation floor sum, read from the
    domain's int end edges by bijectivity's _end_rotations.  The generator
    is checked as make_path and parse_path_text check theirs, so each
    auxiliary vertex, a generator vertex plus (m_minus, (m_plus +
    m_minus)/n), stays in the cone."""
    n = domain.n
    path = generator.path
    if path.n != n:
        raise EchLensError(f"generator path has n={path.n}, domain has n={n}")
    if m_plus < 0 or m_minus < 0:
        raise EchLensError("exceptional multiplicities must be non-negative")
    make_path(n, path.start, path.edges)
    _check_labels(generator.labels, path.edges, ",".join(map(str, generator.labels)))
    run = m_plus + m_minus + sum(-d[0] * m for d, m in path.edges)
    if run % n != 0:
        # format_ratio raises EchLensError past Python's int-to-text digit limit
        shown = geo.format_ratio(run, 1)
        raise EchLensError(f"total horizontal run {shown} is not a multiple of n = {n}")
    big_m = run // n
    edges = (((-1, 0), m_plus), *path.edges, ((-1, 0), m_minus))
    aux = IntegralPath(n, (big_m * n, big_m), tuple(e for e in edges if e[1]))
    ints = domain.ints
    plus, minus = _end_rotations(n, geo.vec_sub(ints[1], ints[0]), geo.vec_sub(ints[-1], ints[-2]))
    total = generator_index(ConcaveGenerator(aux, generator.labels)) + 2 * m_plus + 2 * m_minus
    return total + 2 * (_rotation_sum(plus, m_plus) + _rotation_sum(minus, m_minus))


# ---------------------------------------------------------------------------
# Corounding the corner


def coround_corner(path: IntegralPath, vertex_index: int) -> IntegralPath:
    """Replace the path by the hull boundary of its upper lattice region minus
    the addressed corner v.  Only the lattice triangle of v and its lattice
    neighbours v - da and v + db on its edges (da, db primitive) changes: the
    lower hull of the lowest lattice point on or above the boundary in each
    of its columns, one higher at v, replaces v.  The result never has
    smaller length and never a smaller L_n than the input.  The input chain
    is checked; the result is built from it unchecked, as the hull keeps it
    concave and in the cone."""
    verts = path.vertices()
    if not 1 <= vertex_index <= len(verts) - 2:
        raise EchLensError(f"vertex index {vertex_index} is not an interior vertex")
    _check_chain(path.n, verts, 1)
    v = verts[vertex_index]
    da, db = path.edges[vertex_index - 1][0], path.edges[vertex_index][0]
    # both edge lines pass through v; lower hull, left to right
    hull = []
    for c in range(v[0] + db[0], v[0] - da[0] + 1):
        dx, dy = db if c <= v[0] else da
        pt = (c, v[1] - ((v[0] - c) * dy) // dx + (c == v[0]))
        while len(hull) >= 2 and geo.cross(
            geo.vec_sub(hull[-1], hull[-2]), geo.vec_sub(pt, hull[-1])
        ) <= 0:
            hull.pop()
        hull.append(pt)
    # the hull, right to left, between the vertices before and after the
    # corner (a neighbour on an edge of multiplicity 1 is that vertex); the
    # path turns at both, so no run of edges merges across them
    local = [verts[vertex_index - 1], *hull[::-1], verts[vertex_index + 1]]
    edges = _edges([p for p, q in zip(local, [None, *local]) if p != q])
    edges = path.edges[: vertex_index - 1] + edges + path.edges[vertex_index + 1 :]
    return IntegralPath(path.n, path.start, edges)


# ---------------------------------------------------------------------------
# Text form (CLI debugging output)


# pattern strings, which re compiles and caches on first use: only
# parse_path_text (`index orbit --path`) reads them
_PATH = r"^start=\((-?\d+),(-?\d+)\);\s*edges=\[(.*?)\](?:;\s*labels=\[(.*?)\])?$"
_EDGE = r"\((-?\d+),(-?\d+)\)x(\d+)"
_EDGE_LIST = rf"\s*(?:{_EDGE}(?:\s*,\s*{_EDGE})*)?\s*"


def parse_path_text(n: int, text: str):
    """Inverse of path_to_text: returns (IntegralPath, labels-or-None)."""
    m = re.match(_PATH, text.strip())
    if m is None:
        raise EchLensError(f"cannot parse path text {text!r}")
    try:
        start = (int(m.group(1)), int(m.group(2)))
        body = m.group(3)
        if re.fullmatch(_EDGE_LIST, body) is None:
            raise EchLensError(f"cannot parse edge list [{body}]; edges are (dx,dy)xN")
        edges = tuple(((int(dx), int(dy)), int(k)) for dx, dy, k in re.findall(_EDGE, body))
    except ValueError as exc:  # an integer past Python's digit limit
        raise EchLensError(str(exc)) from None
    labels, text = None, m.group(4)
    if text is not None:
        # an empty token is an error; only `labels=[]` lists no labels
        labels = tuple(tok.strip() for tok in text.split(",")) if text.strip() else ()
        _check_labels(labels, edges, text)
    return make_path(n, start, edges), labels


def _check_labels(labels, edges, text: str):
    """One label, 'e' or 'h', per edge; `text` shows the labels in errors."""
    if any(lab not in ("e", "h") for lab in labels):
        raise EchLensError(f"labels must be 'e' or 'h', got [{text}]")
    if len(labels) != len(edges):
        raise EchLensError("need exactly one label per distinct edge direction")


def path_to_text(path: IntegralPath, labels=None) -> str:
    edges = ", ".join(f"({d[0]},{d[1]})x{m}" for d, m in path.edges)
    text = f"start=({path.start[0]},{path.start[1]}); edges=[{edges}]"
    if labels is not None:
        text += "; labels=[" + ",".join(labels) + "]"
    return text
