"""ECH index formulas for orbit sets, and the path code only they use.

One formula, orbit_set_index, prices an orbit set with exceptional-orbit
powers over a concave domain; the ellipsoid index is that formula on the
ellipsoid's triangle.  Around it live what it and `index orbit` need beyond
the oracle's path code (paths.py): labeled generators and the paths a caller
gives, homology classes, the combinatorial index of a generator, the
rotation numbers of the exceptional orbits, corner corounding with the
boundary height it reads, and the path text form.  The bijectivity check
(bijectivity.py) prices the same index for every orbit set of E_n(a, b) in
a window.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import ceil, gcd

from . import geometry as geo
from .domains import ConcaveDomain, validate_domain
from .ellipsoid import ellipsoid_ints
from .errors import (
    DegenerateEdge,
    DomainError,
    HomologyNotZero,
    InvalidVertex,
    MismatchedN,
    PathError,
    ZeroEdge,
)
from .paths import IntegralPath, empty_path, lattice_count
from .record import Record


class ConcaveGenerator(Record):
    __slots__ = ("path", "labels")  # labels: one 'e'/'h' per distinct edge direction


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


def homology_class(w, n: int):
    """Unique (l, k1, k2) with 0 <= l < n and w + l*(-1,0) = k1*(n,1) + k2*(0,1)."""
    l = w[0] % n
    k1 = (w[0] - l) // n
    k2 = w[1] - k1
    return l, k1, k2


def generator_index(gen: ConcaveGenerator) -> int:
    """Combinatorial index 2*L_n + (number of hyperbolic labels)."""
    return 2 * lattice_count(gen.path) + gen.labels.count("h")


class RotationNumbers(Record):
    __slots__ = ("phi_plus", "phi_minus")  # Fractions


def rotation_numbers(domain: ConcaveDomain) -> RotationNumbers:
    """Rotation numbers of the exceptional orbits, from the end edges: on the
    triangle of E_n(a, b), (a - b)/(n*b) and (b - a)/(n*a)."""
    edges = domain.edge_vectors()
    first, last = edges[0], edges[-1]
    denom_plus = geo.cross(first, (domain.n, 1))
    if denom_plus == 0:
        raise DegenerateEdge("first boundary edge runs along the (n,1)-ray")
    if last[0] == 0:
        raise DegenerateEdge("last boundary edge is vertical")
    return RotationNumbers(
        phi_plus=Fraction(first[1], 1) / denom_plus,
        phi_minus=Fraction(-last[1], 1) / last[0],
    )


def ellipsoid_orbit_index(n: int, a, b, r: int, s: int) -> int:
    """Index of the orbit set e+^r e-^s of E_n(a, b): orbit_set_index on the
    ellipsoid's triangle (n*a, a) (0, b) with the empty generator."""
    ia, ib, _ = ellipsoid_ints(n, a, b)
    # orbit_set_index's guards, with messages in the caller's r and s
    if r < 0 or s < 0:
        raise ValueError("multiplicities must be non-negative")
    if (r + s) % n != 0:
        raise HomologyNotZero(f"r + s = {r + s} is not a multiple of n = {n}")
    # the index depends on the rotation numbers, so only on the ratio b/a
    triangle = validate_domain(n, ((n * ia, ia), (0, ib)))
    empty = ConcaveGenerator(path=empty_path(n), labels=())
    return orbit_set_index(triangle, OrbitSetDescriptor(r, s, empty))


class OrbitSetDescriptor(Record):
    __slots__ = ("m_plus", "m_minus", "generator")  # generator: ConcaveGenerator


def orbit_set_index(domain: ConcaveDomain, orbit: OrbitSetDescriptor) -> int:
    """Index of an orbit set with exceptional-orbit powers: the combinatorial
    index of the auxiliary path (m_plus horizontal unit edges, the
    generator's edges, m_minus horizontal unit edges), plus 2 per
    exceptional orbit and twice each rotation floor sum.

    The floors are read under a perturbation of the end edges that moves
    phi_plus down and phi_minus up, as E_n(a, b) -> E_n(a, b(1+eps)) does
    on the ellipsoid's triangle: floor'(i*phi_plus) is i*phi_plus - 1 where
    that is an integer, so floor'(x) >= x - 1 with equality at integers."""
    n = domain.n
    gen = orbit.generator
    if gen.path.n != n:
        raise MismatchedN(f"generator path has n={gen.path.n}, domain has n={n}")
    m_plus, m_minus = orbit.m_plus, orbit.m_minus
    if m_plus < 0 or m_minus < 0:
        raise ValueError("exceptional multiplicities must be non-negative")
    run = m_plus + m_minus + sum(-d[0] * m for d, m in gen.path.edges)
    if run % n != 0:
        raise HomologyNotZero(f"total horizontal run {run} is not a multiple of n = {n}")
    big_m = run // n
    edges = (((-1, 0), m_plus), *gen.path.edges, ((-1, 0), m_minus))
    aux = IntegralPath(n, (big_m * n, big_m), tuple(e for e in edges if e[1]))
    for v in aux.vertices():
        if not geo.in_cone(v, n):
            raise PathError(f"auxiliary path vertex {v} leaves the cone")
    rot = rotation_numbers(domain)
    total = generator_index(ConcaveGenerator(aux, gen.labels)) + 2 * m_plus + 2 * m_minus
    # each sum runs over 1 <= i <= m of (i*p - shift) // q, phi = p/q: an
    # integral i*phi_plus counts one less, as at E_n(a, b(1+eps))
    for phi, m, shift in ((rot.phi_plus, m_plus, 1), (rot.phi_minus, m_minus, 0)):
        p, q = phi.numerator, phi.denominator
        total += 2 * geo.floor_sum(m, q, p, p - shift)
    return total


# ---------------------------------------------------------------------------
# Corounding the corner


def boundary_height(domain: ConcaveDomain, x):
    """Exact height of the upper boundary over abscissa x (0 <= x <= start.x)."""
    x = Fraction(x)
    verts = domain.vertices
    if not (0 <= x <= verts[0][0]):
        raise ValueError(f"x={x} outside the boundary's span")
    for u, v in zip(verts, verts[1:]):
        if v[0] <= x <= u[0]:
            if u[0] == v[0]:
                return max(u[1], v[1])
            t = (x - v[0]) / (u[0] - v[0])
            return v[1] + t * (u[1] - v[1])
    raise AssertionError("unreachable: x inside span but no edge found")


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


# pattern strings, which re compiles and caches on first use: only
# parse_path_text (`index orbit --path`) reads them
_PATH = r"^start=\((-?\d+),(-?\d+)\);\s*edges=\[(.*?)\](?:;\s*labels=\[(.*?)\])?$"
_EDGE = r"\((-?\d+),(-?\d+)\)x(\d+)"
_EDGE_LIST = rf"\s*(?:{_EDGE}(?:\s*,\s*{_EDGE})*)?\s*"


def parse_path_text(n: int, text: str):
    """Inverse of path_to_text: returns (IntegralPath, labels-or-None)."""
    m = re.match(_PATH, text.strip())
    if m is None:
        raise PathError(f"cannot parse path text {text!r}")
    start = (int(m.group(1)), int(m.group(2)))
    body = m.group(3)
    if re.fullmatch(_EDGE_LIST, body) is None:
        raise PathError(f"cannot parse edge list [{body}]; edges are (dx,dy)xN")
    edges = tuple(((int(dx), int(dy)), int(k)) for dx, dy, k in re.findall(_EDGE, body))
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
