"""E_n(a, b)'s orbit-set index, its bijectivity and the spectrum it certifies.

Every index formula reads the exceptional orbits' rotation floors here, on
ints, from a chain's end edges: orbit_set_index (index.py) from a domain's,
and the one int closed form of E_n(a, b) from its triangle's.  Its two sums
come from floor_sum in ellipsoid_orbit_index and, for every orbit set in a
window, from two int prefix arrays in the bijectivity check.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt

from .ellipsoid import ellipsoid_ints
from .errors import EchLensError, ResourceLimit
from .geometry import cross, floor_sum, format_ratio

INDEX_MULTIPLICITY_BUDGET = 1 << 20


def _orbit_set_count(n: int, layers: int) -> int:
    """Orbit sets in the layers r + s = k*n for k <= layers: the sum of k*n + 1."""
    return (layers + 1) * (n * layers + 2) // 2


def _end_rotations(n: int, first, last):
    """The exceptional orbits' rotation numbers from the int end edges of a
    checked chain, as (p, q, shift) with q > 0: phi_plus = first.y/cross(first,
    (n, 1)) with shift 1 and phi_minus = -last.y/last.x with shift 0.  Both
    denominators are negative on every such chain, as its second vertex lies
    above the (n,1)-ray and x strictly decreases.  A floor is read as
    (i*p - shift) // q, the perturbation E_n(a, b) -> E_n(a, b(1+eps)): an
    integral i*phi_plus counts one less, so floor'(x) >= x - 1."""
    return (-first[1], -cross(first, (n, 1)), 1), (last[1], -last[0], 0)


def _ellipsoid_rotations(n: int, ia: int, ib: int):
    """_end_rotations of the triangle (n*ia, ia) (0, ib): its one edge is both
    ends, so they are (ia - ib)/(n*ib) and (ib - ia)/(n*ia)."""
    edge = (-n * ia, ib - ia)
    return _end_rotations(n, edge, edge)


def _rotation_sum(rotation, m: int) -> int:
    """Sum of (i*p - shift) // q over 1 <= i <= m, rotation = (p, q, shift)."""
    p, q, shift = rotation
    return floor_sum(m, q, p, p - shift)


def _rotation_floors(rotation, m: int):
    """[_rotation_sum(rotation, j) for j = 0..m], one floor per multiplicity."""
    p, q, shift = rotation
    return list(accumulate(((i * p - shift) // q for i in range(1, m + 1)), initial=0))


def _index(n: int, r: int, s: int, plus: int, minus: int) -> int:
    """Index of e+^r e-^s of E_n(a, b), r + s = n*k, from its rotation floor
    sums: the auxiliary path (n*k unit edges at height k) and 2 per
    exceptional orbit give n*k*(k + 1) + 2*k, and each sum counts twice."""
    k = (r + s) // n
    return n * k * (k + 1) + 2 * k + 2 * (plus + minus)


def ellipsoid_orbit_index(n: int, a, b, r: int, s: int) -> int:
    """Index of the orbit set e+^r e-^s of E_n(a, b): orbit_set_index on the
    ellipsoid's triangle (n*a, a) (0, b) with the empty generator, with
    each rotation floor sum as one floor_sum."""
    ia, ib, _ = ellipsoid_ints(n, a, b)
    if r < 0 or s < 0:
        raise EchLensError("multiplicities must be non-negative")
    if (r + s) % n != 0:
        # format_ratio raises EchLensError past Python's int-to-text digit limit
        raise EchLensError(f"r + s = {format_ratio(r + s, 1)} is not a multiple of n = {n}")
    plus, minus = _ellipsoid_rotations(n, ia, ib)
    return _index(n, r, s, _rotation_sum(plus, r), _rotation_sum(minus, s))


def index_bijectivity_check(n: int, a, b, kmax_layers: int):
    """bijectivity_ints on E_n(a, b), for ints or Fractions a and b, over
    their common denominator."""
    return bijectivity_ints(n, *ellipsoid_ints(n, a, b), kmax_layers)


def bijectivity_ints(n: int, ia: int, ib: int, d: int, kmax_layers: int):
    """Check that the index of E_n(ia/d, ib/d), n, ia, ib, d >= 1, maps the
    orbit sets of its lowest kmax_layers + 1 layers onto the lowest even numbers.

    Considers every orbit set in layers r + s = k*n for k <= kmax_layers
    (count T of them) and verifies that the T smallest indices over all
    orbit sets are exactly 0, 2, ..., 2(T-1).  Returns (ok, certificate)
    where the certificate is the sorted (index, (r, s)) table of the T
    smallest among those layers and every later orbit set that can enter
    the window [0, 2(T-1)].  The floors are _end_rotations', read at
    b(1+eps), and floor'(x) >= x - 1 (with equality at integers) bounds the
    index of the orbit set of action t = a*r + b*s below by
    t^2/(nab) - t/min(a, b); the window's top fixes the last action, and the
    last layer, that can enter it, and the test u <= u_max is non-strict, so
    the scan misses no orbit set whose bound meets the top.  The rotation
    floor sums come from two int prefix arrays sized to the largest
    multiplicity scanned, so each orbit set costs O(1); a scan whose
    multiplicities would exceed INDEX_MULTIPLICITY_BUDGET raises
    ResourceLimit before any work.
    """
    if kmax_layers < 0:
        raise EchLensError("layer count must be non-negative")
    target_count = _orbit_set_count(n, kmax_layers)
    bound = 2 * (target_count - 1)
    top = kmax_layers * n
    # In units u = t*d of the common denominator d, with a = ia/d and
    # b = ib/d, the lower bound stays in the window exactly when
    # u*(u - n*max(ia, ib)) <= n*ia*ib*bound, that is when u <= u_max.
    nh = n * max(ia, ib)
    u_max = (nh + isqrt(nh * nh + 4 * n * ia * ib * bound)) // 2
    top_r, top_s = max(top, u_max // ia), max(top, u_max // ib)
    if max(top_r, top_s) > INDEX_MULTIPLICITY_BUDGET:
        raise ResourceLimit(
            f"orbit sets of a={format_ratio(ia, d)}, b={format_ratio(ib, d)} up to layer "
            f"{format_ratio(u_max // (n * min(ia, ib)), 1)} can enter the window of "
            f"{kmax_layers} layers; their multiplicities reach "
            f"{format_ratio(max(top_r, top_s), 1)}, over the budget of {INDEX_MULTIPLICITY_BUDGET}"
        )
    # floors_plus[r] is the phi_plus floor sum at multiplicity r
    plus, minus = _ellipsoid_rotations(n, ia, ib)
    floors_plus = _rotation_floors(plus, top_r)
    floors_minus = _rotation_floors(minus, top_s)

    # the orbit sets (r + s a multiple of n) of the layers, r + s <= top, and
    # the later ones with a*r + b*s within u_max
    entries = []
    for s in range(top_s + 1):
        for r in range(-s % n, max(top - s, (u_max - ib * s) // ia) + 1, n):
            entries.append((_index(n, r, s, floors_plus[r], floors_minus[s]), (r, s)))

    entries.sort()
    certificate = entries[:target_count]
    ok = [i for i, _ in certificate] == list(range(0, 2 * target_count, 2))
    return ok, certificate


def spectrum_from_orbit_indices(n: int, a, b, count: int):
    """Actions a*r + b*s of the orbit sets with index 0, 2, ..., 2(count-1)."""
    ia, ib, d = ellipsoid_ints(n, a, b)
    if count < 0:
        raise EchLensError(f"count must be non-negative, got {count}")
    # the least layers >= 1 with _orbit_set_count(n, layers) >= count, that
    # is with (2*n*layers + n + 2)**2 >= (n + 2)**2 + 8*n*(count - 1)
    root = isqrt((n + 2) ** 2 + 8 * n * (max(count, 1) - 1) - 1)
    layers = max(1, -((n + 1 - root) // (2 * n)))
    ok, certificate = bijectivity_ints(n, ia, ib, d, layers)
    if not ok:
        raise AssertionError(f"index of E_{n}({a}, {b}) is not bijective on {layers} layers")
    from fractions import Fraction

    return [Fraction(ia * r + ib * s, d) for _, (r, s) in certificate[:count]]
