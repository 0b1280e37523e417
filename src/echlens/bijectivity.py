"""E_n(a, b)'s orbit-set index, its bijectivity and the spectrum it certifies.

The index is one int closed form in two rotation floor sums, orbit_set_index
(index.py) on the ellipsoid's triangle.  ellipsoid_orbit_index reads the sums
from floor_sum, and the bijectivity check, for every orbit set in a window,
from two int prefix arrays.  None of it needs index.py's domain or path code.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt

from .ellipsoid import ellipsoid_ints
from .errors import HomologyNotZero, ResourceLimit
from .geometry import floor_sum, format_ratio

INDEX_MULTIPLICITY_BUDGET = 1 << 20


def _orbit_set_count(n: int, layers: int) -> int:
    """Orbit sets in the layers r + s = k*n for k <= layers: the sum of k*n + 1."""
    return (layers + 1) * (n * layers + 2) // 2


def _rotation_floors(p: int, q: int, m: int, shift: int):
    """Prefix sums of (i*p - shift) // q over 1 <= i <= j for j = 0..m, with
    phi = p/q, q > 0, not necessarily in lowest terms (shift is 0 or 1):
    orbit_set_index's floor sums for every multiplicity up to m."""
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
    _rotation_floors' sums at r and s as one floor_sum each."""
    ia, ib, _ = ellipsoid_ints(n, a, b)
    if r < 0 or s < 0:
        raise ValueError("multiplicities must be non-negative")
    if (r + s) % n != 0:
        raise HomologyNotZero(f"r + s = {r + s} is not a multiple of n = {n}")
    plus = floor_sum(r, n * ib, ia - ib, ia - ib - 1)
    minus = floor_sum(s, n * ia, ib - ia, ib - ia)
    return _index(n, r, s, plus, minus)


def index_bijectivity_check(n: int, a, b, kmax_layers: int):
    """bijectivity_ints on E_n(a, b), for ints or Fractions a and b, over
    their common denominator."""
    return bijectivity_ints(n, *ellipsoid_ints(n, a, b), kmax_layers)


def bijectivity_ints(n: int, ia: int, ib: int, d: int, kmax_layers: int):
    """Check that the index of E_n(ia/d, ib/d), n, ia, ib, d >= 1, is a
    bijection onto the even numbers at desk scale.

    Considers every orbit set in layers r + s = k*n for k <= kmax_layers
    (count T of them) and verifies that the T smallest indices over all
    orbit sets are exactly 0, 2, ..., 2(T-1).  Returns (ok, certificate)
    where the certificate is the sorted (index, (r, s)) table of the T
    smallest among those layers and every later orbit set that can enter
    the window [0, 2(T-1)].  The floors are orbit_set_index's, read at
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
        raise ValueError("layer count must be non-negative")
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
            f"{u_max // (n * min(ia, ib))} can enter the window of {kmax_layers} "
            f"layers; their multiplicities reach "
            f"{max(top_r, top_s)}, over the budget of {INDEX_MULTIPLICITY_BUDGET}"
        )
    # E_n(a, b)'s rotation numbers; floors_plus[r] is orbit_set_index's
    # phi_plus floor sum at multiplicity r
    floors_plus = _rotation_floors(ia - ib, n * ib, top_r, 1)
    floors_minus = _rotation_floors(ib - ia, n * ia, top_s, 0)

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
        raise ValueError(f"count must be non-negative, got {count}")
    layers = 1
    while _orbit_set_count(n, layers) < count:
        layers += 1
    ok, certificate = bijectivity_ints(n, ia, ib, d, layers)
    if not ok:
        raise AssertionError(f"index of E_{n}({a}, {b}) is not bijective on {layers} layers")
    from fractions import Fraction

    return [Fraction(ia * r + ib * s, d) for _, (r, s) in certificate[:count]]
