"""ECH index formulas for orbit sets, and index bijectivity for ellipsoids.

One formula, orbit_set_index, prices an orbit set with exceptional-orbit
powers over a concave domain; the ellipsoid index is that formula on the
ellipsoid's triangle.  The bijectivity check prices the same index for
every orbit set of E_n(a, b) in a window from two int prefix arrays of
rotation floors, and the spectrum reads the actions off its certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .ellipsoid import ellipsoid_ints
from .errors import HomologyNotZero, MismatchedN, PathError, ResourceLimit
from .geometry import floor_sum, in_cone
from .record import Record

# domains and paths are imported in the formulas that use them (here only
# for annotations), so the bijectivity check and the spectrum load neither
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .domains import ConcaveDomain

INDEX_MULTIPLICITY_BUDGET = 1 << 20


def ellipsoid_orbit_index(n: int, a, b, r: int, s: int) -> int:
    """Index of the orbit set e+^r e-^s of E_n(a, b): orbit_set_index on the
    ellipsoid's triangle (n*a, a) (0, b) with the empty generator."""
    from .domains import validate_domain
    from .paths import ConcaveGenerator, empty_path

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
    __slots__ = ("m_plus", "m_minus", "generator")  # generator: paths.ConcaveGenerator


def orbit_set_index(domain: ConcaveDomain, orbit: OrbitSetDescriptor) -> int:
    """Index of an orbit set with exceptional-orbit powers: the combinatorial
    index of the auxiliary path (m_plus horizontal unit edges, the
    generator's edges, m_minus horizontal unit edges), plus 2 per
    exceptional orbit and twice each rotation floor sum.

    The floors are read under a perturbation of the end edges that moves
    phi_plus down and phi_minus up, as E_n(a, b) -> E_n(a, b(1+eps)) does
    on the ellipsoid's triangle: floor'(i*phi_plus) is i*phi_plus - 1 where
    that is an integer, so floor'(x) >= x - 1 with equality at integers."""
    from .domains import rotation_numbers
    from .paths import ConcaveGenerator, IntegralPath, generator_index

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
        if not in_cone(v, n):
            raise PathError(f"auxiliary path vertex {v} leaves the cone")
    rot = rotation_numbers(domain)
    total = generator_index(ConcaveGenerator(aux, gen.labels)) + 2 * m_plus + 2 * m_minus
    # each sum runs over 1 <= i <= m of (i*p - shift) // q, phi = p/q: an
    # integral i*phi_plus counts one less, as at E_n(a, b(1+eps))
    for phi, m, shift in ((rot.phi_plus, m_plus, 1), (rot.phi_minus, m_minus, 0)):
        p, q = phi.numerator, phi.denominator
        total += 2 * floor_sum(m, q, p, p - shift)
    return total


# ---------------------------------------------------------------------------
# Index bijectivity for near-irrational ellipsoids


def _orbit_set_count(n: int, layers: int) -> int:
    """Orbit sets in the layers r + s = k*n for k <= layers: the sum of k*n + 1."""
    return (layers + 1) * (n * layers + 2) // 2


def _rotation_floors(phi, m: int, shift: int):
    """Prefix sums of (i*p - shift) // q over 1 <= i <= j for j = 0..m, with
    phi = p/q: orbit_set_index's floor sums for every multiplicity up to m."""
    p, q = phi.numerator, phi.denominator
    return list(accumulate(((i * p - shift) // q for i in range(1, m + 1)), initial=0))


def index_bijectivity_check(n: int, a, b, kmax_layers: int):
    """Check that the index is a bijection onto the even numbers at desk scale.

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
    ia, ib, d = ellipsoid_ints(n, a, b)
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
            f"orbit sets of a={Fraction(ia, d)}, b={Fraction(ib, d)} up to layer "
            f"{u_max // (n * min(ia, ib))} can enter the window of {kmax_layers} "
            f"layers; their multiplicities reach "
            f"{max(top_r, top_s)}, over the budget of {INDEX_MULTIPLICITY_BUDGET}"
        )
    # E_n(a, b)'s rotation numbers; floors_plus[r] is orbit_set_index's
    # phi_plus floor sum at multiplicity r
    floors_plus = _rotation_floors(Fraction(ia - ib, n * ib), top_r, 1)
    floors_minus = _rotation_floors(Fraction(ib - ia, n * ia), top_s, 0)

    # the orbit sets (r + s a multiple of n) of the layers, r + s <= top, and
    # the later ones with a*r + b*s within u_max, each priced by the index of
    # orbit_set_index on the triangle with both floor sums looked up
    entries = []
    for s in range(top_s + 1):
        for r in range(-s % n, max(top - s, (u_max - ib * s) // ia) + 1, n):
            k = (r + s) // n
            index = n * k * (k + 1) + 2 * k + 2 * (floors_plus[r] + floors_minus[s])
            entries.append((index, (r, s)))

    entries.sort()
    certificate = entries[:target_count]
    indices = [i for i, _ in certificate]
    ok = indices == list(range(0, 2 * target_count, 2))
    return ok, certificate


def spectrum_from_orbit_indices(n: int, a, b, count: int):
    """Actions a*r + b*s of the orbit sets with index 0, 2, ..., 2(count-1)."""
    ia, ib, d = ellipsoid_ints(n, a, b)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    layers = 1
    while _orbit_set_count(n, layers) < count:
        layers += 1
    ok, certificate = index_bijectivity_check(n, a, b, layers)
    if not ok:
        raise AssertionError(f"index of E_{n}({a}, {b}) is not bijective on {layers} layers")
    return [Fraction(ia * r + ib * s, d) for _, (r, s) in certificate[:count]]
