"""Capacity sequences and index formulas.

Three routes to the capacities of a concave domain cross-check each other:
the singular-ellipsoid generator sequence, the weight-expansion packing
route, and brute-force maximization of path length over enumerated concave
lattice paths.  The orbit-set index formulas and the index-bijectivity check
for near-irrational ellipsoids live here too.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm

from .errors import (
    DegenerateRatio,
    DeltaTooLarge,
    HomologyNotZero,
    InsufficientLength,
    MismatchedN,
    NonPositivePeriod,
    PathError,
    ResourceLimit,
)
from .geometry import floor_sum, in_cone
from .record import Record, _set

# domains, paths and weights are imported in the routes that use them (here
# only for annotations), so the generator and the index kernels load none
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .domains import ConcaveDomain

INDEX_MULTIPLICITY_BUDGET = 1 << 20

MONOTONICITY_NOTE = (
    "no capacity obstruction found is not evidence that an embedding exists; "
    "for domains with an orbifold point, monotonicity of these capacities is "
    "only established for embeddings taking the orbifold point to the "
    "orbifold point."
)


class CapacitySequence(Record):
    """Exact capacities c_k = ints[k] / scale for k = 0..kmax, stored in
    lowest terms (gcd(scale, *ints) == 1), so equal sequences compare and
    hash equal."""

    __slots__ = ("ints", "scale")

    def __init__(self, ints, scale=1):
        # a list or tuple is checked and reduced as it is, so the stored
        # tuple is the only one built
        if not isinstance(ints, (tuple, list)):
            ints = tuple(ints)
        if not ints:
            raise ValueError("a capacity sequence holds c_0..c_kmax, got no values")
        if scale < 1:
            raise ValueError(f"scale must be a positive integer, got {scale}")
        if ints[0] != 0:
            raise ValueError(f"c_0 must be 0, got {Fraction(ints[0], scale)}")
        for k in range(len(ints) - 1):
            if ints[k] > ints[k + 1]:
                raise ValueError(f"sequence decreases at k={k}")
        g = gcd(scale, *ints)
        _set(self, "ints", tuple(ints) if g == 1 else tuple(v // g for v in ints))
        _set(self, "scale", scale // g)

    @classmethod
    def of(cls, values) -> CapacitySequence:
        """The sequence of the exact rationals c_0..c_kmax."""
        vals = [Fraction(v) for v in values]
        scale = lcm(*(v.denominator for v in vals))
        return cls(tuple(v.numerator * (scale // v.denominator) for v in vals), scale)

    @property
    def values(self) -> tuple:
        return tuple(self)

    def __iter__(self):
        return (Fraction(v, self.scale) for v in self.ints)

    def __getitem__(self, k):
        return Fraction(self.ints[k], self.scale)

    def __len__(self):
        return len(self.ints)


def _ellipsoid_ints(n: int, a, b):
    """(ia, ib, d) with a = ia/d and b = ib/d for E_n(a, b), the one check
    of its parameters: NonPositivePeriod unless n >= 1 and a, b > 0."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise NonPositivePeriod(f"ellipsoid parameters must be positive, got {a}, {b}")
    if n < 1:
        raise NonPositivePeriod(f"n must be a positive integer, got {n}")
    d = lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


def ellipsoid_sequence(n: int, a, b, kmax: int) -> CapacitySequence:
    """First kmax+1 values a*k1 + b*k2 over k1 + k2 = 0 mod n, sorted with
    repetitions (lazy priority-queue merge over rows of fixed k1).  The
    singular ball B_n(a) is E_n(a, a); the classical ball is n = 1."""
    ia, ib, scale = _ellipsoid_ints(n, a, b)
    # Row k1 is the progression ia*k1 + ib*((-k1) mod n) + j*step, and every
    # row has the same step, so a popped value's successor in its row is
    # value + step whichever row it came from: the heap holds bare ints.
    step = n * ib
    # Row heads are not monotone in k1; inject a row as soon as its lower
    # bound ia*k1 could still beat the current minimum.
    heap = [0]
    next_k1 = 1
    out = []
    while len(out) <= kmax:
        while ia * next_k1 <= heap[0]:
            heapq.heappush(heap, ia * next_k1 + ib * (-next_k1 % n))
            next_k1 += 1
        value = heap[0]
        out.append(value)
        heapq.heapreplace(heap, value + step)
    return CapacitySequence(out, scale)


def union_sequence(sequences, kmax: int) -> CapacitySequence:
    """Iterated max-plus convolution (disjoint-union capacities), exact on
    ints scaled by the LCM of the denominators."""
    seqs = list(sequences)
    if not seqs:
        raise InsufficientLength("need at least one sequence")
    for s in seqs:
        if len(s) < kmax + 1:
            raise InsufficientLength(f"sequence of length {len(s)} does not cover kmax={kmax}")
    scale = lcm(*(s.scale for s in seqs))
    factors = [[v * (scale // s.scale) for v in s.ints[: kmax + 1]] for s in seqs]
    acc = factors[0]
    for vals in factors[1:]:
        # acc and vals are nondecreasing, so over a flat run of vals the
        # maximum of acc[k-j] + vals[j] sits at the run's first index j
        new = [x + vals[0] for x in acc]
        for j in range(1, kmax + 1):
            v = vals[j]
            if v != vals[j - 1]:
                new[j:] = [y if y > x + v else x + v for y, x in zip(new[j:], acc)]
        acc = new
    return CapacitySequence(acc, scale)


def capacities_via_weights(domain: ConcaveDomain, kmax: int) -> CapacitySequence:
    """Packing route: weight expansion, then disjoint-union of ball capacities."""
    from .weights import singular_weight_expansion

    expansion = singular_weight_expansion(domain)
    w0 = expansion.singular_weight
    seqs = [ellipsoid_sequence(domain.n, w0, w0, kmax)]
    # c_k uses at most k nonzero balls, and larger weights never do worse
    seqs.extend(ellipsoid_sequence(1, w, w, kmax) for w in expansion.plain_weights[:kmax])
    return union_sequence(seqs, kmax)


def capacities_via_oracle(domain: ConcaveDomain, kmax: int, delta=0) -> CapacitySequence:
    """Brute-force route: per k, maximize the length l - delta*y of the
    rational blow-up of size delta over all paths with L_n = k (delta = 0 is
    the domain itself), enumerated under paths.PATH_BUDGET.  omega_length_edge
    depends only on the primitive direction, so each direction met is priced
    once, as an int over the LCM of the vertex and delta denominators, and a
    path's length is an int sum."""
    from .domains import omega_length_edge, singular_ball_capacity
    from .paths import enumerate_paths_up_to

    # the blown-up region must stay strictly inside the domain
    delta = Fraction(delta)
    if delta < 0 or (delta > 0 and delta >= singular_ball_capacity(domain)):
        raise DeltaTooLarge(f"delta={delta} is not admissible for this domain")
    buckets = enumerate_paths_up_to(domain.n, kmax)
    scale = lcm(delta.denominator, *(c.denominator for v in domain.vertices for c in v))
    shift = int(delta * scale)
    prices = {}

    def length(path):
        total = -shift * path.start[0]
        for d, m in path.edges:
            price = prices.get(d)
            if price is None:
                price = prices[d] = int(omega_length_edge(domain, d) * scale)
            total += m * price
        return total

    out = []
    for k in range(kmax + 1):
        if not buckets[k]:
            raise AssertionError(f"no concave path with L_{domain.n} = {k}")
        out.append(max(map(length, buckets[k])))
    return CapacitySequence(out, scale)


class ObstructionReport(Record):
    __slots__ = ("kmax", "violations", "note")  # violations: ((k, source, target), ...)

    def __init__(self, kmax, violations, note=MONOTONICITY_NOTE):
        super().__init__(kmax, violations, note)

    @property
    def obstructed(self) -> bool:
        return bool(self.violations)


def obstruction_report(
    source: CapacitySequence, target: CapacitySequence, kmax=None
) -> ObstructionReport:
    """Indices where source capacities exceed target capacities (embedding
    obstructions by monotonicity)."""
    if kmax is None:
        kmax = min(len(source), len(target)) - 1
    elif kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    if len(source) <= kmax or len(target) <= kmax:
        raise InsufficientLength(
            f"sequences of length {len(source)}, {len(target)} do not cover kmax={kmax}"
        )
    violations = tuple(
        (k, source[k], target[k]) for k in range(kmax + 1) if source[k] > target[k]
    )
    return ObstructionReport(kmax=kmax, violations=violations)


# ---------------------------------------------------------------------------
# Index formulas


def ellipsoid_orbit_index(n: int, a, b, r: int, s: int) -> int:
    """Index of the orbit set e+^r e-^s of E_n(a, b): orbit_set_index on the
    ellipsoid's triangle (n*a, a) (0, b) with the empty generator."""
    from .domains import validate_domain
    from .paths import ConcaveGenerator, empty_path

    ia, ib, _ = _ellipsoid_ints(n, a, b)
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
    exceptional orbit and twice each rotation floor sum."""
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
    for phi, m in ((rot.phi_plus, m_plus), (rot.phi_minus, m_minus)):
        total += 2 * floor_sum(m + 1, phi.denominator, phi.numerator, 0)
    return total


# ---------------------------------------------------------------------------
# Index bijectivity for near-irrational ellipsoids


def _orbit_set_count(n: int, layers: int) -> int:
    """Orbit sets in the layers r + s = k*n for k <= layers: the sum of k*n + 1."""
    return (layers + 1) * (n * layers + 2) // 2


def _rotation_floors(phi, m: int):
    """floor(i*phi) for i = 0..m, as ints from phi's numerator and denominator."""
    p, q = phi.numerator, phi.denominator
    return (i * p // q for i in range(m + 1))


def index_bijectivity_check(n: int, a, b, kmax_layers: int):
    """Check that the index is a bijection onto the even numbers at desk scale.

    Considers every orbit set in layers r + s = k*n for k <= kmax_layers
    (count T of them) and verifies that the T smallest indices over all
    orbit sets are exactly 0, 2, ..., 2(T-1).  Returns (ok, certificate)
    where the certificate is the sorted (index, (r, s)) table of the T
    smallest among those layers and every later orbit set that can enter
    the window [0, 2(T-1)].  floor(x) > x - 1 bounds the index of the orbit
    set of action t = a*r + b*s below by t^2/(nab) - t/min(a, b), so the
    window's top fixes the last action, and the last layer, that can enter
    it.  The rotation floor sums come from two int prefix arrays sized to
    the largest multiplicity scanned, so each orbit set costs O(1); a scan
    whose multiplicities would exceed INDEX_MULTIPLICITY_BUDGET raises
    ResourceLimit before any work.
    """
    ia, ib, d = _ellipsoid_ints(n, a, b)
    if kmax_layers < 0:
        raise ValueError("layer count must be non-negative")
    params = f"a={Fraction(ia, d)}, b={Fraction(ib, d)}"
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
            f"orbit sets of {params} up to layer {u_max // (n * min(ia, ib))} can enter "
            f"the window of {kmax_layers} layers; their multiplicities reach "
            f"{max(top_r, top_s)}, over the budget of {INDEX_MULTIPLICITY_BUDGET}"
        )
    # E_n(a, b)'s rotation numbers; floors_plus[r] sums floor(i*phi_plus), i <= r
    phi_plus, phi_minus = Fraction(ia - ib, n * ib), Fraction(ib - ia, n * ia)
    floors_plus = list(accumulate(_rotation_floors(phi_plus, top_r)))
    floors_minus = list(accumulate(_rotation_floors(phi_minus, top_s)))

    # the orbit sets (r + s a multiple of n) of the layers, r + s <= top, and
    # the later ones with a*r + b*s within u_max, each priced by the index of
    # orbit_set_index on the triangle with both floor sums looked up
    entries = []
    imax = top
    for s in range(top_s + 1):
        for r in range(-s % n, max(top - s, (u_max - ib * s) // ia) + 1, n):
            k = (r + s) // n
            index = n * k * (k + 1) + 2 * k + 2 * (floors_plus[r] + floors_minus[s])
            entries.append((index, (r, s)))
            # entries influence the verdict (and thus need exact floors) only
            # inside the target window; the layers' have r, s <= top already
            if index <= bound:
                imax = max(imax, r, s)

    # i*phi = i*p/q in lowest terms is first an integer at i = q
    first_integer = min(phi_plus.denominator, phi_minus.denominator)
    if first_integer <= imax:
        raise DegenerateRatio(
            f"floor argument is an exact integer at multiplicity {first_integer}; "
            f"the ratio of {params} is too rational for {kmax_layers} layers"
        )

    entries.sort()
    certificate = entries[:target_count]
    indices = [i for i, _ in certificate]
    ok = indices == list(range(0, 2 * target_count, 2))
    return ok, certificate


def spectrum_from_orbit_indices(n: int, a, b, count: int):
    """Actions a*r + b*s of the orbit sets with index 0, 2, ..., 2(count-1)."""
    ia, ib, d = _ellipsoid_ints(n, a, b)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    layers = 1
    while _orbit_set_count(n, layers) < count:
        layers += 1
    ok, certificate = index_bijectivity_check(n, a, b, layers)
    if not ok:
        raise DegenerateRatio("index is not bijective on the tested range")
    return [Fraction(ia * r + ib * s, d) for _, (r, s) in certificate[:count]]
