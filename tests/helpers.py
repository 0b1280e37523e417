"""Shared test oracles, implemented independently of the library internals."""

from fractions import Fraction
from itertools import accumulate
from math import floor, gcd, lcm

from echlens.capacities import CapacitySequence
from echlens.domains import validate_domain
from echlens.errors import DomainError
from echlens.geometry import in_cone
from echlens.index import boundary_height


def sequence_of(values):
    """The CapacitySequence of the exact rationals c_0..c_kmax."""
    vals = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in vals))
    return CapacitySequence(tuple(v.numerator * (scale // v.denominator) for v in vals), scale)


def brute_combination_sequence(n, a, b, kmax):
    """Sorted-with-repetition values a*k1 + b*k2 with k1 + k2 divisible by n,
    by exhaustive double loop over a box that is provably large enough; the
    values are ints over the common denominator until they are returned."""
    a, b = Fraction(a), Fraction(b)
    den = a.denominator * b.denominator
    ia, ib = a.numerator * b.denominator, b.numerator * a.denominator
    limit = 16
    while True:
        vals = sorted(
            ia * k1 + ib * k2
            for k1 in range(limit + 1)
            for k2 in range(-k1 % n, limit + 1, n)
        )
        # values exceeding min(a,b)*limit might be missing from the box
        if len(vals) > kmax and vals[kmax] <= min(ia, ib) * limit:
            return [Fraction(v, den) for v in vals[: kmax + 1]]
        limit *= 2


def ball_closed_form(a, kmax, n=1):
    """Singular ball B_n(a) (the classical ball at n = 1) in closed form:
    c_k = a*n*d with d the least value such that d^2 n + d(n+2) >= 2k.
    Returns the tuple c_0..c_kmax."""
    a = Fraction(a)
    out = []
    d = 0
    for k in range(kmax + 1):
        while d * d * n + d * (n + 2) < 2 * k:
            d += 1
        out.append(a * n * d)
    return tuple(out)


def pick_lattice_count(path_or_n, chain=None):
    """L_n recomputed through Pick's theorem on the closed polygon bounded by
    a vertex chain and the two rays through the origin.

    Takes a path, or n and a bare chain from the ray to the y-axis with x
    strictly decreasing and interior vertices strictly inside the cone (so
    the polygon is simple); the chain need not be concave."""
    if chain is None:
        path = path_or_n
        return 0 if not path.edges else pick_lattice_count(path.n, path.vertices())
    n = path_or_n
    assert chain[0][0] == n * chain[0][1] and chain[-1][0] == 0
    poly = [(0, 0)] + chain
    twice_area = 0
    boundary = 0
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        twice_area += x1 * y2 - y1 * x2
        boundary += gcd(abs(x2 - x1), abs(y2 - y1))
    interior = (abs(twice_area) - boundary) // 2 + 1
    on_path = 1 + sum(
        gcd(abs(u[0] - v[0]), abs(u[1] - v[1])) for u, v in zip(chain, chain[1:])
    )
    return interior + boundary - on_path


def brute_edge_count(n, x1, y1, x2, y2):
    """Cone points strictly below the edge (x1,y1)->(x2,y2) in the columns
    x2 <= c < x1, summed column by column."""
    dy, w = y2 - y1, x1 - x2
    return sum(y1 - ((c - x1) * dy) // w + (-c) // n for c in range(x2, x1))


def brute_completion_bound(n, x2, y2, dx, dy):
    """Cone points in the columns 0 <= c < x2 on or below the line of the
    edge (dx, dy) ending at (x2, y2), summed column by column, each column
    clamped at 0."""
    return sum(max(0, y2 + (dy * (c - x2)) // dx + 1 + (-c) // n) for c in range(x2))


def contains_point(domain, p):
    """Membership of the point p in the closed domain."""
    if not in_cone(p, domain.n):
        return False
    if p[0] > domain.vertices[0][0]:
        return False
    return p[1] <= boundary_height(domain, p[0])


def brute_path_length(domain, path):
    """Omega-length recomputed per unit step instead of per direction."""
    total = Fraction(0)
    for (dx, dy), mult in path.edges:
        step = min(p[0] * dy - p[1] * dx for p in domain.vertices)
        total += mult * step
    return total


def fraction_weight_expansion(domain):
    """(w0, plain weights sorted non-increasing) of the weight expansion,
    peeled in Fractions on the domain's exact vertices, independently of the
    library's peel of ints over one denominator.  Each peel takes
    the triangle under the lowest vertex and carries the piece on the
    y-axis side by (x, y) -> (x, x + y - a) and the piece on the ray side by
    (x, y) -> (y - a, (n+1)(y - a) - (x - n a)) into V_1."""

    def peel(n, verts):
        heights = [y for _, y in verts]
        a = min(heights)
        first = heights.index(a)
        last = len(heights) - 1 - heights[::-1].index(a)
        pieces = []
        if last < len(verts) - 1:
            pieces.append([(x, x + y - a) for x, y in verts[last:]])
        if first > 0:
            pieces.append(
                [(y - a, (n + 1) * (y - a) - (x - n * a)) for x, y in verts[: first + 1]]
            )
        return a, pieces

    w0, work = peel(domain.n, list(domain.vertices))
    plain = []
    while work:
        w, pieces = peel(1, work.pop())
        plain.append(w)
        work.extend(pieces)
    return w0, tuple(sorted(plain, reverse=True))


def large_denominator_domain(rng, n, den=10**6):
    """A random concave domain over V_n with a0, a1 and the interior heights
    at most 8 and up to two interior vertices, each coordinate with its own
    random denominator up to `den`, drawn until validate_domain accepts it."""

    def rational(top):
        q = rng.randint(1, den)
        return Fraction(rng.randint(1, top * q), q)

    while True:
        a0 = rational(8)
        xs = sorted({rational(8 * n) for _ in range(rng.randint(0, 2))}, reverse=True)
        verts = [(n * a0, a0), *((x, rational(8)) for x in xs), (0, rational(8))]
        try:
            return validate_domain(n, verts)
        except DomainError:
            continue


def naive_union(seqs, kmax):
    """Disjoint-union capacities by the dense max-plus convolution: every
    split k = i + (k - i) of every pair, in Fraction arithmetic.  Takes
    sequences indexable by k and returns the tuple c_0..c_kmax."""
    acc = [Fraction(seqs[0][k]) for k in range(kmax + 1)]
    for s in seqs[1:]:
        acc = [max(acc[i] + s[k - i] for i in range(k + 1)) for k in range(kmax + 1)]
    return tuple(acc)


def packing_closed_form(n, a0, plain_weights, kmax):
    """Disjoint-union capacities of the singular ball B_n(a0) and the balls
    B(a_i), by direct maximization over multiplicity tuples (independent of
    the max-plus convolution).  Returns the tuple c_0..c_kmax."""
    a0 = Fraction(a0)
    plain = [Fraction(w) for w in plain_weights]
    out = []
    for k in range(kmax + 1):
        best = Fraction(0)

        def rec(i, budget, value):
            nonlocal best
            if value > best:
                best = value
            if i == len(plain):
                return
            a = plain[i]
            d = 1
            while d * (d + 1) // 2 <= budget:
                rec(i + 1, budget - d * (d + 1) // 2, value + a * d)
                d += 1
            rec(i + 1, budget, value)

        d1 = 0
        while d1 * d1 * n - d1 * (n - 2) <= 2 * k:
            cost = (d1 * d1 * n - d1 * (n - 2)) // 2
            rec(0, k - cost, a0 * n * d1)
            d1 += 1
        out.append(best)
    return tuple(out)


def brute_floor_sum(phi, m):
    """sum of floor(i*phi) over 1 <= i <= m, one Fraction at a time."""
    return sum(floor(i * phi) for i in range(1, m + 1))


def floor_sum_by_periods(phi, m):
    """sum of floor(i*phi) over 0 <= i <= m: the reciprocity closed form
    over the full periods of phi's denominator q, then the tail term by
    term (at most q - 1 Fraction floors)."""
    p, q = phi.numerator, phi.denominator
    periods = (m + 1) // q
    total = periods * (p - 1) * (q - 1) // 2 + p * q * periods * (periods - 1) // 2
    return total + sum(floor(i * phi) for i in range(periods * q, m + 1))


def brute_orbit_index(n, a, b, r, s):
    """Index of the orbit set e+^r e-^s on the boundary of E_n(a, b), with
    r + s = k*n, summed term by term in Fractions."""
    a, b = Fraction(a), Fraction(b)
    k = (r + s) // n
    total = n * k * (k + 1) + 2 * k
    total += 2 * brute_floor_sum((a - b) / (n * b), r)
    total += 2 * brute_floor_sum((b - a) / (n * a), s)
    return total


def lattice_index(n, a, b, r, s):
    """Index of e+^r e-^s on the boundary of E_n(a, b) for an irrational
    ratio b/a, with no floor sums: twice the number of orbit sets (i, j)
    other than (r, s) whose action a*i + b*j is at most a*r + b*s, counted
    over the lattice points i, j >= 0 with n | i + j (Choi,
    Cristofaro-Gardiner, Frenkel, Hutchings and Ramos, J. Topology 2014).
    For a rational ratio it holds when no other orbit set ties (r, s)."""
    a, b = Fraction(a), Fraction(b)
    action = a * r + b * s
    count = sum(
        1
        for i in range(floor(action / a) + 1)
        for j in range(floor((action - a * i) / b) + 1)
        if (i + j) % n == 0
    )
    return 2 * (count - 1)


def brute_floor_sums(phi, m):
    """[brute_floor_sum(phi, j) for j = 0..m], one Fraction floor per i."""
    return list(accumulate((floor(i * phi) for i in range(1, m + 1)), initial=0))


def brute_bijectivity(n, a, b, layers):
    """(ok, certificate) of the index-bijectivity check, by
    sorting every orbit set whose action t = a*r + b*s is at most A and
    slicing the T smallest.  floor(x) > x - 1 gives the index of any orbit
    set a lower bound t^2/(nab) - t/min(a, b), increasing for
    t >= nab/(2 min(a, b)); A doubles until that bound at A exceeds both the
    window 2(T-1) and the last certificate index, so no omitted orbit set
    can enter the certificate.  The orbit sets come from the triangle
    a*r + b*s <= A, row by row in r, so a ratio b/a far from 1 costs the
    orbit sets in it, not the layers it spans."""
    a, b = Fraction(a), Fraction(b)
    target = sum(k * n + 1 for k in range(layers + 1))
    bound = 2 * (target - 1)
    low = min(a, b)
    big_a = n * a * b / low
    phis = ((a - b) / (n * b), (b - a) / (n * a))
    while True:
        rs = [
            (r, s)
            for r in range(floor(big_a / a) + 1)
            for s in range(floor((big_a - a * r) / b) + 1)
            if (r + s) % n == 0
        ]
        plus = brute_floor_sums(phis[0], max(r for r, _ in rs))
        minus = brute_floor_sums(phis[1], max(s for _, s in rs))
        entries = sorted(
            (n * k * (k + 1) + 2 * k + 2 * (plus[r] + minus[s]), (r, s))
            for r, s in rs
            for k in [(r + s) // n]
        )
        certificate = entries[:target]
        floor_at_a = big_a * big_a / (n * a * b) - big_a / low
        if len(certificate) == target and floor_at_a > max(bound, certificate[-1][0]):
            break
        big_a *= 2
    ok = [i for i, _ in certificate] == list(range(0, 2 * target, 2))
    return ok, certificate


def perturbed(a, b, m):
    """b*(1 + eps) for E_n(a, b), with eps small enough that, for orbit sets
    with multiplicities up to m, only exact ties move.  With a = ia/d and
    b = ib/d, a non-integral i*phi+ = i*(ia - ib)/(n*ib) is at least
    1/(n*ib) above an integer and moves down by less than i*eps*ia/(n*ib);
    i*phi- likewise moves up by less than i*eps*ib/(n*ia), short of the
    next integer.  Distinct actions differ by at least 1/d, and b*eps*j
    with j <= (1 + a/b)*m moves one by less than eps*(ia + ib)*m/d, so no
    two swap.  The oracles above, evaluated at the perturbed b, then price
    the nondegenerate ellipsoid E_n(a, b(1+eps))."""
    a, b = Fraction(a), Fraction(b)
    ia, ib = a.numerator * b.denominator, b.numerator * a.denominator
    return b * (1 + Fraction(1, 2 * (m + 1) * (ia + ib)))
