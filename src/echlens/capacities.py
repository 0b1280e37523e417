"""Capacity sequences and the routes that compute them.

Three routes to the capacities of a concave domain cross-check each other:
the singular-ellipsoid generator sequence, the weight-expansion packing
route, and brute-force maximization of path length over enumerated concave
lattice paths.  The max-plus union, the one comparison of two sequences and
the obstruction report live here too; the generator heap is in ellipsoid.py
and the index formulas in index.py.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, lcm

from .ellipsoid import ellipsoid_ints, ellipsoid_values
from .errors import EchLensError, ResourceLimit
from .geometry import cross, format_ratio
from .record import Record, _set

# domains, paths and weights are imported in the routes that use them (here
# only for annotations), so the packing route loads no path code
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .domains import ConcaveDomain

MONOTONICITY_NOTE = (
    "no capacity obstruction found is not evidence that an embedding exists; "
    "for domains with an orbifold point, monotonicity of these capacities is "
    "only established for embeddings taking the orbifold point to the "
    "orbifold point."
)


# values the packing route lists, (1 + plain balls used) * (kmax + 1), checked
# before it lists any: (89,89)(55,90)(0,144), 87 plain balls, fits to kmax 11 914
PACKING_BUDGET = 1 << 20


def _check_packing(values: int, kmax: int):
    if values > PACKING_BUDGET:
        raise ResourceLimit(
            f"kmax={kmax}: the packing route lists {values} values, over the budget of "
            f"{PACKING_BUDGET}"
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
        # every route builds its sequences from its own ints, so a broken
        # invariant is the library's fault, not its caller's input
        if not ints:
            raise AssertionError("a capacity sequence holds c_0..c_kmax, got no values")
        if scale < 1:
            raise AssertionError(f"scale must be a positive integer, got {scale}")
        if ints[0] != 0:
            raise AssertionError(f"c_0 must be 0, got {format_ratio(ints[0], scale)}")
        for k in range(len(ints) - 1):
            if ints[k] > ints[k + 1]:
                raise AssertionError(f"sequence decreases at k={k}")
        g = gcd(scale, *ints)
        _set(self, "ints", tuple(ints) if g == 1 else tuple(v // g for v in ints))
        _set(self, "scale", scale // g)

    @property
    def values(self) -> tuple:
        return tuple(self)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.ints)))

    def __getitem__(self, k):
        from fractions import Fraction

        return Fraction(self.ints[k], self.scale)

    def __len__(self):
        return len(self.ints)


def ellipsoid_sequence(n: int, a, b, kmax: int) -> CapacitySequence:
    """First kmax+1 values a*k1 + b*k2 over k1 + k2 = 0 mod n, sorted with
    repetitions: the first kmax+1 of ellipsoid.ellipsoid_values, refused
    over PACKING_BUDGET.  The singular ball B_n(a) is E_n(a, a); the
    classical ball is n = 1."""
    ia, ib, scale = ellipsoid_ints(n, a, b)
    if kmax < 0:
        raise EchLensError(f"kmax must be non-negative, got {kmax}")
    _check_packing(kmax + 1, kmax)
    return CapacitySequence(list(islice(ellipsoid_values(n, ia, ib), kmax + 1)), scale)


def union_sequence(sequences, kmax: int) -> CapacitySequence:
    """Iterated max-plus convolution (disjoint-union capacities), exact on
    ints scaled by the LCM of the denominators."""
    if kmax < 0:
        raise EchLensError(f"kmax must be non-negative, got {kmax}")
    seqs = list(sequences)
    if not seqs:
        raise EchLensError("need at least one sequence")
    for s in seqs:
        if len(s) < kmax + 1:
            raise EchLensError(f"sequence of length {len(s)} does not cover kmax={kmax}")
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
    w0 = expansion.singular
    # c_k uses at most k nonzero balls, and larger weights never do worse
    plain = expansion.plain[:kmax]
    _check_packing((1 + len(plain)) * (kmax + 1), kmax)
    seqs = [ellipsoid_sequence(domain.n, w0, w0, kmax)]
    seqs.extend(ellipsoid_sequence(1, w, w, kmax) for w in plain)
    # the balls of the int weights: capacities scale linearly, so the union
    # is divided by the domain's scale once
    return CapacitySequence(union_sequence(seqs, kmax).ints, expansion.scale)


def capacities_via_oracle(domain: ConcaveDomain, kmax: int, delta=0) -> CapacitySequence:
    """Brute-force route: per k, maximize the length l - delta*y of the
    rational blow-up of size delta over all paths with L_n = k (delta = 0 is
    the domain itself); delta is an int or a Fraction."""
    return oracle_ints(domain, kmax, delta.numerator, delta.denominator)


def oracle_ints(domain: ConcaveDomain, kmax: int, p: int, q: int) -> CapacitySequence:
    """capacities_via_oracle at delta = p/q, q > 0, on ints, by one walk of
    at most paths.PATH_BUDGET paths that keeps only the kmax + 1 maxima.  An
    edge along the leftward primitive d has length min cross(v, d) over the
    boundary vertices v, the operational form of the supporting-line
    definition that fixes every sign convention downstream; each d met is
    priced once, over the LCM of the domain's and delta's denominators."""
    from .paths import _enumerate_all

    verts = domain.ints
    scale = lcm(q, domain.scale)
    factor = scale // domain.scale
    shift = p * (scale // q)
    # the blown-up region must stay strictly under the lowest vertex
    if shift < 0 or (shift > 0 and shift >= factor * min(y for _, y in verts)):
        raise EchLensError(f"delta={format_ratio(p, q)} is not admissible for this domain")
    prices = {}
    # filled as paths close, so nothing is sized by kmax before the walk
    # has refused a kmax over its budget
    best = {}

    def step(length, d, g):
        price = prices.get(d)
        if price is None:
            price = prices[d] = factor * min(cross(v, d) for v in verts)
        return length + g * price

    def close(k, length):
        if best.get(k, length) <= length:
            best[k] = length

    n = domain.n
    # a path from M*(n,1) loses delta times its start's x
    _enumerate_all(n, kmax, lambda m: -shift * m * n, step, close)
    for k in range(kmax + 1):
        if k not in best:
            raise AssertionError(f"no concave path with L_{n} = {k}")
    return CapacitySequence([best[k] for k in range(kmax + 1)], scale)


def _differences(first: CapacitySequence, second: CapacitySequence):
    """(k, first c_k, second c_k, scale) for each k that both sequences
    cover and at which they differ, both values ints over the LCM of their
    scales: the one comparison of two sequences."""
    scale = lcm(first.scale, second.scale)
    f1, f2 = scale // first.scale, scale // second.scale
    for k, (u, v) in enumerate(zip(first.ints, second.ints)):
        if u * f1 != v * f2:
            yield k, u * f1, v * f2, scale


class ObstructionReport(Record):
    # rows: ((k, source, target), ...) ints over scale; violations reads them
    __slots__ = ("kmax", "rows", "scale")
    note = MONOTONICITY_NOTE

    @property
    def violations(self) -> tuple:
        from fractions import Fraction

        s = self.scale
        return tuple((k, Fraction(sv, s), Fraction(tv, s)) for k, sv, tv in self.rows)

    @property
    def obstructed(self) -> bool:
        return bool(self.rows)


def obstruction_report(source: CapacitySequence, target: CapacitySequence) -> ObstructionReport:
    """Indices k where source capacities exceed target capacities (embedding
    obstructions by monotonicity), up to kmax, the last k both cover."""
    rows = tuple((k, sv, tv) for k, sv, tv, _ in _differences(source, target) if sv > tv)
    kmax = min(len(source), len(target)) - 1
    return ObstructionReport(kmax, rows, lcm(source.scale, target.scale))
