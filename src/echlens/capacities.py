"""Capacity sequences and the routes that compute them.

Three routes to the capacities of a concave domain cross-check each other:
the singular-ellipsoid generator sequence, the weight-expansion packing
route, and brute-force maximization of path length over enumerated concave
lattice paths.  The max-plus union and the obstruction report live here too;
the generator heap is in ellipsoid.py and the index formulas in index.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .ellipsoid import ellipsoid_ints, ellipsoid_values
from .errors import DeltaTooLarge, InsufficientLength
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

    @property
    def values(self) -> tuple:
        return tuple(self)

    def __iter__(self):
        return (Fraction(v, self.scale) for v in self.ints)

    def __getitem__(self, k):
        return Fraction(self.ints[k], self.scale)

    def __len__(self):
        return len(self.ints)


def ellipsoid_sequence(n: int, a, b, kmax: int) -> CapacitySequence:
    """First kmax+1 values a*k1 + b*k2 over k1 + k2 = 0 mod n, sorted with
    repetitions: the first kmax+1 of ellipsoid.ellipsoid_values.  The
    singular ball B_n(a) is E_n(a, a); the classical ball is n = 1."""
    ia, ib, scale = ellipsoid_ints(n, a, b)
    return CapacitySequence(list(islice(ellipsoid_values(n, ia, ib), kmax + 1)), scale)


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
