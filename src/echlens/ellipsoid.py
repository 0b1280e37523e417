"""The singular ellipsoid E_n(a, b): its one parameter check and its
generator, the values a*k1 + b*k2 over k1 + k2 = 0 mod n in sorted order
with repetitions, as ints over the common denominator of a and b."""

from __future__ import annotations

import heapq
from math import lcm

from .errors import EchLensError


def ellipsoid_ints(n: int, a, b):
    """(ia, ib, d) with a = ia/d and b = ib/d for E_n(a, b), the one check
    of its parameters: EchLensError unless n >= 1 and a, b > 0."""
    # a and b are ints or Fractions
    if a <= 0 or b <= 0:
        raise EchLensError(f"ellipsoid parameters must be positive, got {a}, {b}")
    if n < 1:
        raise EchLensError(f"n must be a positive integer, got {n}")
    return ratio_ints((a.numerator, a.denominator), (b.numerator, b.denominator))


def ratio_ints(a, b):
    """(ia, ib, d) with ia/d = pa/qa and ib/d = pb/qb, d = lcm(qa, qb), for
    int pairs a = (pa, qa) and b = (pb, qb), q > 0: what the CLI parses to."""
    (pa, qa), (pb, qb) = a, b
    d = lcm(qa, qb)
    return pa * (d // qa), pb * (d // qb), d


def ellipsoid_values(n: int, ia: int, ib: int):
    """Endless iterator of d*c_0, d*c_1, ... of E_n(ia/d, ib/d), from a lazy
    priority-queue merge over the rows of fixed k1.  It holds one heap entry
    per row entered, floor(c_k/a) + 1 of them at c_k, which is O(sqrt(k)),
    and none of the values it has yielded."""
    # Row k1 is the progression ia*k1 + ib*((-k1) mod n) + j*step, and every
    # row has the same step, so a popped value's successor in its row is
    # value + step whichever row it came from: the heap holds bare ints.
    step = n * ib
    # Row heads are not monotone in k1; inject a row as soon as its lower
    # bound ia*k1 could still beat the current minimum.
    heap = [0]
    next_k1 = 1
    while True:
        while ia * next_k1 <= heap[0]:
            heapq.heappush(heap, ia * next_k1 + ib * (-next_k1 % n))
            next_k1 += 1
        value = heap[0]
        yield value
        heapq.heapreplace(heap, value + step)
