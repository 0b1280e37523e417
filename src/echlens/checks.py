"""Batch cross-validation: random concave domains, both capacity routes.

The generator rejection-samples small rational vertex chains until they pass
domain validation, so every draw is a genuine concave domain; a fixed seed
makes the whole batch reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .capacities import capacities_via_oracle, capacities_via_weights
from .domains import ConcaveDomain, validate_domain
from .errors import DomainError
from .record import Record

DEFAULT_SEED = 2024


def random_concave_domain(
    rng: random.Random, n: int | None = None, max_coord: int = 8
) -> ConcaveDomain:
    """A random valid concave domain with n in {1..4}, coordinates <= max_coord,
    and at most 4 boundary edges."""
    while True:
        nn = n if n is not None else rng.randint(1, 4)
        den = rng.choice([1, 1, 1, 2, 3])
        top = max(1, (max_coord * den) // nn)
        a0 = Fraction(rng.randint(1, top), den)
        extra = rng.randint(0, 2)
        vertices = [(nn * a0, a0)]
        xs = set()
        for _ in range(extra):
            d = rng.choice([1, 2])
            num = rng.randint(1, max(1, int(nn * a0 * d) - 1))
            xs.add(Fraction(num, d))
        for x in sorted(xs, reverse=True):
            if not 0 < x < nn * a0:
                continue
            d = rng.choice([1, 2])
            lo = int(x * d // nn) + 1
            hi = max_coord * d
            if lo > hi:
                continue
            vertices.append((x, Fraction(rng.randint(lo, hi), d)))
        d = rng.choice([1, 2])
        vertices.append((Fraction(0), Fraction(rng.randint(1, max_coord * d), d)))
        try:
            return validate_domain(nn, vertices)
        except DomainError:
            continue


class CheckResult(Record):
    # failure: (trial, k, weights_value, oracle_value, domain), or None
    __slots__ = ("trials", "kmax", "seed", "failure")

    @property
    def passed(self) -> bool:
        return self.failure is None


def run_check(trials: int, kmax: int, seed: int = DEFAULT_SEED) -> CheckResult:
    """Compare the weight route against the oracle route on `trials` random
    domains drawn from one seeded generator."""
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        dom = random_concave_domain(rng)
        via_w = capacities_via_weights(dom, kmax)
        via_o = capacities_via_oracle(dom, kmax)
        for k in range(kmax + 1):
            if via_w[k] != via_o[k]:
                return CheckResult(
                    trials=trials,
                    kmax=kmax,
                    seed=seed,
                    failure=(trial, k, via_w[k], via_o[k], dom),
                )
    return CheckResult(trials=trials, kmax=kmax, seed=seed, failure=None)
