"""Batch cross-validation: random concave domains, both capacity routes.

The generator rejection-samples small rational vertex chains until they pass
domain validation, so every draw is a genuine concave domain; a fixed seed
makes the whole batch reproducible.  Draws are ints over one denominator,
validated by the int chain check that parses domain files.
"""

from __future__ import annotations

import random

from .capacities import _differences, capacities_via_oracle, capacities_via_weights
from .domains import ConcaveDomain, _from_ratios
from .errors import EchLensError

DEFAULT_SEED = 2024
MAX_COORD = 8


def random_concave_domain(rng: random.Random, n: int | None = None) -> ConcaveDomain:
    """A random valid concave domain with n in {1..4}, coordinates <= MAX_COORD,
    and at most 4 boundary edges."""
    if n is not None and n < 1:
        raise EchLensError(f"n must be a positive integer, got {n}")
    while True:
        nn = n if n is not None else rng.randint(1, 4)
        den = rng.choice([1, 1, 1, 2, 3])
        top = max(1, (MAX_COORD * den) // nn)
        a0 = rng.randint(1, top)  # the ray endpoint's height is a0/den
        # interior x coordinates are halves, over s = 2*den
        s = 2 * den
        extra = rng.randint(0, 2)
        vertices = [((nn * a0, den), (a0, den))]
        xs = set()
        for _ in range(extra):
            d = rng.choice([1, 2])
            num = rng.randint(1, max(1, nn * a0 * d // den - 1))
            xs.add(num * (s // d))
        for x in sorted(xs, reverse=True):
            if x >= 2 * nn * a0:
                continue
            d = rng.choice([1, 2])
            lo = x * d // (nn * s) + 1
            hi = MAX_COORD * d
            if lo > hi:
                continue
            vertices.append(((x, s), (rng.randint(lo, hi), d)))
        d = rng.choice([1, 2])
        vertices.append(((0, 1), (rng.randint(1, MAX_COORD * d), d)))
        try:
            return _from_ratios(nn, vertices)
        except EchLensError:
            continue


def run_check(trials: int, kmax: int, seed: int = DEFAULT_SEED):
    """Compare the weight route against the oracle route on `trials` random
    domains drawn from one seeded generator.  Returns None when they agree,
    else the first failure (trial, k, weights sequence, oracle sequence,
    domain), k the first index at which the two sequences differ."""
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        dom = random_concave_domain(rng)
        via_w = capacities_via_weights(dom, kmax)
        via_o = capacities_via_oracle(dom, kmax)
        for k, *_ in _differences(via_w, via_o):
            return trial, k, via_w, via_o, dom
    return None
