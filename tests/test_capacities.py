import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import echlens as e
from echlens import bijectivity, capacities, ellipsoid, paths
from echlens.errors import EchLensError, ResourceLimit
from helpers import (
    ball_closed_form,
    brute_bijectivity,
    brute_combination_sequence,
    brute_orbit_index,
    brute_path_length,
    collected_oracle,
    exceptional_index,
    floor_sum_by_periods,
    fraction_random_concave_domain,
    lattice_index,
    naive_union,
    packing_closed_form,
    perturbed,
    pick_lattice_count,
    rotation_numbers,
    sequence_of,
)

B21 = e.validate_domain(2, [(2, 1), (0, 1)])
B22 = e.validate_domain(2, [(4, 2), (0, 2)])
EXAMPLE = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
FIB = Fraction(233, 144)
FIBS = [1, 1]
while len(FIBS) < 17:
    FIBS.append(FIBS[-1] + FIBS[-2])
# the near-irrational ratios b/a of the spectrum benchmark
SPECTRUM_RATIOS = [Fraction(FIBS[k + 1], FIBS[k]) for k in range(11, 16)]
# bounds every multiplicity that brute_bijectivity scans in these tests, as
# the check's INDEX_MULTIPLICITY_BUDGET bounds the check's
BRUTE_MULTIPLICITY = 1 << 20


def random_factor(rng, kmax):
    """A nondecreasing sequence covering kmax: a generator sequence, a
    (singular) ball, or free steps with plateaus and mixed denominators."""
    length = kmax + rng.randint(0, 3)
    kind = rng.randrange(3)
    if kind == 0:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        return e.ellipsoid_sequence(rng.randint(1, 4), a, b, length)
    if kind == 1:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        return e.ellipsoid_sequence(rng.randint(1, 4), a, a, length)
    vals = [Fraction(0)]
    for _ in range(length):
        step = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 5, 7]))
        vals.append(vals[-1] + (0 if rng.random() < 0.5 else step))
    return sequence_of(vals)


class TestEllipsoidSequence:
    def test_b21(self):
        assert e.ellipsoid_sequence(2, 1, 1, 15).values == (
            0, 2, 2, 2, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6,
        )

    def test_b41(self):
        assert e.ellipsoid_sequence(4, 1, 1, 14).values == (
            0, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8,
        )

    def test_classical(self):
        assert e.ellipsoid_sequence(1, 1, 1, 6).values == (0, 1, 1, 2, 2, 2, 3)

    def test_brute_force(self):
        # ties, where rows share values: a = b, and b/a of small height
        cases = [(1, 1, 2), (2, 1, FIB), (3, Fraction(5, 2), Fraction(1, 3)), (4, 2, 3)]
        cases = [(n, a, b, 40) for n, a, b in cases]
        rng = random.Random(15)
        for i in range(196):
            n, a = rng.randint(1, 6), Fraction(rng.randint(1, 12), rng.randint(1, 6))
            if i % 3 == 0:
                b = a
            elif i % 3 == 1:
                b = a * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            else:
                b = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            cases.append((n, a, b, rng.randint(0, 200)))
        for n, a, b, kmax in cases:
            got = list(e.ellipsoid_sequence(n, a, b, kmax).values)
            assert got == brute_combination_sequence(n, a, b, kmax), (n, a, b, kmax)

    def test_rejects(self):
        with pytest.raises(EchLensError, match="^ellipsoid parameters must be positive, got 0, 1$"):
            e.ellipsoid_sequence(2, 0, 1, 5)
        with pytest.raises(EchLensError, match="^n must be a positive integer, got 0$"):
            e.ellipsoid_sequence(0, 1, 1, 5)

    @pytest.mark.parametrize("kmax", [-1, -3])
    def test_negative_kmax_message(self, kmax):
        # -3 failed inside islice with its own message
        with pytest.raises(EchLensError, match=f"^kmax must be non-negative, got {kmax}$"):
            e.ellipsoid_sequence(1, 1, 1, kmax)

    def test_large_kmax_is_cheap(self):
        seq = e.ellipsoid_sequence(3, 1, Fraction(8, 5), 20000)
        assert len(seq) == 20001


class TestBallSequence:
    # the ball B_n(a) is the generator sequence E_n(a, a), checked against
    # the closed form in helpers
    def test_unit(self):
        assert e.ellipsoid_sequence(1, 1, 1, 6).values == (0, 1, 1, 2, 2, 2, 3)
        assert ball_closed_form(1, 6) == (0, 1, 1, 2, 2, 2, 3)

    def test_scaled(self):
        assert e.ellipsoid_sequence(1, 2, 2, 3).values == (0, 2, 2, 4)
        assert ball_closed_form(2, 3) == (0, 2, 2, 4)

    def test_matches_generator(self):
        for a in (1, Fraction(3, 7), 5):
            assert e.ellipsoid_sequence(1, a, a, 30).values == ball_closed_form(a, 30)

    def test_singular_closed_form_matches_generator(self):
        for n in (1, 2, 3, 4):
            for a in (1, Fraction(2, 3), Fraction(7, 4)):
                for kmax in (0, 40, 2000):
                    assert (
                        e.ellipsoid_sequence(n, a, a, kmax).values
                        == ball_closed_form(a, kmax, n)
                    )


class TestUnionSequence:
    def test_identity(self):
        seq = e.ellipsoid_sequence(1, 1, 1, 5)
        assert e.union_sequence([seq], 5) == seq

    def test_worked_example(self):
        u = e.union_sequence([e.ellipsoid_sequence(2, 2, 2, 3), e.ellipsoid_sequence(1, 1, 1, 3)], 3)
        assert u[1] == 4
        assert u[2] == 5
        assert u[3] == 5

    def test_commutative_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            seqs = []
            for _ in range(3):
                a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                seqs.append(e.ellipsoid_sequence(1, a, a, 12))
            forward = e.union_sequence(seqs, 12)
            backward = e.union_sequence(list(reversed(seqs)), 12)
            assert forward.values == backward.values

    def test_matches_dense_convolution(self):
        rng = random.Random(11)
        for _ in range(60):
            kmax = rng.randint(0, 40)
            seqs = [random_factor(rng, kmax) for _ in range(rng.randint(1, 4))]
            assert e.union_sequence(seqs, kmax).values == naive_union(seqs, kmax)

    def test_insufficient_length(self):
        with pytest.raises(EchLensError, match="^sequence of length 4 does not cover kmax=5$"):
            e.union_sequence([e.ellipsoid_sequence(1, 1, 1, 3)], 5)
        with pytest.raises(EchLensError, match="^need at least one sequence$"):
            e.union_sequence([], 3)

    @pytest.mark.parametrize("kmax", [-1, -3])
    def test_negative_kmax_message(self, kmax):
        # -3 sliced the factors and returned 4 values; -1 found none
        with pytest.raises(EchLensError, match=f"^kmax must be non-negative, got {kmax}$"):
            e.union_sequence([e.ellipsoid_sequence(1, 1, 1, 5)], kmax)


class TestWeightsRoute:
    def test_triangle_is_generator(self):
        assert (
            e.capacities_via_weights(B21, 10).values
            == e.ellipsoid_sequence(2, 1, 1, 10).values
        )

    def test_example_domain(self):
        assert e.capacities_via_weights(EXAMPLE, 3).values == (0, 4, 5, 5)

    @pytest.mark.parametrize(
        "n, a, b",
        [
            (1, 2, 3),
            (1, 1, Fraction(8, 5)),
            (2, 1, Fraction(5, 3)),
            (3, Fraction(3, 2), 1),
            (4, 1, Fraction(7, 2)),
        ],
    )
    def test_triangle_is_generator_at_large_k(self, n, a, b):
        dom = e.validate_domain(n, [(n * a, a), (0, b)])
        via_weights = e.capacities_via_weights(dom, 1000)
        assert via_weights.values == e.ellipsoid_sequence(n, a, b, 1000).values

    @pytest.mark.parametrize(
        "vertices",
        [
            [(1, 1), (0, 100)],
            [(Fraction(3, 2), Fraction(3, 2)), (0, 150)],
            [(89, 89), (55, 90), (0, 144)],
        ],
        ids=["thin", "thin-half", "fibonacci"],
    )
    def test_more_weights_than_kmax(self, vertices):
        dom = e.validate_domain(1, vertices)
        expansion = e.singular_weight_expansion(dom)
        assert len(expansion.plain_weights) > 20
        # n = 1: the singular ball is a classical ball
        weights = [expansion.singular_weight, *expansion.plain_weights]
        seqs = [ball_closed_form(w, 20) for w in weights]
        assert e.capacities_via_weights(dom, 20).values == naive_union(seqs, 20)

    def test_conformality(self):
        rng = random.Random(4)
        for _ in range(20):
            dom = e.random_concave_domain(rng)
            base = e.capacities_via_weights(dom, 6)
            for r in (Fraction(1, 3), 2, Fraction(7, 5)):
                scaled = e.validate_domain(dom.n, [(r * x, r * y) for x, y in dom.vertices])
                expected = tuple(r * v for v in base.values)
                assert e.capacities_via_weights(scaled, 6).values == expected


class TestWeylLaw:
    @pytest.mark.parametrize(
        "n, vertices", [(2, [(6, 3), (3, 2), (0, 2)]), (3, [(9, 3), (0, Fraction(17, 3))])]
    )
    def test_ratio_tends_to_one(self, n, vertices):
        # c_k^2 / (4 area k) -> 1.  The packing route gives c_k as the largest
        # n*w0*d0 + sum w_i*d_i whose ball costs T_n(d0) + sum T(d_i) stay
        # <= k, with T(d) = d(d+1)/2 and T_n(d) = (n d^2 - (n-2) d)/2 (the
        # steps of helpers.ball_closed_form), and area A = (n w0^2 + sum w_i^2)/2.
        # Upper: Cauchy-Schwarz with d_i^2 <= 2T(d_i), n d0^2 = 2T_n(d0) +
        # (n-2) d0 and d0 <= sqrt(k) gives ratio <= 1 + max(n-2, 0)/(2 sqrt k).
        # Lower: d = floor(t w) for every ball, t = sqrt(k/A) - S/(4A) with
        # S = w0 + sum w_i, costs at most A t^2 + S t/2 <= k and is worth at
        # least 2At - (n w0 + sum w_i), so
        # sqrt(ratio) >= 1 - (S/2 + n w0 + sum w_i) / (2 sqrt(A k)) (t > 0 at
        # every k tested).
        top = 4000
        dom = e.validate_domain(n, vertices)
        caps = e.capacities_via_weights(dom, top)
        area = e.domain_area(dom)
        expansion = e.singular_weight_expansion(dom)
        w0, plain = expansion.singular_weight, expansion.plain_weights
        slack = (w0 + sum(plain)) / 2 + n * w0 + sum(plain)
        errors = []
        for k in (top // 16, top // 4, top):
            ratio = float(caps[k] ** 2 / (4 * area * k))
            lower = (1 - float(slack) / (2 * (float(area) * k) ** 0.5)) ** 2
            upper = 1 + max(n - 2, 0) / (2 * k**0.5)
            assert lower <= ratio <= upper
            errors.append(abs(ratio - 1))
        assert errors[0] > errors[1] > errors[2]


class TestOracleRoute:
    def test_ball_k1(self):
        assert e.capacities_via_oracle(B21, 1).values == (0, 2)

    def test_example_k1(self):
        assert e.capacities_via_oracle(EXAMPLE, 1)[1] == 4

    def test_matches_weights_route(self):
        assert (
            e.capacities_via_oracle(EXAMPLE, 6).values
            == e.capacities_via_weights(EXAMPLE, 6).values
        )

    def test_ellipsoid_specialization(self):
        for n, a, b in [(1, 1, 2), (2, 1, 2), (3, 2, 1), (2, Fraction(3, 2), 1)]:
            dom = e.validate_domain(n, [(n * a, a), (0, b)])
            assert (
                e.capacities_via_oracle(dom, 6).values
                == e.ellipsoid_sequence(n, a, b, 6).values
            )

    def test_pricing_matches_per_path_length(self):
        # directions are priced once, as ints; the per-step Fraction
        # length, less delta times the start height, is the reference
        rng = random.Random(31)
        scales = set()
        for n in (1, 2, 3, 4):
            buckets = e.enumerate_paths_up_to(n, 10)
            for _ in range(3):
                dom = e.random_concave_domain(rng, n=n)
                cap = min(y for _, y in dom.vertices)
                for delta in (0, cap / 3, cap * Fraction(5, 7)):
                    seq = e.capacities_via_oracle(dom, 10, delta=delta)
                    scales.add(seq.scale)
                    for k, bucket in buckets.items():
                        assert seq[k] == max(
                            brute_path_length(dom, p) - delta * p.start[0] for p in bucket
                        )
        assert len(scales) > 3

    def test_budget_counts_paths_not_kmax(self):
        # 3908 paths: far inside the path budget, past the old kmax cap of 24
        assert e.capacities_via_oracle(B21, 25) == e.capacities_via_weights(B21, 25)

    def test_budget(self, small_path_budget):
        with pytest.raises(ResourceLimit, match="n=2, kmax=9: .*budget of 100"):
            e.capacities_via_oracle(B21, 9)
        with pytest.raises(ResourceLimit, match="budget"):
            e.enumerate_paths_up_to(2, 9)
        # each call walks afresh: a refused walk leaves nothing behind, a
        # smaller one still runs and the larger one is refused again
        assert e.capacities_via_oracle(B21, 8) == e.capacities_via_weights(B21, 8)
        with pytest.raises(ResourceLimit, match="n=2, kmax=9: .*budget of 100"):
            e.capacities_via_oracle(B21, 9)
        assert len(e.enumerate_paths_up_to(2, 8)) == 9

    def test_column_budget_refuses_a_wide_cone_at_once(self):
        # two paths, but a billion columns left of the start (10**9, 1)
        wide = e.validate_domain(10**9, [(10**9, 1), (0, 1)])
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match=r"n=1000000000, kmax=1: .*columns"):
            e.capacities_via_oracle(wide, 1)
        assert time.perf_counter() - start < 1


class TestStreamedOracle:
    def test_equals_the_maximum_over_the_collected_buckets(self):
        # n = 1..8, each at delta = 0 and two admissible delta > 0
        rng = random.Random(26)
        for n in range(1, 9):
            for _ in range(2):
                dom = e.random_concave_domain(rng, n=n)
                cap = min(y for _, y in dom.vertices)
                for delta in (0, cap / 4, cap * Fraction(6, 7)):
                    seq = e.capacities_via_oracle(dom, 9, delta=delta)
                    assert seq.values == collected_oracle(dom, 9, delta)
                    ints = capacities.oracle_ints(dom, 9, delta.numerator, delta.denominator)
                    assert ints == seq

    @pytest.mark.parametrize(
        "chain,n,kmax,paths_walked",
        [
            ([(5, 5), (0, 1)], 1, 58, 581353),
            ([(8, 2), (3, 3), (0, 4)], 4, 40, 511724),
        ],
        ids=["n1-kmax58", "n4-kmax40"],
    )
    def test_equals_the_packing_route_past_the_budget(self, monkeypatch, chain, n, kmax,
                                                       paths_walked):
        # the walk holds no path, so its memory does not grow with the
        # budget; the default budget admits both walks, and set to exactly
        # the paths the walk closes it pins their count
        assert paths_walked <= paths.PATH_BUDGET
        dom = e.validate_domain(n, chain)
        monkeypatch.setattr(paths, "PATH_BUDGET", paths_walked)
        assert e.capacities_via_oracle(dom, kmax) == e.capacities_via_weights(dom, kmax)

    def test_negative_kmax_is_an_input_error(self):
        for delta in (0, Fraction(1, 4)):
            with pytest.raises(EchLensError, match="kmax must be non-negative, got -1"):
                e.capacities_via_oracle(B21, -1, delta=delta)
        with pytest.raises(EchLensError, match="kmax must be non-negative, got -2"):
            capacities.oracle_ints(B21, -2, 0, 1)

    def test_a_k_with_no_path_is_a_broken_invariant(self, monkeypatch):
        # with every chain dead, only the empty path closes
        monkeypatch.setattr(paths, "_below_line", lambda *args: 10**9)
        assert e.capacities_via_oracle(B21, 0).ints == (0,)
        with pytest.raises(AssertionError, match="no concave path with L_2 = 1"):
            e.capacities_via_oracle(B21, 3)

    def test_delta_text_is_in_lowest_terms(self):
        for delta, text in ((Fraction(2, 2), "1"), (Fraction(-2, 4), "-1/2"), (3, "3")):
            with pytest.raises(EchLensError, match=f"^delta={text} is not admissible"):
                e.capacities_via_oracle(B21, 2, delta=delta)
        with pytest.raises(EchLensError, match="^delta=-1/2 is not admissible"):
            capacities.oracle_ints(B21, 2, -2, 4)
        with pytest.raises(EchLensError, match="^delta=7/5 is not admissible"):
            capacities.oracle_ints(B21, 2, 14, 10)


class TestSampler:
    def test_draws_the_domains_of_the_fraction_sampler(self):
        for seed in range(200):
            for n in (None, 1, 2, 3, 4):
                ints, fractions = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    drawn = e.random_concave_domain(ints, n=n)
                    assert drawn == fraction_random_concave_domain(fractions, n=n)
                assert ints.getstate() == fractions.getstate()

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_draws_nothing(self, n):
        # 0 divided by zero and -1 retried forever; a child process bounds the wait
        script = (
            "import random, sys\n"
            "from echlens.checks import random_concave_domain\n"
            "from echlens.errors import EchLensError\n"
            "rng = random.Random(1)\n"
            "state = rng.getstate()\n"
            "try:\n"
            f"    random_concave_domain(rng, {n})\n"
            "except EchLensError as exc:\n"
            f"    sys.exit(str(exc) != 'n must be a positive integer, got {n}'"
            " or rng.getstate() != state)\n"
            "sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(e.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
        assert done.returncode == 0


class TestBlowup:
    def test_delta_zero(self):
        # the blow-up of size 0 of the ball B_2(2) is the ball itself
        assert (
            e.capacities_via_oracle(B22, 5, delta=0).values
            == e.ellipsoid_sequence(2, 2, 2, 5).values
        )

    def test_worked_example(self):
        assert e.capacities_via_oracle(B21, 1, delta=Fraction(1, 4))[1] == Fraction(3, 2)

    def test_monotone_in_delta(self):
        base = e.capacities_via_oracle(B21, 5, delta=0)
        small = e.capacities_via_oracle(B21, 5, delta=Fraction(1, 8))
        large = e.capacities_via_oracle(B21, 5, delta=Fraction(1, 4))
        for k in range(6):
            assert base[k] >= small[k] >= large[k]

    def test_delta_too_large(self, small_path_budget):
        with pytest.raises(EchLensError, match="^delta=1 is not admissible"):
            e.capacities_via_oracle(B21, 3, delta=1)
        with pytest.raises(EchLensError, match="^delta=-1/2 is not admissible"):
            e.capacities_via_oracle(B21, 3, delta=Fraction(-1, 2))
        # checked before the enumeration, so before its budget
        with pytest.raises(EchLensError, match="^delta=1 is not admissible"):
            e.capacities_via_oracle(B21, 9, delta=1)


class TestSingularBallCapacity:
    # the largest singular ball B_n(a) in a domain stays under its lowest
    # vertex; the packing route peels it as the singular weight
    def test_self_inclusion(self):
        assert e.singular_weight_expansion(B21).singular_weight == 1

    def test_example(self):
        assert e.singular_weight_expansion(EXAMPLE).singular_weight == 2

    def test_c1_identity(self):
        rng = random.Random(6)
        for _ in range(30):
            dom = e.random_concave_domain(rng)
            lowest = min(y for _, y in dom.vertices)
            assert e.capacities_via_weights(dom, 1)[1] == dom.n * lowest


class TestObstructionReport:
    def test_reflexive(self):
        seq = e.capacities_via_weights(B21, 5)
        assert not e.obstruction_report(seq, seq).obstructed

    def test_inclusion(self):
        small = e.capacities_via_weights(B21, 5)
        big = e.capacities_via_weights(B22, 5)
        assert not e.obstruction_report(small, big).obstructed

    def test_violation(self):
        small = e.capacities_via_weights(B21, 5)
        big = e.capacities_via_weights(B22, 5)
        report = e.obstruction_report(big, small)
        assert report.violations[0] == (1, 4, 2)
        assert "orbifold point" in report.note



class TestEllipsoidOrbitIndex:
    def test_empty(self):
        assert e.ellipsoid_orbit_index(3, 1, 2, 0, 0) == 0

    def test_worked_example(self):
        # B_2(1) read as E_2(1, 1+eps): e-^2, e+e- and e+^2 get 6, 4 and 2
        b = perturbed(1, 1, 2)
        for r, expected in ((0, 6), (1, 4), (2, 2)):
            assert e.ellipsoid_orbit_index(2, 1, 1, r, 2 - r) == expected
            assert lattice_index(2, 1, b, r, 2 - r) == brute_orbit_index(2, 1, b, r, 2 - r)
            assert lattice_index(2, 1, b, r, 2 - r) == expected

    def test_full_layer_distinct_even(self):
        values = [e.ellipsoid_orbit_index(2, 1, FIB, r, 2 - r) for r in range(3)]
        assert len(set(values)) == 3
        assert all(v % 2 == 0 for v in values)

    def test_homology(self):
        with pytest.raises(EchLensError, match="^r \\+ s = 1 is not a multiple of n = 2$"):
            e.ellipsoid_orbit_index(2, 1, 1, 1, 0)

    def test_against_term_by_term_sum(self):
        rng = random.Random(81)
        for _ in range(300):
            n = rng.randint(1, 4)
            a = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            b = rng.choice(
                [a * rng.choice(SPECTRUM_RATIOS), Fraction(rng.randint(1, 60), rng.randint(1, 60))]
            )
            r = rng.randint(0, 40)
            s = rng.randint(0, 40)
            s += (-(r + s)) % n
            expected = brute_orbit_index(n, a, perturbed(a, b, max(r, s)), r, s)
            assert e.ellipsoid_orbit_index(n, a, b, r, s) == expected
            # the closed form is the general formula on the ellipsoid's triangle
            triangle = e.validate_domain(n, [(n * a, a), (0, b)])
            empty = e.ConcaveGenerator(path=e.empty_path(n), labels=())
            assert e.orbit_set_index(triangle, empty, r, s) == expected

    def test_huge_multiplicity(self):
        # phi_plus = -89/466: 2 145 922 746 full periods and a tail of 365
        # floors, then one less for each of the r // 466 integral i*phi_plus,
        # which E_2(1, 233/144 (1+eps)) moves just below an integer
        r = 10**12
        k = r // 2
        floors = floor_sum_by_periods(Fraction(-89, 466), r) - r // 466
        expected = 2 * k * (k + 1) + 2 * k + 2 * floors
        assert expected == 309012875537287553648070
        assert e.ellipsoid_orbit_index(2, 1, FIB, r, 0) == expected


class TestOrbitSetIndex:
    def test_reduces_to_generator_index(self):
        for k in range(4):
            for p in e.enumerate_paths_up_to(2, k)[k]:
                labels = ("e",) * len(p.edges)
                gen = e.ConcaveGenerator(path=p, labels=labels)
                assert e.orbit_set_index(EXAMPLE, gen, 0, 0) == e.generator_index(gen)

    def test_empty(self):
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        assert e.orbit_set_index(B21, gen, 0, 0) == 0

    def test_exceptional_orbits_raise_the_index(self):
        # with the empty generator the index of e+^r depends only on the
        # first edge, and (-1, 1) is the direction of E_2(1, 3)'s edge
        pert = e.validate_domain(2, [(2, 1), (1, 2), (0, 4)])
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        assert e.orbit_set_index(pert, gen, 2, 0) == brute_orbit_index(2, 1, 3, 2, 0) == 2

    def test_ellipsoid_triangle_against_lattice_count(self):
        # convergent ratios b/a = p/q with p, q > r, s: no two orbit sets
        # share an action, so the index counts the orbit sets below
        convergents = [FIB, Fraction(99, 70), Fraction(97, 56), Fraction(355, 113)]
        rng = random.Random(84)
        for _ in range(150):
            n = rng.randint(1, 4)
            a = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            ratio = rng.choice(convergents)
            b = a * ratio if rng.random() < 0.5 else a / ratio
            r = rng.randint(0, 40)
            s = rng.randint(0, 40)
            s += (-(r + s)) % n
            triangle = e.validate_domain(n, [(n * a, a), (0, b)])
            gen = e.ConcaveGenerator(path=e.empty_path(n), labels=())
            assert e.orbit_set_index(triangle, gen, r, s) == lattice_index(n, a, b, r, s)

    def test_homology(self):
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        with pytest.raises(EchLensError, match="^total horizontal run 1 is not a multiple of n"):
            e.orbit_set_index(B21, gen, 1, 0)

    def test_generator_from_another_orbifold(self):
        # an n = 4 generator on the n = 2 domain: its run 4 passes the
        # homology test, and it used to be priced (as 16) on the wrong cone
        path = e.make_path(4, (4, 1), (((-4, 1), 1),))
        gen = e.ConcaveGenerator(path=path, labels=("e",))
        with pytest.raises(EchLensError, match="^generator path has n=4, domain has n=2$"):
            e.orbit_set_index(EXAMPLE, gen, 0, 0)

    def test_refuses_an_unchecked_generator_path(self):
        # the path ends at (-1, 1), outside V_2; it was priced as 11
        path = e.IntegralPath(2, (2, 1), (((-1, 0), 3),))
        gen = e.ConcaveGenerator(path=path, labels=("h",))
        message = r"^last vertex \(-1,1\) is not \(0, a1\) with a1 > 0$"
        with pytest.raises(EchLensError, match=message):
            e.orbit_set_index(EXAMPLE, gen, 1, 0)

    def test_refuses_labels_that_are_not_one_e_or_h_per_edge(self):
        # labels=() priced every edge as elliptic
        path = e.make_path(2, (2, 1), (((-2, 1), 1),))
        with pytest.raises(EchLensError, match="^need exactly one label per distinct edge"):
            e.orbit_set_index(EXAMPLE, e.ConcaveGenerator(path=path, labels=()), 2, 0)
        with pytest.raises(EchLensError, match=r"^labels must be 'e' or 'h', got \[x\]$"):
            e.orbit_set_index(EXAMPLE, e.ConcaveGenerator(path=path, labels=("x",)), 2, 0)

    def test_exceptional_powers_against_pick_and_term_by_term_sums(self):
        rng = random.Random(82)
        empty = {n: e.ConcaveGenerator(path=e.empty_path(n), labels=()) for n in range(1, 5)}
        for _ in range(120):
            dom = e.random_concave_domain(rng)
            m_plus = rng.randint(0, 30)
            m_minus = rng.randint(0, 30)
            m_minus += (-(m_plus + m_minus)) % dom.n
            expected = exceptional_index(dom, m_plus, m_minus)
            assert e.orbit_set_index(dom, empty[dom.n], m_plus, m_minus) == expected

    def test_exceptional_powers_near_a_billion(self):
        # rotation numbers -2/9 and 2: the first edge (-5, 2) is that of
        # E_2(1, 9/5)'s triangle, whose (a - b)/(n*b) is -2/9; the empty
        # generator's auxiliary chain turns at (M*n - m_plus, M) = (m_minus, M)
        dom = e.validate_domain(2, [(6, 3), (1, 5), (0, 7)])
        phi_plus, phi_minus = rotation_numbers(dom)
        assert (phi_plus, phi_minus) == (Fraction(-2, 9), 2)
        empty = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        for m_plus, m_minus in [(10**9, 0), (999_999_937, 63)]:
            big_m = (m_plus + m_minus) // 2
            chain = [(2 * big_m, big_m)]
            if m_minus:
                chain.append((m_minus, big_m))
            chain.append((0, big_m))
            expected = 2 * pick_lattice_count(2, chain)
            expected += 2 * m_plus + 2 * m_minus
            # each of the m_plus // 9 integral i*phi_plus is read one lower
            expected += 2 * (floor_sum_by_periods(phi_plus, m_plus) - m_plus // 9)
            expected += 2 * floor_sum_by_periods(phi_minus, m_minus)
            assert e.orbit_set_index(dom, empty, m_plus, m_minus) == expected


class TestBijectivity:
    def test_classical(self):
        ok, cert = e.index_bijectivity_check(1, 1, FIB, 4)
        assert ok
        assert cert[0] == (0, (0, 0))

    def test_singular(self):
        ok, _ = e.index_bijectivity_check(2, 1, FIB, 5)
        assert ok

    def test_degenerate_ratio(self):
        # the ball B_2(1), where every i*phi is an integer, read as E_2(1, 1+eps)
        ok, cert = e.index_bijectivity_check(2, 1, 1, 1)
        assert ok
        assert (ok, cert) == brute_bijectivity(2, 1, perturbed(1, 1, BRUTE_MULTIPLICITY), 1)

    def test_degenerate_ratio_far_from_one(self):
        # phi_minus = 999/2 is an integer at every even multiplicity
        a, b = Fraction(1, 7), Fraction(1000, 7)
        ok, cert = e.index_bijectivity_check(2, a, b, 2)
        assert ok
        assert (ok, cert) == brute_bijectivity(2, a, perturbed(a, b, BRUTE_MULTIPLICITY), 2)

    def test_zero_layers(self):
        ok, cert = e.index_bijectivity_check(2, 1, 1, 0)
        assert ok
        assert cert == [(0, (0, 0))]

    def test_benchmark_ratios_against_sort_and_slice(self):
        for n in range(1, 5):
            for b in SPECTRUM_RATIOS:
                for layers in (0, 1, 3, 12 // n):
                    ok, cert = brute_bijectivity(n, 1, b, layers)
                    assert ok
                    assert e.index_bijectivity_check(n, 1, b, layers) == (ok, cert)

    def test_near_irrational_against_sort_and_slice(self):
        # a random scale times a continued-fraction convergent of sqrt(2),
        # sqrt(3), sqrt(5) or the golden ratio, either way round
        convergents = [Fraction(99, 70), Fraction(97, 56), Fraction(161, 72), Fraction(89, 55)]
        rng = random.Random(83)
        for _ in range(24):
            n = rng.randint(1, 4)
            a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            ratio = rng.choice(convergents)
            b = a * ratio if rng.random() < 0.5 else a / ratio
            layers = rng.randint(1, 16 // n)
            ok, cert = brute_bijectivity(n, a, perturbed(a, b, BRUTE_MULTIPLICITY), layers)
            assert ok
            assert e.index_bijectivity_check(n, a, b, layers) == (ok, cert)

    def test_rational_ratios_against_lattice_count(self):
        # balls and small-denominator ratios, where many i*phi are integers:
        # the check holds, and every index is that of E_n(a, b(1+eps))
        rng = random.Random(85)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            b = a * rng.choice([1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)])
            if rng.random() < 0.5:
                b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            ok, cert = e.index_bijectivity_check(n, a, b, rng.randint(0, 8 // n))
            assert ok
            for index, (r, s) in cert:
                assert index == lattice_index(n, a, perturbed(a, b, max(r, s)), r, s)
            r = rng.randint(0, 12)
            s = rng.randint(0, 12)
            s += (-(r + s)) % n
            expected = lattice_index(n, a, perturbed(a, b, max(r, s)), r, s)
            assert e.ellipsoid_orbit_index(n, a, b, r, s) == expected

    def test_certificate_entries_are_orbit_set_indices(self):
        cases = [
            (1, 1, FIB, 6),
            (2, 1, FIB, 5),
            (3, 2, Fraction(97, 56), 3),
            (4, Fraction(99, 70), 1, 2),
            (1, Fraction(1009, 1013), Fraction(70001, 7), 4),
        ]
        for n, a, b, layers in cases:
            triangle = e.validate_domain(n, [(n * a, a), (0, b)])
            gen = e.ConcaveGenerator(path=e.empty_path(n), labels=())
            _, cert = e.index_bijectivity_check(n, a, b, layers)
            for index, (r, s) in cert:
                assert index == e.orbit_set_index(triangle, gen, r, s)

    def test_degenerate_ratio_multiplicity(self):
        # phi+ = -2/7 and phi- = 2/5: the window holds e-^5, whose 5*phi- is
        # an integer, from 4 layers on, and e+^7 (7*phi+ = -2) at 6 layers
        b = perturbed(5, 7, BRUTE_MULTIPLICITY)
        for layers in range(7):
            ok, cert = brute_bijectivity(1, 5, b, layers)
            assert ok
            assert e.index_bijectivity_check(1, 5, 7, layers) == (ok, cert)

    def test_far_ratio_against_sort_and_slice(self):
        # b/a near 10^4: the certificate reaches layer 230 and the window's
        # last layer is past 10^4, far beyond the 20 layers asked for
        a, b = Fraction(1009, 1013), Fraction(70001, 7)
        ok, cert = brute_bijectivity(1, a, b, 20)
        assert ok
        assert max(r + s for _, (r, s) in cert) == 230
        assert e.index_bijectivity_check(1, a, b, 20) == (ok, cert)

    def test_extension_past_the_budget_is_a_resource_error(self):
        # the window's last layer is known before any work, and it is past 10^7
        with pytest.raises(ResourceLimit, match="budget"):
            e.index_bijectivity_check(1, 1, Fraction(10**7 + 1, 1), 1)

    def test_non_positive_parameters(self):
        for a, b in ((0, 1), (1, 0), (-1, 2), (2, Fraction(-1, 3))):
            with pytest.raises(EchLensError, match="^ellipsoid parameters must be positive"):
                e.index_bijectivity_check(2, a, b, 3)

    def test_int_core_equals_the_rational_check(self):
        # the CLI's int core, ints over a common denominator that need not
        # be the least, and Fractions give one certificate
        pairs = [(1, FIB), (3, 3), (Fraction(2, 3), Fraction(5, 7)), (Fraction(7, 4), 2)]
        for n in range(1, 5):
            for a, b in pairs:
                layers = 12 // n
                expected = e.index_bijectivity_check(n, a, b, layers)
                assert expected[0]
                d = 6 * Fraction(a).denominator * Fraction(b).denominator
                ia, ib = int(a * d), int(b * d)
                assert bijectivity.bijectivity_ints(n, ia, ib, d, layers) == expected
                assert e.index_bijectivity_check(n, Fraction(a), Fraction(b), layers) == expected
                # the index reads b/a alone
                assert e.index_bijectivity_check(n, ia, ib, layers) == expected

    def test_budget_refusal_text(self):
        # the rationals print in lowest terms, as str(Fraction) printed them
        cases = [
            ((1, Fraction(1, 3), Fraction(7000001, 6), 3),
             "orbit sets of a=1/3, b=7000001/6 up to layer 3500018 can enter the window of 3 "
             "layers; their multiplicities reach 3500018, over the budget of 1048576"),
            ((2, 3, 5000000, 1),
             "orbit sets of a=3, b=5000000 up to layer 1666669 can enter the window of 1 "
             "layers; their multiplicities reach 3333339, over the budget of 1048576"),
        ]
        for (n, a, b, layers), message in cases:
            with pytest.raises(ResourceLimit) as exc:
                e.index_bijectivity_check(n, a, b, layers)
            assert str(exc.value) == message
            ia, ib, d = ellipsoid.ellipsoid_ints(n, a, b)
            with pytest.raises(ResourceLimit) as exc:
                bijectivity.bijectivity_ints(n, 2 * ia, 2 * ib, 2 * d, layers)
            assert str(exc.value) == message

    def test_spectrum_reproduces_generator(self):
        for n in (1, 2):
            actions = e.spectrum_from_orbit_indices(n, 1, FIB, 20)
            assert actions == list(e.ellipsoid_sequence(n, 1, FIB, 19).values)

    def test_spectrum_reproduces_generator_at_rational_ratios(self):
        # the generator's ties are orbit sets that the perturbation orders
        for n in range(1, 5):
            for a, b in ((1, 2), (2, 3), (3, 1), (1, 5)):
                actions = e.spectrum_from_orbit_indices(n, a, b, 30)
                assert actions == list(e.ellipsoid_sequence(n, a, b, 29).values)

    def test_spectrum_layer_count_is_the_least_that_holds_count(self, monkeypatch):
        # the closed form against the search, one layer at a time, it replaced
        seen = []

        def certified(n, ia, ib, d, layers):
            seen.append(layers)
            return True, []

        monkeypatch.setattr(bijectivity, "bijectivity_ints", certified)
        for n in range(1, 7):
            layers = 1
            for count in range(3001):
                while bijectivity._orbit_set_count(n, layers) < count:
                    layers += 1
                e.spectrum_from_orbit_indices(n, 1, 1, count)
                assert seen.pop() == layers, (n, count)


class TestEllipsoidParameters:
    # every E_n(a, b) entry point rejects n < 1 before any other work
    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda n: e.ellipsoid_sequence(n, 1, FIB, 5),
            lambda n: e.ellipsoid_orbit_index(n, 1, FIB, 2, 0),
            lambda n: e.index_bijectivity_check(n, 1, FIB, 2),
        ],
        ids=["sequence", "orbit_index", "bijectivity"],
    )
    def test_non_positive_n(self, entry, n):
        with pytest.raises(EchLensError, match=f"^n must be a positive integer, got {n}$"):
            entry(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_spectrum_returns_at_once(self, n):
        # its layer search never ended for n < 0, so a child process bounds the wait
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from echlens.bijectivity import spectrum_from_orbit_indices\n"
            "from echlens.errors import EchLensError\n"
            "try:\n"
            f"    spectrum_from_orbit_indices({n}, 1, Fraction(233, 144), 5)\n"
            "except EchLensError as exc:\n"
            f"    sys.exit(str(exc) != 'n must be a positive integer, got {n}')\n"
            "sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(e.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
        assert done.returncode == 0

    def test_spectrum_count_past_the_budget_is_refused_at_once(self):
        # the layer search ran a loop per layer before the budget could act,
        # so 10**30 was still counting after 5 s; a child bounds the wait
        script = (
            "import sys, time\n"
            "from echlens.bijectivity import spectrum_from_orbit_indices\n"
            "from echlens.errors import ResourceLimit\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    spectrum_from_orbit_indices(1, 1, 1, 10**30)\n"
            "except ResourceLimit as exc:\n"
            "    assert str(exc).endswith('over the budget of 1048576'), exc\n"
            "    sys.exit(time.perf_counter() - start > 1)\n"
            "sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(e.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=30)
        assert done.returncode == 0


class TestClosedFormUnion:
    def test_against_union_sequence(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 4)
            a1 = Fraction(rng.randint(1, 5), rng.choice([1, 2]))
            plain = [
                Fraction(rng.randint(1, 4), rng.choice([1, 2]))
                for _ in range(rng.randint(0, 3))
            ]
            seqs = [e.ellipsoid_sequence(n, a1, a1, 20)]
            seqs.extend(e.ellipsoid_sequence(1, w, w, 20) for w in plain)
            assert e.union_sequence(seqs, 20).values == packing_closed_form(n, a1, plain, 20)


class TestCapacitySequenceInvariants:
    # each invariant is checked on ints and on exact rationals through sequence_of
    BUILDS = (e.CapacitySequence, sequence_of)

    def test_rejects_nonzero_start(self):
        for build in self.BUILDS:
            with pytest.raises(AssertionError, match="^c_0 must be 0, got 1$"):
                build((1, 2))

    def test_rejects_decreasing(self):
        for build in self.BUILDS:
            with pytest.raises(AssertionError, match="^sequence decreases at k=1$"):
                build((0, 2, 1))
        with pytest.raises(AssertionError, match="^sequence decreases at k=1$"):
            sequence_of((0, Fraction(1, 2), Fraction(1, 3)))

    def test_rejects_empty(self):
        for build in self.BUILDS:
            with pytest.raises(AssertionError, match="got no values$"):
                build(())

    @pytest.mark.parametrize(
        "route",
        [
            lambda kmax: e.ellipsoid_sequence(2, 1, 3, kmax),
            lambda kmax: e.ellipsoid_sequence(3, 1, 1, kmax),
            lambda kmax: e.union_sequence([e.ellipsoid_sequence(1, 1, 1, 3)], kmax),
            lambda kmax: e.capacities_via_weights(EXAMPLE, kmax),
            lambda kmax: e.capacities_via_oracle(EXAMPLE, kmax),
            lambda kmax: e.enumerate_paths_up_to(2, kmax),
            lambda kmax: e.spectrum_from_orbit_indices(2, 1, FIB, kmax),
        ],
        ids=[
            "ellipsoid", "ball", "union", "weights", "oracle", "enumerate", "spectrum",
        ],
    )
    def test_negative_kmax(self, route):
        # kmax, or the spectrum's count
        with pytest.raises(EchLensError, match="must be non-negative, got -1$"):
            route(-1)


class TestStoredForm:
    def test_lowest_terms(self):
        assert e.ellipsoid_sequence(2, Fraction(1, 2), Fraction(1, 2), 10).scale == 1
        seq = e.CapacitySequence((0, 4, 6), 4)
        assert (seq.ints, seq.scale) == ((0, 2, 3), 2)
        assert seq.values == (0, 1, Fraction(3, 2))
        assert seq[2] == Fraction(3, 2) and len(seq) == 3

    def test_of_round_trip(self):
        rng = random.Random(6)
        for _ in range(40):
            seq = random_factor(rng, rng.randint(0, 30))
            again = sequence_of(seq.values)
            assert again == seq
            assert hash(again) == hash(seq)

    def test_rejects_bad_scale(self):
        for scale in (0, -2):
            match = f"^scale must be a positive integer, got {scale}$"
            with pytest.raises(AssertionError, match=match):
                e.CapacitySequence((0, 1), scale)
