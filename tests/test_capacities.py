import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import echlens as e
from echlens import paths
from echlens.errors import (
    DegenerateRatio,
    DeltaTooLarge,
    HomologyNotZero,
    InsufficientLength,
    MismatchedN,
    NonPositivePeriod,
    ResourceLimit,
)
from helpers import (
    ball_closed_form,
    brute_bijectivity,
    brute_combination_sequence,
    brute_floor_sum,
    brute_orbit_index,
    brute_path_length,
    floor_sum_by_periods,
    lattice_index,
    naive_union,
    packing_closed_form,
    pick_lattice_count,
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
    return e.CapacitySequence.of(vals)


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
        with pytest.raises(NonPositivePeriod):
            e.ellipsoid_sequence(2, 0, 1, 5)
        with pytest.raises(NonPositivePeriod):
            e.ellipsoid_sequence(0, 1, 1, 5)

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
        with pytest.raises(InsufficientLength):
            e.union_sequence([e.ellipsoid_sequence(1, 1, 1, 3)], 5)
        with pytest.raises(InsufficientLength):
            e.union_sequence([], 3)


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
                scaled = e.capacities_via_weights(e.scale_domain(dom, r), 6)
                assert scaled.values == tuple(r * v for v in base.values)


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
                cap = e.singular_ball_capacity(dom)
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
        # a refused enumeration caches nothing, and a smaller one still runs
        assert paths._ENUM_CACHE == {}
        assert e.capacities_via_oracle(B21, 8) == e.capacities_via_weights(B21, 8)
        with pytest.raises(ResourceLimit):
            e.capacities_via_oracle(B21, 9)
        assert len(paths._ENUM_CACHE[2]) == 9


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
        with pytest.raises(DeltaTooLarge):
            e.capacities_via_oracle(B21, 3, delta=1)
        with pytest.raises(DeltaTooLarge):
            e.capacities_via_oracle(B21, 3, delta=Fraction(-1, 2))
        # checked before the enumeration, so before its budget
        with pytest.raises(DeltaTooLarge):
            e.capacities_via_oracle(B21, 9, delta=1)


class TestSingularBallCapacity:
    def test_self_inclusion(self):
        assert e.singular_ball_capacity(B21) == 1

    def test_example(self):
        assert e.singular_ball_capacity(EXAMPLE) == 2

    def test_c1_identity(self):
        rng = random.Random(6)
        for _ in range(30):
            dom = e.random_concave_domain(rng)
            assert e.capacities_via_weights(dom, 1)[1] == dom.n * e.singular_ball_capacity(dom)


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

    def test_insufficient_length(self):
        with pytest.raises(InsufficientLength):
            e.obstruction_report(
                e.capacities_via_weights(B21, 3), e.capacities_via_weights(B22, 5), kmax=5
            )


class TestEllipsoidOrbitIndex:
    def test_empty(self):
        assert e.ellipsoid_orbit_index(3, 1, 2, 0, 0) == 0

    def test_worked_example(self):
        assert e.ellipsoid_orbit_index(2, 1, 1, 2, 0) == 6

    def test_full_layer_distinct_even(self):
        values = [e.ellipsoid_orbit_index(2, 1, FIB, r, 2 - r) for r in range(3)]
        assert len(set(values)) == 3
        assert all(v % 2 == 0 for v in values)

    def test_homology(self):
        with pytest.raises(HomologyNotZero):
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
            assert e.ellipsoid_orbit_index(n, a, b, r, s) == brute_orbit_index(n, a, b, r, s)

    def test_huge_multiplicity(self):
        # phi_plus = -89/466: 2 145 922 746 full periods and a tail of 365 floors
        r = 10**12
        k = r // 2
        expected = 2 * k * (k + 1) + 2 * k + 2 * floor_sum_by_periods(Fraction(-89, 466), r)
        assert expected == 309012875537291845493562
        assert e.ellipsoid_orbit_index(2, 1, FIB, r, 0) == expected


class TestOrbitSetIndex:
    def test_reduces_to_generator_index(self):
        for k in range(4):
            for p in e.enumerate_paths_up_to(2, k)[k]:
                labels = ("e",) * len(p.edges)
                gen = e.ConcaveGenerator(path=p, labels=labels)
                orbit = e.OrbitSetDescriptor(m_plus=0, m_minus=0, generator=gen)
                assert e.orbit_set_index(EXAMPLE, orbit) == e.generator_index(gen)

    def test_empty(self):
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        orbit = e.OrbitSetDescriptor(m_plus=0, m_minus=0, generator=gen)
        assert e.orbit_set_index(B21, orbit) == 0

    def test_exceptional_orbits_raise_the_index(self):
        # with the empty generator the index of e+^r depends only on the
        # first edge, and (-1, 1) is the direction of E_2(1, 3)'s edge
        pert = e.validate_domain(2, [(2, 1), (1, 2), (0, 4)])
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        orbit = e.OrbitSetDescriptor(m_plus=2, m_minus=0, generator=gen)
        assert e.orbit_set_index(pert, orbit) == brute_orbit_index(2, 1, 3, 2, 0) == 2

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
            orbit = e.OrbitSetDescriptor(m_plus=r, m_minus=s, generator=gen)
            assert e.orbit_set_index(triangle, orbit) == lattice_index(n, a, b, r, s)

    def test_homology(self):
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        orbit = e.OrbitSetDescriptor(m_plus=1, m_minus=0, generator=gen)
        with pytest.raises(HomologyNotZero):
            e.orbit_set_index(B21, orbit)

    def test_generator_from_another_orbifold(self):
        # an n = 4 generator on the n = 2 domain: its run 4 passes the
        # homology test, and it used to be priced (as 16) on the wrong cone
        path = e.make_path(4, (4, 1), (((-4, 1), 1),))
        gen = e.ConcaveGenerator(path=path, labels=("e",))
        orbit = e.OrbitSetDescriptor(m_plus=0, m_minus=0, generator=gen)
        with pytest.raises(MismatchedN):
            e.orbit_set_index(EXAMPLE, orbit)

    def test_exceptional_powers_against_pick_and_term_by_term_sums(self):
        # empty generator: the auxiliary chain runs along y = M from the ray
        # to the y-axis, turning at (M*n - m_plus, M)
        rng = random.Random(82)
        empty = {n: e.ConcaveGenerator(path=e.empty_path(n), labels=()) for n in range(1, 5)}
        for _ in range(120):
            dom = e.random_concave_domain(rng)
            n = dom.n
            m_plus = rng.randint(0, 30)
            m_minus = rng.randint(0, 30)
            m_minus += (-(m_plus + m_minus)) % n
            big_m = (m_plus + m_minus) // n
            chain = [(big_m * n, big_m)]
            if m_plus and m_minus:
                chain.append((big_m * n - m_plus, big_m))
            chain.append((0, big_m))
            count = pick_lattice_count(n, chain) if big_m else 0
            rot = e.rotation_numbers(dom)
            expected = 2 * count + 2 * m_plus + 2 * m_minus
            expected += 2 * brute_floor_sum(rot.phi_plus, m_plus)
            expected += 2 * brute_floor_sum(rot.phi_minus, m_minus)
            orbit = e.OrbitSetDescriptor(m_plus=m_plus, m_minus=m_minus, generator=empty[n])
            assert e.orbit_set_index(dom, orbit) == expected

    def test_exceptional_powers_near_a_billion(self):
        # rotation numbers -2/9 and 2: the first edge (-5, 2) is that of
        # E_2(1, 9/5)'s triangle, whose (a - b)/(n*b) is -2/9; the empty
        # generator's auxiliary chain turns at (M*n - m_plus, M) = (m_minus, M)
        dom = e.validate_domain(2, [(6, 3), (1, 5), (0, 7)])
        rot = e.rotation_numbers(dom)
        assert (rot.phi_plus, rot.phi_minus) == (Fraction(-2, 9), 2)
        empty = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        for m_plus, m_minus in [(10**9, 0), (999_999_937, 63)]:
            big_m = (m_plus + m_minus) // 2
            chain = [(2 * big_m, big_m)]
            if m_minus:
                chain.append((m_minus, big_m))
            chain.append((0, big_m))
            expected = 2 * pick_lattice_count(2, chain)
            expected += 2 * m_plus + 2 * m_minus
            expected += 2 * floor_sum_by_periods(rot.phi_plus, m_plus)
            expected += 2 * floor_sum_by_periods(rot.phi_minus, m_minus)
            orbit = e.OrbitSetDescriptor(m_plus=m_plus, m_minus=m_minus, generator=empty)
            assert e.orbit_set_index(dom, orbit) == expected


class TestBijectivity:
    def test_classical(self):
        ok, cert = e.index_bijectivity_check(1, 1, FIB, 4)
        assert ok
        assert cert[0] == (0, (0, 0))

    def test_singular(self):
        ok, _ = e.index_bijectivity_check(2, 1, FIB, 5)
        assert ok

    def test_degenerate_ratio(self):
        with pytest.raises(DegenerateRatio):
            e.index_bijectivity_check(2, 1, 1, 1)

    def test_degenerate_ratio_message_names_both_parameters(self):
        with pytest.raises(DegenerateRatio, match="a=1/7, b=1000/7"):
            e.index_bijectivity_check(2, Fraction(1, 7), Fraction(1000, 7), 2)

    def test_zero_layers(self):
        ok, cert = e.index_bijectivity_check(2, 1, 1, 0)
        assert ok
        assert cert == [(0, (0, 0))]

    def test_benchmark_ratios_against_sort_and_slice(self):
        for n in range(1, 5):
            for b in SPECTRUM_RATIOS:
                for layers in (0, 1, 3, 12 // n):
                    ok, cert, degenerate = brute_bijectivity(n, 1, b, layers)
                    assert degenerate is None
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
            ok, cert, degenerate = brute_bijectivity(n, a, b, layers)
            if degenerate is not None:
                with pytest.raises(DegenerateRatio, match=f"multiplicity {degenerate};"):
                    e.index_bijectivity_check(n, a, b, layers)
            else:
                assert e.index_bijectivity_check(n, a, b, layers) == (ok, cert)

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
                assert index == e.orbit_set_index(triangle, e.OrbitSetDescriptor(r, s, gen))

    def test_degenerate_ratio_multiplicity(self):
        # phi+ = -2/7 and phi- = 2/5: 5*phi- is the first integer argument
        for layers in range(7):
            ok, cert, degenerate = brute_bijectivity(1, 5, 7, layers)
            if degenerate is None:
                assert e.index_bijectivity_check(1, 5, 7, layers) == (ok, cert)
            else:
                assert degenerate == 5
                with pytest.raises(DegenerateRatio, match="multiplicity 5;"):
                    e.index_bijectivity_check(1, 5, 7, layers)

    def test_far_ratio_against_sort_and_slice(self):
        # b/a near 10^4: the certificate reaches layer 230 and the window's
        # last layer is past 10^4, far beyond the 20 layers asked for
        a, b = Fraction(1009, 1013), Fraction(70001, 7)
        ok, cert, degenerate = brute_bijectivity(1, a, b, 20)
        assert ok and degenerate is None
        assert max(r + s for _, (r, s) in cert) == 230
        assert e.index_bijectivity_check(1, a, b, 20) == (ok, cert)

    def test_extension_past_the_budget_is_a_resource_error(self):
        # the window's last layer is known before any work, and it is past 10^7
        with pytest.raises(ResourceLimit, match="budget"):
            e.index_bijectivity_check(1, 1, Fraction(10**7 + 1, 1), 1)

    def test_non_positive_parameters(self):
        for a, b in ((0, 1), (1, 0), (-1, 2), (2, Fraction(-1, 3))):
            with pytest.raises(NonPositivePeriod):
                e.index_bijectivity_check(2, a, b, 3)

    def test_spectrum_reproduces_generator(self):
        for n in (1, 2):
            actions = e.spectrum_from_orbit_indices(n, 1, FIB, 20)
            assert actions == list(e.ellipsoid_sequence(n, 1, FIB, 19).values)


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
        with pytest.raises(NonPositivePeriod):
            entry(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_spectrum_returns_at_once(self, n):
        # its layer search never ended for n < 0, so a child process bounds the wait
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from echlens.capacities import spectrum_from_orbit_indices\n"
            "from echlens.errors import NonPositivePeriod\n"
            "try:\n"
            f"    spectrum_from_orbit_indices({n}, 1, Fraction(233, 144), 5)\n"
            "except NonPositivePeriod:\n"
            "    sys.exit(0)\n"
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
    # each invariant is checked on ints and on exact rationals through `of`
    BUILDS = (e.CapacitySequence, e.CapacitySequence.of)

    def test_rejects_nonzero_start(self):
        for build in self.BUILDS:
            with pytest.raises(ValueError):
                build((1, 2))

    def test_rejects_decreasing(self):
        for build in self.BUILDS:
            with pytest.raises(ValueError):
                build((0, 2, 1))
        with pytest.raises(ValueError):
            e.CapacitySequence.of((0, Fraction(1, 2), Fraction(1, 3)))

    def test_rejects_empty(self):
        for build in self.BUILDS:
            with pytest.raises(ValueError):
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
            lambda kmax: e.obstruction_report(
                e.ellipsoid_sequence(1, 1, 1, 3), e.ellipsoid_sequence(1, 1, 1, 3), kmax
            ),
            lambda kmax: e.spectrum_from_orbit_indices(2, 1, FIB, kmax),
        ],
        ids=[
            "ellipsoid", "ball", "union", "weights", "oracle", "enumerate", "obstruction",
            "spectrum",
        ],
    )
    def test_negative_kmax(self, route):
        with pytest.raises(ValueError):
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
            again = e.CapacitySequence.of(seq.values)
            assert again == seq
            assert hash(again) == hash(seq)

    def test_rejects_bad_scale(self):
        for scale in (0, -2):
            with pytest.raises(ValueError):
                e.CapacitySequence((0, 1), scale)
