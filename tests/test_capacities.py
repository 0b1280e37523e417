import random
from fractions import Fraction

import pytest

import echlens as e
from echlens.capacities import DEFAULT_ORACLE_BUDGET
from echlens.errors import (
    DegenerateRatio,
    DeltaTooLarge,
    HomologyNotZero,
    InsufficientLength,
    NonPositivePeriod,
    ResourceLimit,
)
from helpers import brute_combination_sequence, packing_closed_form

B21 = e.validate_domain(2, [(2, 1), (0, 1)])
B22 = e.validate_domain(2, [(4, 2), (0, 2)])
EXAMPLE = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
FIB = Fraction(233, 144)


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
        for n, a, b in [(1, 1, 2), (2, 1, FIB), (3, Fraction(5, 2), Fraction(1, 3)), (4, 2, 3)]:
            assert list(e.ellipsoid_sequence(n, a, b, 40).values) == brute_combination_sequence(
                n, a, b, 40
            )

    def test_rejects(self):
        with pytest.raises(NonPositivePeriod):
            e.ellipsoid_sequence(2, 0, 1, 5)
        with pytest.raises(NonPositivePeriod):
            e.ellipsoid_sequence(0, 1, 1, 5)

    def test_large_kmax_is_cheap(self):
        seq = e.ellipsoid_sequence(3, 1, Fraction(8, 5), 20000)
        assert len(seq) == 20001


class TestBallSequence:
    def test_unit(self):
        assert e.ball_sequence(1, 6).values == (0, 1, 1, 2, 2, 2, 3)

    def test_scaled(self):
        assert e.ball_sequence(2, 3).values == (0, 2, 2, 4)

    def test_matches_generator(self):
        for a in (1, Fraction(3, 7), 5):
            assert e.ball_sequence(a, 30).values == e.ellipsoid_sequence(1, a, a, 30).values

    def test_singular_closed_form_matches_generator(self):
        for n in (1, 2, 3, 4):
            for a in (1, Fraction(2, 3)):
                assert (
                    e.ball_sequence(a, 40, n).values
                    == e.ellipsoid_sequence(n, a, a, 40).values
                )


class TestUnionSequence:
    def test_identity(self):
        seq = e.ball_sequence(1, 5)
        assert e.union_sequence([seq], 5).values == seq.values

    def test_worked_example(self):
        u = e.union_sequence([e.ellipsoid_sequence(2, 2, 2, 3), e.ball_sequence(1, 3)], 3)
        assert u[1] == 4
        assert u[2] == 5
        assert u[3] == 5

    def test_commutative_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            seqs = [e.ball_sequence(Fraction(rng.randint(1, 9), rng.randint(1, 3)), 12) for _ in range(3)]
            forward = e.union_sequence(seqs, 12)
            backward = e.union_sequence(list(reversed(seqs)), 12)
            assert forward.values == backward.values

    def test_insufficient_length(self):
        with pytest.raises(InsufficientLength):
            e.union_sequence([e.ball_sequence(1, 3)], 5)
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

    def test_conformality(self):
        rng = random.Random(4)
        for _ in range(20):
            dom = e.random_concave_domain(rng)
            base = e.capacities_via_weights(dom, 6)
            for r in (Fraction(1, 3), 2, Fraction(7, 5)):
                scaled = e.capacities_via_weights(e.scale_domain(dom, r), 6)
                assert scaled.values == tuple(r * v for v in base.values)


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

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            e.capacities_via_oracle(B21, DEFAULT_ORACLE_BUDGET + 1)
        # explicit budget overrides the default
        seq = e.capacities_via_oracle(B21, 11, budget=11)
        assert len(seq) == 12


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

    def test_delta_too_large(self):
        with pytest.raises(DeltaTooLarge):
            e.capacities_via_oracle(B21, 3, delta=1)
        with pytest.raises(DeltaTooLarge):
            e.capacities_via_oracle(B21, 3, delta=Fraction(-1, 2))
        # checked before the budget and the enumeration
        with pytest.raises(DeltaTooLarge):
            e.capacities_via_oracle(B21, DEFAULT_ORACLE_BUDGET + 1, delta=1)


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
        # boundary ascending away from the ray keeps the rotation correction
        # small, so the two e+ copies contribute their full 2m+ each
        pert = e.validate_domain(2, [(2, 1), (1, 2), (0, 4)])
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        orbit = e.OrbitSetDescriptor(m_plus=2, m_minus=0, generator=gen)
        k0 = 1  # layer number (m_plus + m_minus) / n
        assert e.orbit_set_index(pert, orbit) > 2 * k0

    def test_homology(self):
        gen = e.ConcaveGenerator(path=e.empty_path(2), labels=())
        orbit = e.OrbitSetDescriptor(m_plus=1, m_minus=0, generator=gen)
        with pytest.raises(HomologyNotZero):
            e.orbit_set_index(B21, orbit)


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

    def test_spectrum_reproduces_generator(self):
        for n in (1, 2):
            actions = e.spectrum_from_orbit_indices(n, 1, FIB, 20)
            assert actions == list(e.ellipsoid_sequence(n, 1, FIB, 19).values)


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
            seqs.extend(e.ball_sequence(w, 20) for w in plain)
            assert e.union_sequence(seqs, 20).values == packing_closed_form(n, a1, plain, 20)


class TestCapacitySequenceInvariants:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            e.CapacitySequence(values=(1, 2))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            e.CapacitySequence(values=(0, 2, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            e.CapacitySequence(values=())

    @pytest.mark.parametrize(
        "route",
        [
            lambda kmax: e.ellipsoid_sequence(2, 1, 3, kmax),
            lambda kmax: e.ball_sequence(1, kmax),
            lambda kmax: e.union_sequence([e.ball_sequence(1, 3)], kmax),
            lambda kmax: e.capacities_via_weights(EXAMPLE, kmax),
            lambda kmax: e.capacities_via_oracle(EXAMPLE, kmax),
            lambda kmax: e.enumerate_paths_up_to(2, kmax),
        ],
        ids=["ellipsoid", "ball", "union", "weights", "oracle", "enumerate"],
    )
    def test_negative_kmax(self, route):
        with pytest.raises(ValueError):
            route(-1)
