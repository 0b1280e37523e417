import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import echlens as e
from echlens import paths
from echlens.errors import InvalidVertex, PathError
from helpers import (
    brute_completion_bound,
    brute_edge_count,
    brute_path_length,
    pick_lattice_count,
)


class TestConstruction:
    def test_empty(self):
        p = e.empty_path(2)
        assert p.edges == ()
        assert p.start == (0, 0)
        assert e.lattice_count(p) == 0

    def test_vertices(self):
        p = e.make_path(2, (4, 2), (((-1, 0), 1), ((-3, 1), 1)))
        assert p.vertices() == [(4, 2), (3, 2), (0, 3)]

    @pytest.mark.parametrize(
        "start,edges",
        [
            ((3, 1), (((-3, 1), 1),)),  # start off the ray
            ((2, 1), (((-2, 2), 1),)),  # non-primitive direction
            ((2, 1), (((1, 0), 1),)),  # rightward direction
            ((2, 1), (((-1, 0), 1),)),  # does not reach the y-axis
            ((2, 1), (((-1, 0), 1), ((-1, 0), 1))),  # repeated direction
            ((2, 1), (((-1, 1), 1), ((-1, 0), 1))),  # slopes decreasing
            ((4, 2), (((-1, -1), 2), ((-1, 1), 2))),  # touches ray midway
            ((0, 0), (((-1, 0), 0),)),  # zero multiplicity
            ((2, 1), (((-2, -1), 1),)),  # ends at the apex
        ],
    )
    def test_rejects(self, start, edges):
        with pytest.raises(PathError):
            e.make_path(2, start, edges)

    def test_is_concave_path(self):
        assert e.make_path(2, (2, 1), (((-2, 1), 1),)).vertices()[-1] == (0, 2)
        with pytest.raises(PathError):
            e.make_path(2, (4, 2), ())

    def test_from_vertices_collapses(self):
        p = e.path_from_vertices(2, [(4, 2), (3, 2), (2, 2), (0, 3)])
        assert p.edges == (((-1, 0), 2), ((-2, 1), 1))

    def test_text_roundtrip(self):
        p = e.make_path(2, (4, 2), (((-1, 0), 2), ((-2, 1), 1)))
        text = e.path_to_text(p, labels=("e", "h"))
        q, labels = e.parse_path_text(2, text)
        assert q == p and labels == ("e", "h")


class TestLatticeCount:
    def test_worked_example(self):
        # single edge (2,1) -> (0,2): column 0 holds {(0,0),(0,1)}, column 1
        # holds {(1,1)}; the path point (0,2) is excluded
        assert e.lattice_count(e.make_path(2, (2, 1), (((-2, 1), 1),))) == 3

    def test_horizontal(self):
        assert e.lattice_count(e.make_path(2, (2, 1), (((-1, 0), 2),))) == 1

    def test_pick_oracle(self):
        for n in (1, 2, 3):
            for k, bucket in e.enumerate_paths_up_to(n, 6).items():
                for p in bucket:
                    assert e.lattice_count(p) == pick_lattice_count(p) == k

    def test_pick_oracle_n4(self):
        for k, bucket in e.enumerate_paths_up_to(4, 4).items():
            for p in bucket:
                assert e.lattice_count(p) == pick_lattice_count(p) == k

    def test_pick_oracle_non_concave_chains(self):
        # the shape of the orbit-set index's auxiliary chains: start on the
        # ray, x strictly decreasing, interior vertices strictly inside
        rng = random.Random(11)
        for _ in range(3000):
            n = rng.randint(1, 4)
            m = rng.randint(1, 6)
            chain = [(m * n, m)]
            x = m * n
            while x > 0:
                x = rng.randint(0, x - 1)
                chain.append((x, x // n + 1 + rng.randint(0, 6)))
            # an unvalidated path: one edge per chain step, multiplicity 1
            steps = tuple(((v[0] - u[0], v[1] - u[1]), 1) for u, v in zip(chain, chain[1:]))
            path = e.IntegralPath(n, chain[0], steps)
            assert e.lattice_count(path) == pick_lattice_count(n, chain)


class TestCountKernels:
    def test_against_column_sums_at_every_enumeration_call(self, monkeypatch):
        kernels = {
            paths._edge_count: brute_edge_count,
            paths._completion_bound: brute_completion_bound,
        }
        calls = {kernel: [] for kernel in kernels}

        def recording(kernel):
            def record(*args):
                calls[kernel].append(args)
                return kernel(*args)

            return record

        for kernel in kernels:
            monkeypatch.setattr(paths, kernel.__name__, recording(kernel))
        monkeypatch.setattr(paths, "_ENUM_CACHE", {})
        for n in (1, 2, 3, 4):
            e.enumerate_paths_up_to(n, 16)
        for kernel, brute in kernels.items():
            assert len(calls[kernel]) > 1000
            for args in calls[kernel]:
                assert kernel(*args) == brute(*args), args


class TestHomology:
    @given(st.integers(0, 40), st.integers(-20, 20), st.integers(1, 5))
    def test_roundtrip(self, x, y, n):
        l, k1, k2 = e.homology_class((x, y), n)
        assert 0 <= l < n
        assert (x - l, y) == (k1 * n, k1 + k2)


class TestGeneratorIndex:
    def test_all_elliptic(self):
        p = e.make_path(2, (2, 1), (((-2, 1), 1),))
        gen = e.ConcaveGenerator(path=p, labels=("e",))
        assert e.generator_index(gen) == 6

    def test_hyperbolic_labels(self):
        p = e.make_path(2, (4, 2), (((-1, 0), 2), ((-2, 1), 1)))
        gen = e.ConcaveGenerator(path=p, labels=("h", "h"))
        assert e.generator_index(gen) == 2 * e.lattice_count(p) + 2


# bucket sizes for k = 0..10 (the same figures as the benchmark's own check)
PATH_COUNTS = {
    1: (1, 1, 2, 3, 4, 7, 9, 11, 17, 23, 28),
    2: (1, 1, 2, 5, 7, 9, 15, 21, 30, 44, 58),
    3: (1, 1, 2, 5, 10, 14, 22, 30, 40, 57, 82),
    4: (1, 1, 2, 5, 10, 18, 29, 42, 57, 80, 110),
}

# totals over k <= kmax, measured by the enumerator before it pruned chains
# that cannot close within kmax
UNPRUNED_TOTALS = {
    (2, 14): 667, (2, 16): 1171, (2, 20): 3271, (3, 14): 1004, (4, 12): 699, (4, 16): 2402,
}


class TestEnumeration:
    def test_deterministic(self):
        assert e.enumerate_paths_up_to(2, 3)[3] == e.enumerate_paths_up_to(2, 3)[3]

    def test_unique_l0(self):
        for n in (1, 2, 3, 4):
            assert e.enumerate_paths_up_to(n, 0)[0] == (e.empty_path(n),)

    def test_counts_exact(self):
        for n in (1, 2, 3):
            for k in range(5):
                for p in e.enumerate_paths_up_to(n, k)[k]:
                    assert e.lattice_count(p) == k

    def test_bucket_sizes(self):
        for n, sizes in PATH_COUNTS.items():
            buckets = e.enumerate_paths_up_to(n, 10)
            assert tuple(len(buckets[k]) for k in range(11)) == sizes

    def test_paths_are_valid_and_distinct(self):
        # the enumerator builds its paths without validating them
        for n in (1, 2, 3, 4):
            for bucket in e.enumerate_paths_up_to(n, 8).values():
                assert len(set(bucket)) == len(bucket)
                for p in bucket:
                    assert p == e.make_path(n, p.start, p.edges)

    def test_box_is_wide_enough(self):
        # widening the range of starting multiples must not discover new paths
        for n in (1, 2, 3, 4):
            for k in range(4):
                assert paths._enumerate_all(n, k + 2)[k] == paths._enumerate_all(n, k)[k]

    def test_totals_match_the_unpruned_enumerator(self):
        for (n, kmax), total in UNPRUNED_TOTALS.items():
            buckets = e.enumerate_paths_up_to(n, kmax)
            assert sum(len(bucket) for bucket in buckets.values()) == total

    def test_prune_does_not_depend_on_kmax(self):
        for n in (1, 2, 3, 4):
            for k in range(11):
                assert paths._enumerate_all(n, k + 4)[k] == paths._enumerate_all(n, k)[k]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            e.enumerate_paths_up_to(2, -1)

    def test_one_cache_entry_per_n(self, monkeypatch):
        monkeypatch.setattr(paths, "_ENUM_CACHE", {})
        small = e.enumerate_paths_up_to(2, 3)
        large = e.enumerate_paths_up_to(2, 5)
        assert list(paths._ENUM_CACHE) == [2] and len(paths._ENUM_CACHE[2]) == 6
        assert e.enumerate_paths_up_to(2, 3) == small
        assert {k: large[k] for k in range(4)} == small


class TestCoround:
    def test_invalid_vertex(self):
        p = e.make_path(2, (2, 1), (((-2, 1), 1),))
        with pytest.raises(InvalidVertex):
            e.coround_corner(p, 0)

    def test_monotone_on_enumerated_paths(self):
        rng = random.Random(17)
        cases = 0
        for n in (1, 2, 3):
            dom = e.random_concave_domain(rng, n=n)
            for k in range(1, 8):
                for p in e.enumerate_paths_up_to(n, k)[k]:
                    for i in range(1, len(p.vertices()) - 1):
                        q = e.coround_corner(p, i)
                        assert brute_path_length(dom, q) >= brute_path_length(dom, p)
                        assert e.lattice_count(q) >= e.lattice_count(p)
                        cases += 1
        assert cases > 100

    def test_removes_corner(self):
        # corounding (2,1)->(1,1)->(0,2) lifts the corner (1,1)
        p = e.make_path(2, (2, 1), (((-1, 0), 1), ((-1, 1), 1)))
        q = e.coround_corner(p, 1)
        assert (1, 1) not in q.vertices()
        assert e.lattice_count(q) > e.lattice_count(p)
