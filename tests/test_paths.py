import hashlib
import random
from math import gcd

import pytest

import echlens as e
from echlens import paths
from echlens.errors import EchLensError, ResourceLimit
from helpers import (
    brute_completion_bound,
    brute_edge_count,
    brute_path_length,
    hull_coround,
    pick_lattice_count,
    random_concave_path,
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
        "start,edges,match",
        [
            ((3, 1), (((-3, 1), 1),), r"^first vertex \(3,1\)"),  # start off the ray
            ((2, 1), (((-2, 2), 1),), "is not primitive$"),  # non-primitive direction
            ((2, 1), (((1, 0), 1),), r"^last vertex \(3,1\)"),  # rightward direction
            ((2, 1), (((-1, 0), 1),), r"^last vertex \(1,1\)"),  # does not reach the y-axis
            # repeated direction
            ((2, 1), (((-1, 0), 1), ((-1, 0), 1)), r"^edge slopes .* \(-1,0\) -> \(-1,0\)$"),
            # slopes decreasing
            ((2, 1), (((-1, 1), 1), ((-1, 0), 1)), r"^edge slopes .* \(-1,1\) -> \(-1,0\)$"),
            # touches ray midway
            ((4, 2), (((-1, -1), 2), ((-1, 1), 2)), r"^vertex \(2,0\) outside the cone"),
            ((0, 0), (((-1, 0), 0),), "^multiplicity 0 must be positive$"),  # zero multiplicity
            ((2, 1), (((-2, -1), 1),), r"^last vertex \(0,0\)"),  # ends at the apex
        ],
        ids=[f"start{i}-edges{i}" for i in range(9)],
    )
    def test_rejects(self, start, edges, match):
        with pytest.raises(EchLensError, match=match):
            e.make_path(2, start, edges)

    def test_is_concave_path(self):
        assert e.make_path(2, (2, 1), (((-2, 1), 1),)).vertices()[-1] == (0, 2)
        with pytest.raises(EchLensError, match="^boundary needs at least two vertices$"):
            e.make_path(2, (4, 2), ())

    def test_from_vertices_collapses(self):
        p = e.path_from_vertices(2, [(4, 2), (3, 2), (2, 2), (0, 3)])
        assert p.edges == (((-1, 0), 2), ((-2, 1), 1))

    def test_from_vertices_rejects_a_repeated_vertex(self):
        with pytest.raises(EchLensError, match="^repeated vertex in chain$"):
            e.path_from_vertices(1, [(2, 2), (2, 2), (0, 3)])

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
            # an unvalidated path: one primitive edge per chain step
            steps = []
            for u, v in zip(chain, chain[1:]):
                dx, dy = v[0] - u[0], v[1] - u[1]
                g = gcd(dx, dy)
                steps.append(((dx // g, dy // g), g))
            path = e.IntegralPath(n, chain[0], tuple(steps))
            assert path.vertices() == chain
            assert e.lattice_count(path) == pick_lattice_count(n, chain)


class TestCountKernels:
    def test_against_column_sums_at_every_enumeration_call(self, monkeypatch):
        below = paths._below_line
        calls = []

        def record(*args):
            calls.append(args)
            return below(*args)

        monkeypatch.setattr(paths, "_below_line", record)
        for n in (1, 2, 3, 4):
            e.enumerate_paths_up_to(n, 16)
        assert len(calls) > 1000
        for n, x, y, d in calls:
            assert below(n, x, y, d) == brute_completion_bound(n, x, y, *d), (n, x, y, d)

    def test_an_edge_counts_the_difference_of_its_ends(self):
        # the points strictly below an edge of m steps along d from u to v
        edges = 0
        for n in (1, 2, 3, 4, 7):
            for bucket in e.enumerate_paths_up_to(n, 12).values():
                for p in bucket:
                    for (d, m), u, v in zip(p.edges, p.vertices(), p.vertices()[1:]):
                        count = paths._below_line(n, *u, d) - m - paths._below_line(n, *v, d)
                        assert count == brute_edge_count(n, *u, *v), (n, u, v)
                        edges += 1
        assert edges > 5000

    def test_a_dead_candidate_costs_one_count(self, monkeypatch):
        # each scanned column ends at one dead candidate, told by one count;
        # a live candidate (one step) adds the new vertex's own count unless
        # it closes the path; on the wide cone most columns hold no live one
        below = paths._below_line
        counted = {"calls": 0, "steps": 0, "closes": 0}

        def count(key, result):
            counted[key] += 1
            return result

        monkeypatch.setattr(paths, "_below_line", lambda *args: count("calls", below(*args)))

        def walk():
            paths._enumerate_all(
                100, 8, lambda m: 0, lambda v, d, g: count("steps", v),
                lambda k, v: count("closes", v),
            )

        walk()
        # the empty path closes without a step
        closing_steps = counted["closes"] - 1
        columns = counted["calls"] - 2 * counted["steps"] + closing_steps
        assert (counted["steps"], columns) == (360, 9367)
        # the column budget counts exactly the dead candidates
        monkeypatch.setattr(paths, "COLUMN_BUDGET", columns)
        walk()
        monkeypatch.setattr(paths, "COLUMN_BUDGET", columns - 1)
        with pytest.raises(ResourceLimit, match="more columns than the budget"):
            walk()


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


# sha256 of every path of every bucket in the walk's depth-first order, one
# "k start edges" line each, as the walk with separate edge and completion
# counts closed them: a change to the walk's counting or pruning must keep
# identical paths in identical order
WALK_DIGESTS = {
    (1, 12): "59cd245f63609fa36bc90002c3982f6b10b68bd3c25e665e002aac3f937767a7",
    (2, 12): "06fc2a542f23ae77f0bcb8ad33f6620e1d13c336a1128675d76f5e785c7c5531",
    (3, 12): "cd71233bb6d4fd2ac46057d20c724dbaa4b024551912cd173fde709ef97224f6",
    (4, 12): "2e9d39da892b34771cbf3cfcfec78130b277f2acbf580321e30e8c98d615b35e",
    (5, 12): "fa2a8d317dbfb35b7a0f6b89de25a330c7d4e3f056631679e5d52abe403633d0",
    (6, 12): "84eb091a520bbc622377bcdbc1dfa0234e403a7fa3122cc9c92f75db4e5859be",
    (7, 12): "def5f2472526c300bcf9ee05a44125bce0d38f36cf5d69d2e5f351a441a4b09c",
    (8, 12): "fae5e1be3b0347b328d784b18ad5cbaa6ca64a8419592107372f946e64758287",
    (24, 8): "a9cc97daf6da293615e3aa4002951b3a2ad683fe296c667088c1c64db4ee36e3",
    (100, 8): "c83c30fce1a5959c607574a3a7cf85001619a58fbe6eeda0452c53e4dae560cd",
}


class TestEnumeration:
    def test_walk_order_is_pinned(self):
        for (n, kmax), digest in WALK_DIGESTS.items():
            lines = hashlib.sha256()
            for k, bucket in e.enumerate_paths_up_to(n, kmax).items():
                for p in bucket:
                    lines.update(f"{k} {p.start} {p.edges}\n".encode())
            assert lines.hexdigest() == digest, (n, kmax)

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
                assert e.enumerate_paths_up_to(n, k + 2)[k] == e.enumerate_paths_up_to(n, k)[k]

    def test_totals_match_the_unpruned_enumerator(self):
        for (n, kmax), total in UNPRUNED_TOTALS.items():
            buckets = e.enumerate_paths_up_to(n, kmax)
            assert sum(len(bucket) for bucket in buckets.values()) == total

    def test_prune_does_not_depend_on_kmax(self):
        for n in (1, 2, 3, 4):
            for k in range(11):
                assert e.enumerate_paths_up_to(n, k + 4)[k] == e.enumerate_paths_up_to(n, k)[k]

    def test_rejects_negative(self):
        with pytest.raises(EchLensError, match="^kmax must be non-negative, got -1$"):
            e.enumerate_paths_up_to(2, -1)

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_non_positive_n(self, n):
        # it returned the empty path at k = 0 and nothing above
        with pytest.raises(EchLensError, match=f"^n must be a positive integer, got {n}$"):
            e.enumerate_paths_up_to(n, 3)

    @pytest.mark.parametrize("kmax", [2**63, paths.PATH_BUDGET])
    def test_kmax_past_the_path_budget_is_refused_before_any_work(self, monkeypatch, kmax):
        # each k <= kmax closes a path, so such a kmax cannot fit; the callers
        # sized kmax + 1 slots first (OverflowError at 2^63), then walked
        def walked(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(paths, "_below_line", walked)
        message = f"^n=1, kmax={kmax}: more paths than the budget of {paths.PATH_BUDGET}$"
        with pytest.raises(ResourceLimit, match=message):
            e.capacities_via_oracle(e.validate_domain(1, [(1, 1), (0, 1)]), kmax)
        with pytest.raises(ResourceLimit, match=message):
            e.enumerate_paths_up_to(1, kmax)

    def test_column_budget_counts_the_columns_left_of_each_vertex(self, monkeypatch):
        # at kmax 1 the one call from (n, 1) scans its n columns and no more
        monkeypatch.setattr(paths, "COLUMN_BUDGET", 1000)
        assert [len(b) for b in e.enumerate_paths_up_to(1000, 1).values()] == [1, 1]
        with pytest.raises(ResourceLimit, match="n=1001, kmax=1: .*budget of 1000"):
            e.enumerate_paths_up_to(1001, 1)
        # each call walks afresh, so the refused walk leaves nothing behind
        assert [len(b) for b in e.enumerate_paths_up_to(1000, 1).values()] == [1, 1]

    def test_smaller_kmax_is_a_prefix(self):
        small = e.enumerate_paths_up_to(2, 3)
        large = e.enumerate_paths_up_to(2, 5)
        assert len(small) == 4 and len(large) == 6
        assert e.enumerate_paths_up_to(2, 3) == small
        assert {k: large[k] for k in range(4)} == small

    def test_path_budget_counts_every_closed_path(self, monkeypatch):
        # n = 2 closes 91 paths at kmax 8, the empty path among them
        monkeypatch.setattr(paths, "PATH_BUDGET", 91)
        assert sum(map(len, e.enumerate_paths_up_to(2, 8).values())) == 91
        monkeypatch.setattr(paths, "PATH_BUDGET", 90)
        with pytest.raises(ResourceLimit, match="n=2, kmax=8: more paths than the budget of 90"):
            e.enumerate_paths_up_to(2, 8)

    def test_walk_carries_each_chain_value_to_its_close(self):
        # a consumer that carries a chain's lattice steps gets, in the
        # collector's order, the step counts of the collected paths
        for n in (1, 2, 3, 4):
            closed = {k: [] for k in range(9)}
            paths._enumerate_all(
                n, 8, lambda m: 0, lambda v, d, g: v + g, lambda k, v: closed[k].append(v)
            )
            steps = {
                k: [sum(m for _, m in p.edges) for p in bucket]
                for k, bucket in e.enumerate_paths_up_to(n, 8).items()
            }
            assert closed == steps


class TestCoround:
    def test_invalid_vertex(self):
        p = e.make_path(2, (2, 1), (((-2, 1), 1),))
        with pytest.raises(EchLensError, match="^vertex index 0 is not an interior vertex$"):
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

    def test_matches_the_whole_span_hull_on_enumerated_paths(self):
        cases = 0
        for n in (1, 2, 3, 4):
            for bucket in e.enumerate_paths_up_to(n, 10).values():
                for p in bucket:
                    for i in range(1, len(p.vertices()) - 1):
                        assert e.coround_corner(p, i) == hull_coround(p, i)
                        cases += 1
        assert cases > 1000

    def test_result_is_the_checked_path_of_its_vertices(self):
        # the result is built unchecked; path_from_vertices checks its chain
        # and collapses it to the same edges, so every run merged is merged
        cases = 0
        for n in (1, 2, 3, 4):
            for bucket in e.enumerate_paths_up_to(n, 13).values():
                for p in bucket:
                    for i in range(1, len(p.vertices()) - 1):
                        q = e.coround_corner(p, i)
                        assert e.path_from_vertices(n, q.vertices()) == q
                        cases += 1
        assert cases == 4185

    def test_matches_the_whole_span_hull_on_random_paths(self):
        # n up to 30, multiplicities up to 6, primitive widths up to 7
        rng = random.Random(25)
        cases = 0
        for _ in range(100):
            p = random_concave_path(rng, rng.randint(1, 30))
            for i in range(1, len(p.vertices()) - 1):
                assert e.coround_corner(p, i) == hull_coround(p, i)
                cases += 1
        assert cases > 100

    def test_long_path_stays_at_the_corner(self):
        # the whole-span hull scans a billion columns here; the corner's
        # triangle spans three or four
        m = 10**9
        p = e.path_from_vertices(1, [(m, m), (3, m), (2, m + 1), (0, m + 5)])
        start = "start=(1000000000,1000000000); "
        assert e.path_to_text(e.coround_corner(p, 1)) == (
            start + "edges=[(-1,0)x999999996, (-2,1)x1, (-1,2)x2]"
        )
        assert e.path_to_text(e.coround_corner(p, 2)) == (
            start + "edges=[(-1,0)x999999997, (-2,3)x1, (-1,2)x1]"
        )

    def test_vertical_edge_is_a_path_error(self):
        # unvalidated, so the check runs before any column is divided out
        p = paths.IntegralPath(1, (2, 2), (((-1, 1), 1), ((0, 1), 1), ((-1, 2), 1)))
        with pytest.raises(EchLensError, match="x does not strictly decrease"):
            e.coround_corner(p, 2)
        with pytest.raises(EchLensError, match="x does not strictly decrease"):
            e.coround_corner(p, 1)
