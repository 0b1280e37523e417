"""Acceptance criteria A1-A10.

Each test prints exactly one PASS/FAIL line for its criterion.  All
comparisons are exact rational arithmetic; tolerance zero.
"""

import random
import time
from fractions import Fraction

import echlens as e
from echlens import cli
from helpers import (
    brute_combination_sequence,
    brute_path_length,
    omega_length,
    packing_closed_form,
)

FIB = Fraction(233, 144)


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def test_a1_singular_ball_n2():
    start = time.monotonic()
    got = e.ellipsoid_sequence(2, 1, 1, 15).values
    elapsed = time.monotonic() - start
    expected = (0, 2, 2, 2, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6)
    _report("A1", got == expected and elapsed < 1.0, f"{elapsed:.3f}s")


def test_a2_singular_ball_n4():
    start = time.monotonic()
    got = e.ellipsoid_sequence(4, 1, 1, 14).values
    elapsed = time.monotonic() - start
    expected = (0, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8)
    _report("A2", got == expected and elapsed < 1.0, f"{elapsed:.3f}s")


def test_a3_classical_ellipsoids_brute_force():
    start = time.monotonic()
    ok = True
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        got = list(e.ellipsoid_sequence(1, a, b, 50).values)
        ok = ok and got == brute_combination_sequence(1, a, b, 50)
    elapsed = time.monotonic() - start
    _report("A3", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_a4_route_agreement_and_a5_first_capacity():
    start = time.monotonic()
    rng = random.Random(20240811)
    domains = []
    per_n = {1: 0, 2: 0, 3: 0, 4: 0}
    while len(domains) < 50:
        dom = e.random_concave_domain(rng)
        domains.append(dom)
        per_n[dom.n] += 1
    mismatch = None
    a5_ok = True
    for dom in domains:
        via_w = e.capacities_via_weights(dom, 10)
        via_o = e.capacities_via_oracle(dom, 10)
        if via_w.values != via_o.values:
            mismatch = (dom, via_w.values, via_o.values)
            break
        if via_w[1] != dom.n * min(y for _, y in dom.vertices):
            a5_ok = False
        expansion = e.singular_weight_expansion(dom)  # area identity asserted inside
        total = Fraction(dom.n) * expansion.singular_weight**2 / 2 + sum(
            (w * w for w in expansion.plain_weights), Fraction(0)
        ) / 2
        if total != e.domain_area(dom):
            a5_ok = False
    elapsed = time.monotonic() - start
    _report(
        "A4",
        mismatch is None and all(per_n.values()) and elapsed < 600,
        f"50 domains, n-split {per_n}, {elapsed:.1f}s",
    )
    _report("A5", mismatch is None and a5_ok, "c_1 = n*w0 and exact area conservation")


def test_route_agreement_at_kmax_20():
    # A4's check at twice its kmax, well within the oracle's path budget
    rng = random.Random(2020)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            dom = e.random_concave_domain(rng, n=n)
            assert e.capacities_via_oracle(dom, 20) == e.capacities_via_weights(dom, 20), dom


def test_a6_property_suites():
    rng = random.Random(611)

    superadd = 0
    for _ in range(1000):
        dom = e.random_concave_domain(rng)
        v1 = (-rng.randint(1, 6), rng.randint(-6, 6))
        v2 = (-rng.randint(1, 6), rng.randint(-6, 6))
        total = (v1[0] + v2[0], v1[1] + v2[1])
        if omega_length(dom, v1) + omega_length(dom, v2) <= omega_length(dom, total):
            superadd += 1

    pairs = []
    for n in (1, 2, 3):
        for k in range(1, 8):
            for p in e.enumerate_paths_up_to(n, k)[k]:
                for i in range(1, len(p.vertices()) - 1):
                    pairs.append((n, p, i))
    coround = 0
    coround_total = 0
    while coround_total < 1000:
        doms = {n: e.random_concave_domain(rng, n=n) for n in (1, 2, 3)}
        for n, p, i in pairs:
            q = e.coround_corner(p, i)
            coround_total += 1
            if brute_path_length(doms[n], q) >= brute_path_length(
                doms[n], p
            ) and e.lattice_count(q) >= e.lattice_count(p):
                coround += 1

    monotone = 0
    for _ in range(1000):
        seqs = []
        for _ in range(rng.randint(1, 3)):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            seqs.append(e.ellipsoid_sequence(1, a, a, 10))
        seq = e.union_sequence(seqs, 10)
        if seq[0] == 0 and all(seq[k] <= seq[k + 1] for k in range(10)):
            monotone += 1

    conformal = 0
    conformal_total = 0
    while conformal_total < 1000:
        dom = e.random_concave_domain(rng)
        base = e.capacities_via_weights(dom, 5)
        for r in (Fraction(1, 3), 2, Fraction(7, 5)):
            conformal_total += 1
            scaled = e.validate_domain(dom.n, [(r * x, r * y) for x, y in dom.vertices])
            if e.capacities_via_weights(scaled, 5).values == tuple(r * v for v in base.values):
                conformal += 1

    ok = (
        superadd == 1000
        and coround == coround_total
        and monotone == 1000
        and conformal == conformal_total
    )
    _report(
        "A6",
        ok,
        f"superadditivity {superadd}/1000, corounding {coround}/{coround_total}, "
        f"monotonicity {monotone}/1000, conformality {conformal}/{conformal_total}",
    )


def test_a7_blowup():
    b21 = e.validate_domain(2, [(2, 1), (0, 1)])
    example = e.validate_domain(2, [(6, 3), (3, 2), (0, 2)])
    ok = True
    for dom in (b21, example):
        ok = ok and (
            e.capacities_via_oracle(dom, 6, delta=0).values
            == e.capacities_via_weights(dom, 6).values
        )
    unblown = e.capacities_via_oracle(b21, 6)
    for delta in (Fraction(1, 8), Fraction(1, 4)):
        blown = e.capacities_via_oracle(b21, 6, delta=delta)
        ok = ok and all(blown[k] <= unblown[k] for k in range(7))
    ok = ok and e.capacities_via_oracle(b21, 1, delta=Fraction(1, 4))[1] == Fraction(3, 2)
    _report("A7", ok, "delta=0 matches the packing route, pointwise bound, c_1 = 3/2 at delta=1/4")


def test_a8_index_bijectivity_and_spectrum():
    start = time.monotonic()
    ok2, _ = e.index_bijectivity_check(2, 1, FIB, 5)
    ok1, _ = e.index_bijectivity_check(1, 1, FIB, 4)
    spectra = True
    for n in (1, 2):
        actions = e.spectrum_from_orbit_indices(n, 1, FIB, 15)
        spectra = spectra and actions == list(e.ellipsoid_sequence(n, 1, FIB, 14).values)
    elapsed = time.monotonic() - start
    _report("A8", ok1 and ok2 and spectra and elapsed < 10, f"{elapsed:.2f}s")


def test_a8_balls():
    # every i*phi of a ball is an integer; read as E_n(a, a(1+eps)), the
    # index is still a bijection and the spectrum is the ball's sequence
    start = time.monotonic()
    spectra = all(
        e.spectrum_from_orbit_indices(n, a, a, 30) == list(e.ellipsoid_sequence(n, a, a, 29).values)
        for n in range(1, 5)
        for a in (1, Fraction(7, 4))
    )
    elapsed = time.monotonic() - start
    _report("A8 (balls)", spectra and elapsed < 10, f"B_n(1), B_n(7/4), n <= 4, {elapsed:.2f}s")


def test_a9_union_against_closed_form():
    rng = random.Random(909)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        a1 = Fraction(rng.randint(1, 5), rng.choice([1, 2]))
        plain = [
            Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            for _ in range(rng.randint(0, 3))
        ]
        seqs = [e.ellipsoid_sequence(n, a1, a1, 30)]
        seqs.extend(e.ellipsoid_sequence(1, w, w, 30) for w in plain)
        if e.union_sequence(seqs, 30).values != packing_closed_form(n, a1, plain, 30):
            ok = False
            break
    _report("A9", ok, "100 random weight lists, k <= 30")


def test_a10_cli_determinism(tmp_path, capsys):
    dom = tmp_path / "example.dom"
    dom.write_text("n = 2\nvertices = (6,3) (3,2) (0,2)\n")
    b21 = tmp_path / "b21.dom"
    b21.write_text("n = 2\nvertices = (2,1) (0,1)\n")
    b22 = tmp_path / "b22.dom"
    b22.write_text("n = 2\nvertices = (4,2) (0,2)\n")
    commands = [
        ["ellipsoid", "--n", "2", "--a", "1", "--b", "1", "--kmax", "15"],
        ["ellipsoid", "--n", "1", "--a", "1", "--b", "1", "--kmax", "6"],
        ["ellipsoid", "--n", "1", "--a", "1", "--b", "3/2", "--kmax", "5", "--format", "csv"],
        ["ball", "--a", "1", "--kmax", "6"],
        ["domain", str(dom), "--kmax", "3", "--method", "both"],
        ["weights", str(dom)],
        ["blowup", str(b21), "--delta", "1/4", "--kmax", "2"],
        ["obstruct", str(b22), str(b21), "--kmax", "3"],
        ["index", "ellipsoid", "--n", "2", "--a", "1", "--b", "1", "--r", "2", "--s", "0"],
        ["bijectivity", "--n", "2", "--a", "1", "--b", "233/144", "--layers", "3"],
        ["check", "--trials", "50", "--kmax", "8", "--seed", "7"],
    ]
    deterministic = True
    check_passed = False
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli.main(argv)
            captured = capsys.readouterr()
            outputs.append((code, captured.out.encode(), captured.err.encode()))
        if outputs[0] != outputs[1] or outputs[0][0] != 0:
            deterministic = False
        if argv[0] == "check" and b"PASS" in outputs[0][1]:
            check_passed = True
    with capsys.disabled():
        _report("A10", deterministic and check_passed, "byte-identical reruns, check PASS")
