"""Output checks for benchmark jobs, run outside the timed region.

Each check recomputes the job's answer by a route other than the one the
job took, and returns a list of problems (empty when the output is right):

- ellipsoid and ball tables against a double loop over (k1, k2);
- packing tables, for k <= 10, against the oracle route: the length
  functional, implemented here, maximized over the library's path
  enumeration, whose bucket sizes are checked against `PATH_COUNTS`;
- oracle-route and blow-up tables against the same maximization;
- weight lists against the exact area identity;
- obstruction reports against the scaling of the source domain;
- bijectivity certificates against the ellipsoid double loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# Number of concave lattice paths with L_n = k, for k = 0..12.
PATH_COUNTS = {
    1: [1, 1, 2, 3, 4, 7, 9, 11, 17, 23, 28, 39, 48],
    2: [1, 1, 2, 5, 7, 9, 15, 21, 30, 44, 58, 74, 100],
    3: [1, 1, 2, 5, 10, 14, 22, 30, 40, 57, 82, 112, 153],
    4: [1, 1, 2, 5, 10, 18, 29, 42, 57, 80, 110, 147, 197],
}
PACKING_ORACLE_KMAX = 10


def _fmt_scaled(value: int, den: int) -> str:
    g = gcd(value, den)
    if den == g:
        return str(value // g)
    return f"{value // g}/{den // g}"


def ellipsoid_prefix_text(n: int, a, b, kmax: int) -> list:
    """Rendered values c_0..c_kmax of N^n(a, b), by a double loop.

    All values a*k1 + b*k2 with k1 + k2 = 0 mod n below a bound are listed
    (in integers, scaled by the common denominator) and sorted; the bound
    doubles until more than kmax values lie below it.
    """
    a, b = Fraction(a), Fraction(b)
    den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    sa, sb = int(a * den), int(b * den)
    bound = isqrt(2 * sa * sb * n * (kmax + 1)) + sa + sb
    while True:
        values = []
        for k1 in range(bound // sa + 1):
            v = sa * k1 + sb * ((-k1) % n)
            while v <= bound:
                values.append(v)
                v += sb * n
        if len(values) > kmax:
            break
        bound *= 2
    values.sort()
    return [_fmt_scaled(v, den) for v in values[: kmax + 1]]


def parse_table(lines) -> list:
    """Values of a `k  c_k` table; raises ValueError on any malformed row."""
    if not lines or lines[0] != "k  c_k":
        raise ValueError("missing `k  c_k` header")
    values = []
    for k, line in enumerate(lines[1:]):
        index, sep, value = line.partition("  ")
        if not sep or index != str(k):
            raise ValueError(f"bad row {line!r}")
        values.append(Fraction(value))
    return values


def domain_area(vertices) -> Fraction:
    poly = [(Fraction(0), Fraction(0))] + list(vertices)
    twice = sum(u[0] * v[1] - u[1] * v[0] for u, v in zip(poly, poly[1:] + poly[:1]))
    return abs(twice) / 2


class OracleRoute:
    """Capacities as the maximum of the length functional over all concave
    lattice paths with L_n = k (enumeration cached per n for a whole run)."""

    def __init__(self):
        self._buckets = {}

    def _paths(self, n: int, kmax: int):
        cached = self._buckets.get(n)
        if cached is None or len(cached) <= kmax:
            from echlens import enumerate_paths_up_to

            buckets = enumerate_paths_up_to(n, kmax)
            cached = [list(buckets[k]) for k in range(kmax + 1)]
            sizes = [len(b) for b in cached]
            if sizes != PATH_COUNTS[n][: kmax + 1]:
                raise ValueError(f"path enumeration for n={n} has bucket sizes {sizes}")
            self._buckets[n] = cached
        return cached

    def values(self, n: int, vertices, kmax: int, delta=Fraction(0)) -> list:
        def length(path):
            total = -delta * path.start[0]
            for d, mult in path.edges:
                total += mult * min(p[0] * d[1] - p[1] * d[0] for p in vertices)
            return total

        paths = self._paths(n, kmax)
        return [max(length(p) for p in paths[k]) for k in range(kmax + 1)]


def _first_difference(got, want) -> str:
    if len(got) != len(want):
        return f"{len(got)} values, expected {len(want)}"
    k = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
    return f"k={k}: {got[k]} != {want[k]}"


def _check_sequence(job, out, oracle):
    m = job.meta
    want = ["k  c_k"] + [f"{k}  {v}" for k, v in enumerate(ellipsoid_prefix_text(m["n"], m["a"], m["b"], m["kmax"]))]
    got = out.splitlines()
    return [] if got == want else [_first_difference(got, want)]


def _check_domain_weights(job, out, oracle):
    m = job.meta
    values = parse_table(out.splitlines())
    if len(values) != m["kmax"] + 1:
        return [f"{len(values)} values for kmax={m['kmax']}"]
    if values[0] != 0 or any(u > v for u, v in zip(values, values[1:])):
        return ["sequence does not start at 0 or decreases"]
    k = min(m["kmax"], PACKING_ORACLE_KMAX)
    want = oracle.values(m["n"], m["vertices"], k)
    return [] if values[: k + 1] == want else ["vs oracle route: " + _first_difference(values[: k + 1], want)]


def _check_domain_both(job, out, oracle):
    m = job.meta
    lines = out.splitlines()
    rows = m["kmax"] + 2  # header plus kmax + 1 values
    if len(lines) != 2 * rows + 3 or lines[0] != "[weights]" or lines[rows + 1] != "[oracle]":
        return ["unexpected layout"]
    if lines[-1] != "DIFF: none":
        return [f"last line {lines[-1]!r}"]
    want = oracle.values(m["n"], m["vertices"], m["kmax"])
    problems = []
    for name, table in (("weights", lines[1 : rows + 1]), ("oracle", lines[rows + 2 : -1])):
        got = parse_table(table)
        if got != want:
            problems.append(f"[{name}] vs oracle route: " + _first_difference(got, want))
    return problems


def _check_blowup(job, out, oracle):
    m = job.meta
    got = parse_table(out.splitlines())
    want = oracle.values(m["n"], m["vertices"], m["kmax"], m["delta"])
    return [] if got == want else ["vs blow-up oracle: " + _first_difference(got, want)]


def _check_weights(job, out, oracle):
    m = job.meta
    lines = out.splitlines()
    if not lines or not lines[0].startswith("singular ") or any(not x.startswith("plain ") for x in lines[1:]):
        return ["unexpected layout"]
    w0 = Fraction(lines[0].split()[1])
    plain = [Fraction(x.split()[1]) for x in lines[1:]]
    problems = []
    if w0 != min(y for _, y in m["vertices"]):
        problems.append(f"singular weight {w0} is not the lowest vertex height")
    if any(w <= 0 for w in plain) or any(u < v for u, v in zip(plain, plain[1:])):
        problems.append("plain weights not positive and non-increasing")
    area = m["n"] * w0 * w0 / 2 + sum((w * w for w in plain), Fraction(0)) / 2
    if area != domain_area(m["vertices"]):
        problems.append(f"weights give area {area}, domain has {domain_area(m['vertices'])}")
    return problems


def _check_obstruct(job, out, oracle):
    # the source is ratio * target, so c_k(source) = ratio * c_k(target)
    ratio, kmax = job.meta["ratio"], job.meta["kmax"]
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("NOTE: "):
        return ["missing NOTE line"]
    if ratio <= 1:
        return [] if lines[:-1] == [f"no obstruction up to k={kmax}"] else ["expected no obstruction"]
    if len(lines) != kmax + 1:
        return [f"{len(lines) - 1} violations, expected {kmax}"]
    for k, line in enumerate(lines[:-1], start=1):
        head, _, tail = line.partition(": ")
        source, _, target = tail.partition(" > ")
        if head != f"violation at k={k}" or Fraction(source) != ratio * Fraction(target):
            return [f"bad violation line {line!r}"]
    return []


def _check_check(job, out, oracle):
    m = job.meta
    want = f"seed {m['seed']}\nPASS trials={m['trials']} kmax={m['kmax']}\n"
    return [] if out == want else [f"expected PASS, got {out.splitlines()[-1:]}"]


def _check_bijectivity(job, out, oracle):
    m = job.meta
    n, a, b = m["n"], m["a"], m["b"]
    count = sum(k * n + 1 for k in range(m["layers"] + 1))
    lines = out.splitlines()
    if len(lines) != count + 2 or lines[0] != "index  r  s" or lines[-1] != "verdict: TRUE":
        return ["unexpected layout or verdict"]
    want = ellipsoid_prefix_text(n, a, b, count - 1)
    for j, line in enumerate(lines[1:-1]):
        index, r, s = (int(x) for x in line.split())
        if index != 2 * j or (r + s) % n or str(a * r + b * s) != want[j]:
            return [f"row {j} {line!r} does not match the ellipsoid spectrum value {want[j]}"]
    return []


_CHECKS = {
    "sequence": _check_sequence,
    "domain_weights": _check_domain_weights,
    "domain_both": _check_domain_both,
    "blowup": _check_blowup,
    "weights": _check_weights,
    "obstruct": _check_obstruct,
    "check": _check_check,
    "bijectivity": _check_bijectivity,
}


def check_output(job, out: str, oracle: OracleRoute) -> list:
    """Problems with a job's stdout (the job exited 0); empty when right."""
    try:
        return _CHECKS[job.kind](job, out, oracle)
    except (ValueError, ZeroDivisionError, ImportError) as exc:
        return [f"unparsable output: {exc}"]


def value_count(job, out: str) -> int:
    """Exact values a successful job produced: capacities per printed route,
    weights, certificate rows; `check` and `obstruct` count the capacities
    of both routes or both domains they compared."""
    m = job.meta
    if job.kind in ("sequence", "domain_weights", "blowup"):
        return m["kmax"] + 1
    if job.kind in ("domain_both", "obstruct"):
        return 2 * (m["kmax"] + 1)
    if job.kind == "check":
        return 2 * m["trials"] * (m["kmax"] + 1)
    if job.kind == "weights":
        return len(out.splitlines())
    if job.kind == "bijectivity":
        return len(out.splitlines()) - 2
    raise ValueError(job.kind)
