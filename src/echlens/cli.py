"""Command-line front end.

Exit codes: 0 success, 2 usage/parse/validation errors, 3 resource budget
exceeded, 4 internal invariant violation.  All output is deterministic:
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import EchLensError, ResourceLimit
from .geometry import format_point, format_rational, parse_rational

# every other module is imported in the handlers that run it: a ball or
# ellipsoid job compiles the generator module alone, a bijectivity job the
# index module and what it imports, and neither compiles capacities

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_rational(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _render_decimal(value, decimal: int) -> str:
    # Fraction rounding is exact and sends ties to even; capacities are >= 0
    whole, frac = divmod(round(value * 10**decimal), 10**decimal)
    return f"~{whole}.{frac:0{decimal}d}"


def _render_rows(ints, scale: int, fmt: str, decimal):
    """Print c_k = ints[k]/scale for k = 0, 1, ... as a table or CSV.  Each
    row is reduced by its own gcd and written as it comes, so `ints` may be
    a stream that is never stored; only --decimal builds Fractions.  The
    rows must keep CapacitySequence's invariants, c_0 = 0 <= c_1 <= ...;
    a row that breaks them raises AssertionError."""
    write = sys.stdout.write
    csv = fmt == "csv"
    write("k,numerator,denominator\n" if csv else "k  c_k\n")
    prev = 0
    for k, v in enumerate(ints):
        if v < prev or (k == 0 and v != 0):
            raise AssertionError(f"c_{k} = {Fraction(v, scale)} breaks 0 = c_0 <= c_1 <= ...")
        prev = v
        if decimal is not None:
            write(f"{k}  {_render_decimal(Fraction(v, scale), decimal)}\n")
            continue
        g = gcd(v, scale)
        if csv:
            write(f"{k},{v // g},{scale // g}\n")
        elif g == scale:
            write(f"{k}  {v // g}\n")
        else:
            write(f"{k}  {v // g}/{scale // g}\n")


def _add_format_flags(parser):
    parser.add_argument("--format", choices=["table", "csv"], default="table")
    parser.add_argument(
        "--decimal",
        type=_positive_int,
        default=None,
        metavar="DIGITS",
        help="approximate table rendering, rounded half-even (marked with ~)",
    )


def _load_domain(path: str):
    from .domains import parse_domain_file

    with open(path, "r", encoding="utf-8") as handle:
        return parse_domain_file(handle.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echlens",
        description="Exact ECH capacities of concave toric domains in the "
        "singular orbifolds M_n with lens-space boundary L(n,1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ellipsoid", help="capacities of the singular ellipsoid E_n(a,b)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_rational, required=True)
    p.add_argument("--b", type=_positive_rational, required=True)
    p.add_argument("--kmax", type=_nonneg_int, default=10)
    _add_format_flags(p)

    p = sub.add_parser("ball", help="capacities of the ball B(a) (or B_n(a) with --n)")
    p.add_argument("--a", type=_positive_rational, required=True)
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--kmax", type=_nonneg_int, default=10)
    _add_format_flags(p)

    p = sub.add_parser("domain", help="capacities of a concave domain from a file")
    p.add_argument("file")
    p.add_argument("--kmax", type=_nonneg_int, default=8)
    p.add_argument("--method", choices=["weights", "oracle", "both"], default="both")
    _add_format_flags(p)

    p = sub.add_parser("weights", help="weight expansion of a concave domain")
    p.add_argument("file")

    p = sub.add_parser("check", help="batch cross-validation of the two routes")
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--kmax", type=_nonneg_int, default=8)
    p.add_argument("--seed", type=int, default=None)  # None: checks.DEFAULT_SEED

    p = sub.add_parser("blowup", help="capacities of a rational blow-up")
    p.add_argument("file")
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--kmax", type=_nonneg_int, default=8)
    _add_format_flags(p)

    p = sub.add_parser("obstruct", help="capacity obstructions to embedding source into target")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--kmax", type=_nonneg_int, default=8)

    p = sub.add_parser("index", help="ECH index of an orbit set")
    isub = p.add_subparsers(dest="index_kind", required=True)
    pe = isub.add_parser("ellipsoid", help="orbit set e+^r e-^s on the ellipsoid boundary")
    pe.add_argument("--n", type=_positive_int, required=True)
    pe.add_argument("--a", type=_positive_rational, required=True)
    pe.add_argument("--b", type=_positive_rational, required=True)
    pe.add_argument("--r", type=_nonneg_int, required=True)
    pe.add_argument("--s", type=_nonneg_int, required=True)
    po = isub.add_parser("orbit", help="general orbit set over a concave domain")
    po.add_argument("file")
    po.add_argument("--m-plus", type=_nonneg_int, default=0)
    po.add_argument("--m-minus", type=_nonneg_int, default=0)
    po.add_argument(
        "--path",
        default=None,
        help='generator path, e.g. "start=(2,1); edges=[(-1,0)x2]; labels=[e]"',
    )

    p = sub.add_parser("bijectivity", help="index-bijectivity certificate for E_n(a,b)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_rational, required=True)
    p.add_argument("--b", type=_positive_rational, required=True)
    p.add_argument("--layers", type=_nonneg_int, default=4)

    return parser


def _stream_ellipsoid(args, a, b) -> int:
    """The rows of E_n(a, b) straight from the generator heap: a written
    row is not kept, so memory is the heap's, not kmax's."""
    from .ellipsoid import ellipsoid_ints, ellipsoid_values

    ia, ib, scale = ellipsoid_ints(args.n, a, b)
    rows = islice(ellipsoid_values(args.n, ia, ib), args.kmax + 1)
    _render_rows(rows, scale, args.format, args.decimal)
    return EXIT_OK


def cmd_ellipsoid(args) -> int:
    return _stream_ellipsoid(args, args.a, args.b)


def cmd_ball(args) -> int:
    return _stream_ellipsoid(args, args.a, args.a)


def cmd_domain(args) -> int:
    from . import capacities as cap

    domain = _load_domain(args.file)
    results = {}
    if args.method in ("weights", "both"):
        results["weights"] = cap.capacities_via_weights(domain, args.kmax)
    if args.method in ("oracle", "both"):
        results["oracle"] = cap.capacities_via_oracle(domain, args.kmax)
    for name in ("weights", "oracle"):
        if name in results:
            if args.method == "both":
                print(f"[{name}]")
            seq = results[name]
            _render_rows(seq.ints, seq.scale, args.format, args.decimal)
    if args.method == "both":
        diffs = [
            k
            for k in range(args.kmax + 1)
            if results["weights"][k] != results["oracle"][k]
        ]
        if diffs:
            parts = ", ".join(
                f"k={k}: {format_rational(results['weights'][k])} vs "
                f"{format_rational(results['oracle'][k])}"
                for k in diffs
            )
            print(f"DIFF: {parts}")
            return EXIT_INTERNAL
        print("DIFF: none")
    return EXIT_OK


def cmd_weights(args) -> int:
    from .weights import singular_weight_expansion

    expansion = singular_weight_expansion(_load_domain(args.file))
    print(f"singular {format_rational(expansion.singular_weight)}")
    for w in expansion.plain_weights:
        print(f"plain {format_rational(w)}")
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import DEFAULT_SEED, run_check

    result = run_check(
        trials=args.trials,
        kmax=args.kmax,
        seed=DEFAULT_SEED if args.seed is None else args.seed,
    )
    print(f"seed {result.seed}")
    if result.passed:
        print(f"PASS trials={result.trials} kmax={result.kmax}")
        return EXIT_OK
    trial, k, wv, ov, dom = result.failure
    print(
        f"FAIL trial={trial} k={k} weights={format_rational(wv)} "
        f"oracle={format_rational(ov)}"
    )
    # the failing domain as a domain file, for `echlens domain F --method both`
    print(f"n = {dom.n}")
    print("vertices = " + " ".join(format_point(v) for v in dom.vertices))
    return EXIT_INTERNAL


def cmd_blowup(args) -> int:
    from .capacities import capacities_via_oracle

    domain = _load_domain(args.file)
    seq = capacities_via_oracle(domain, args.kmax, delta=args.delta)
    _render_rows(seq.ints, seq.scale, args.format, args.decimal)
    return EXIT_OK


def cmd_obstruct(args) -> int:
    from . import capacities as cap

    source = cap.capacities_via_weights(_load_domain(args.source), args.kmax)
    target = cap.capacities_via_weights(_load_domain(args.target), args.kmax)
    report = cap.obstruction_report(source, target, kmax=args.kmax)
    if report.obstructed:
        for k, sv, tv in report.violations:
            print(f"violation at k={k}: {format_rational(sv)} > {format_rational(tv)}")
    else:
        print(f"no obstruction up to k={report.kmax}")
    print(f"NOTE: {report.note}")
    return EXIT_OK


def cmd_index(args) -> int:
    from . import index as idx

    if args.index_kind == "ellipsoid":
        value = idx.ellipsoid_orbit_index(args.n, args.a, args.b, args.r, args.s)
    else:
        from . import paths as pth

        domain = _load_domain(args.file)
        if args.path is None:
            gen = pth.ConcaveGenerator(path=pth.empty_path(domain.n), labels=())
        else:
            path, labels = pth.parse_path_text(domain.n, args.path)
            gen = pth.ConcaveGenerator(path=path, labels=labels or ("e",) * len(path.edges))
        orbit = idx.OrbitSetDescriptor(
            m_plus=args.m_plus, m_minus=args.m_minus, generator=gen
        )
        value = idx.orbit_set_index(domain, orbit)
    print(f"I = {value}")
    return EXIT_OK


def cmd_bijectivity(args) -> int:
    from .index import index_bijectivity_check

    ok, certificate = index_bijectivity_check(args.n, args.a, args.b, args.layers)
    write = sys.stdout.write
    write("index  r  s\n")
    for index, (r, s) in certificate:
        write(f"{index}  {r}  {s}\n")
    write(f"verdict: {'TRUE' if ok else 'FALSE'}\n")
    return EXIT_OK if ok else EXIT_INTERNAL


_HANDLERS = {
    "ellipsoid": cmd_ellipsoid,
    "ball": cmd_ball,
    "domain": cmd_domain,
    "weights": cmd_weights,
    "check": cmd_check,
    "blowup": cmd_blowup,
    "obstruct": cmd_obstruct,
    "index": cmd_index,
    "bijectivity": cmd_bijectivity,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "decimal", None) is not None and args.format == "csv":
        parser.error("--decimal approximates the table format; --format csv is exact")
    try:
        return _HANDLERS[args.command](args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (EchLensError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
