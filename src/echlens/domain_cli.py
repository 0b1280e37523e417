"""The commands that read domain files or sample domains: their arguments
and handlers.  cli imports this module only for their jobs and for the
full parser, so an E_n(a, b) job never compiles it."""

from __future__ import annotations

from .clibase import (
    EXIT_INTERNAL,
    EXIT_OK,
    _add_format_flags,
    _nonneg_int,
    _positive_int,
    _positive_rational,
    _rational,
    _render_rows,
)
from .geometry import format_point, format_ratio, format_rational


def _load_domain(path: str):
    from .domains import parse_domain_file

    with open(path, "r", encoding="utf-8") as handle:
        return parse_domain_file(handle.read())


def _domain_arguments(p):
    p.add_argument("file")
    p.add_argument("--kmax", type=_nonneg_int, default=8)
    p.add_argument("--method", choices=["weights", "oracle", "both"], default="both")
    _add_format_flags(p)


def _weights_arguments(p):
    p.add_argument("file")


def _check_arguments(p):
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--kmax", type=_nonneg_int, default=8)
    p.add_argument("--seed", type=int, default=None)  # None: checks.DEFAULT_SEED


def _blowup_arguments(p):
    p.add_argument("file")
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--kmax", type=_nonneg_int, default=8)
    _add_format_flags(p)


def _obstruct_arguments(p):
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--kmax", type=_nonneg_int, default=8)


def _index_arguments(p):
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
        # sequences in lowest terms are equal exactly when every value is
        weights, oracle = results["weights"], results["oracle"]
        if weights != oracle:
            parts = ", ".join(
                f"k={k}: {format_rational(weights[k])} vs {format_rational(oracle[k])}"
                for k in range(args.kmax + 1)
                if weights[k] != oracle[k]
            )
            print(f"DIFF: {parts}")
            return EXIT_INTERNAL
        print("DIFF: none")
    return EXIT_OK


def cmd_weights(args) -> int:
    from .weights import singular_weight_expansion

    expansion = singular_weight_expansion(_load_domain(args.file))
    scale = expansion.scale
    print(f"singular {format_ratio(expansion.singular, scale)}")
    for w in expansion.plain:
        print(f"plain {format_ratio(w, scale)}")
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
    print("vertices = " + " ".join(format_point(v, dom.scale) for v in dom.ints))
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
        scale = report.scale
        for k, sv, tv in report.rows:
            print(f"violation at k={k}: {format_ratio(sv, scale)} > {format_ratio(tv, scale)}")
    else:
        print(f"no obstruction up to k={report.kmax}")
    print(f"NOTE: {report.note}")
    return EXIT_OK


def cmd_index(args) -> int:
    from . import index as idx
    from .paths import empty_path

    if args.index_kind == "ellipsoid":
        value = idx.ellipsoid_orbit_index(args.n, args.a, args.b, args.r, args.s)
    else:
        domain = _load_domain(args.file)
        if args.path is None:
            gen = idx.ConcaveGenerator(path=empty_path(domain.n), labels=())
        else:
            path, labels = idx.parse_path_text(domain.n, args.path)
            gen = idx.ConcaveGenerator(path=path, labels=labels or ("e",) * len(path.edges))
        orbit = idx.OrbitSetDescriptor(
            m_plus=args.m_plus, m_minus=args.m_minus, generator=gen
        )
        value = idx.orbit_set_index(domain, orbit)
    print(f"I = {value}")
    return EXIT_OK


# command -> (add its arguments, run it), for cli's parser and dispatch
COMMANDS = {
    "domain": (_domain_arguments, cmd_domain),
    "weights": (_weights_arguments, cmd_weights),
    "check": (_check_arguments, cmd_check),
    "blowup": (_blowup_arguments, cmd_blowup),
    "obstruct": (_obstruct_arguments, cmd_obstruct),
    "index": (_index_arguments, cmd_index),
}
