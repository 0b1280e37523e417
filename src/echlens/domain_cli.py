"""The commands that read domain files or sample domains: the specs of
their arguments and their handlers.  cli imports this module only for
their jobs and for the full parser, so an E_n(a, b) job never compiles
it."""

from __future__ import annotations

from .clibase import (
    _ELLIPSOID_PARAMETERS,
    _FORMAT_FLAGS,
    EXIT_INTERNAL,
    EXIT_OK,
    _arg,
    _nonneg_int,
    _positive_int,
    _rational,
    _render_rows,
)
from .errors import EchLensError
from .geometry import format_point, format_ratio


def _load_domain(path: str):
    from .domains import parse_domain_file

    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise EchLensError(str(exc)) from None
    return parse_domain_file(text)


_DOMAIN = (
    _arg("file"),
    _arg("--kmax", type=_nonneg_int, default=8),
    _arg("--method", choices=["weights", "oracle", "both"], default="both"),
    *_FORMAT_FLAGS,
)
_WEIGHTS = (_arg("file"),)
_CHECK = (
    _arg("--trials", type=_positive_int, default=10),
    _arg("--kmax", type=_nonneg_int, default=8),
    _arg("--seed", type=int, default=None),  # None: checks.DEFAULT_SEED
)
_BLOWUP = (
    _arg("file"),
    _arg("--delta", type=_rational, required=True),
    _arg("--kmax", type=_nonneg_int, default=8),
    *_FORMAT_FLAGS,
)
_OBSTRUCT = (_arg("source"), _arg("target"), _arg("--kmax", type=_nonneg_int, default=8))
_INDEX_ELLIPSOID = (
    *_ELLIPSOID_PARAMETERS,
    _arg("--r", type=_nonneg_int, required=True),
    _arg("--s", type=_nonneg_int, required=True),
)
_INDEX_ORBIT = (
    _arg("file"),
    _arg("--m-plus", type=_nonneg_int, default=0),
    _arg("--m-minus", type=_nonneg_int, default=0),
    _arg(
        "--path",
        default=None,
        help='generator path, e.g. "start=(2,1); edges=[(-1,0)x2]; labels=[e]"',
    ),
)
_INDEX = (
    _arg("index_kind", kinds={
        "ellipsoid": ("orbit set e+^r e-^s on the ellipsoid boundary", _INDEX_ELLIPSOID),
        "orbit": ("general orbit set over a concave domain", _INDEX_ORBIT),
    }),
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
        parts = ", ".join(
            f"k={k}: {format_ratio(w, s)} vs {format_ratio(o, s)}"
            for k, w, o, s in cap._differences(results["weights"], results["oracle"])
        )
        print(f"DIFF: {parts or 'none'}")
        if parts:
            return EXIT_INTERNAL
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

    seed = DEFAULT_SEED if args.seed is None else args.seed
    failure = run_check(args.trials, args.kmax, seed)
    print(f"seed {seed}")
    if failure is None:
        print(f"PASS trials={args.trials} kmax={args.kmax}")
        return EXIT_OK
    trial, k, weights, oracle, dom = failure
    print(
        f"FAIL trial={trial} k={k} weights={format_ratio(weights.ints[k], weights.scale)} "
        f"oracle={format_ratio(oracle.ints[k], oracle.scale)}"
    )
    # the failing domain as a domain file, for `echlens domain F --method both`
    print(f"n = {dom.n}")
    print("vertices = " + " ".join(format_point(v, dom.scale) for v in dom.ints))
    return EXIT_INTERNAL


def cmd_blowup(args) -> int:
    from .capacities import capacities_via_oracle

    domain = _load_domain(args.file)
    seq = capacities_via_oracle(domain, args.kmax, args.delta)
    _render_rows(seq.ints, seq.scale, args.format, args.decimal)
    return EXIT_OK


def cmd_obstruct(args) -> int:
    from . import capacities as cap

    source = cap.capacities_via_weights(_load_domain(args.source), args.kmax)
    target = cap.capacities_via_weights(_load_domain(args.target), args.kmax)
    report = cap.obstruction_report(source, target)
    if report.obstructed:
        scale = report.scale
        for k, sv, tv in report.rows:
            print(f"violation at k={k}: {format_ratio(sv, scale)} > {format_ratio(tv, scale)}")
    else:
        print(f"no obstruction up to k={report.kmax}")
    print(f"NOTE: {report.note}")
    return EXIT_OK


def cmd_index(args) -> int:
    if args.index_kind == "ellipsoid":
        from .bijectivity import ellipsoid_orbit_index

        value = ellipsoid_orbit_index(args.n, args.a, args.b, args.r, args.s)
    else:
        from . import index as idx
        from .paths import empty_path

        domain = _load_domain(args.file)
        if args.path is None:
            gen = idx.ConcaveGenerator(path=empty_path(domain.n), labels=())
        else:
            path, labels = idx.parse_path_text(domain.n, args.path)
            gen = idx.ConcaveGenerator(path=path, labels=labels or ("e",) * len(path.edges))
        value = idx.orbit_set_index(domain, gen, args.m_plus, args.m_minus)
    print(f"I = {format_ratio(value, 1)}")  # EchLensError past the digit limit
    return EXIT_OK


# command -> (the spec of its arguments, run it), for cli's parsers and dispatch
COMMANDS = {
    "domain": (_DOMAIN, cmd_domain),
    "weights": (_WEIGHTS, cmd_weights),
    "check": (_CHECK, cmd_check),
    "blowup": (_BLOWUP, cmd_blowup),
    "obstruct": (_OBSTRUCT, cmd_obstruct),
    "index": (_INDEX, cmd_index),
}
