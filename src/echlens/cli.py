"""Command-line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage/parse/validation
errors, 3 resource budget exceeded, 4 internal invariant violation.  All
output is deterministic: identical invocations produce byte-identical output.

Each command's arguments are one spec.  A well-formed job is parsed from
its spec alone and never imports argparse; help and usage errors go to the
argparse parser of the named command alone, built from the same spec.  The
E_n(a, b) commands live here; the commands that read domain files live in
domain_cli, which only their jobs and the full parser import.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .clibase import (
    _ELLIPSOID_PARAMETERS,
    _FORMAT_FLAGS,
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    _arg,
    _nonneg_int,
    _positive_int,
    _positive_rational,
    _render_rows,
)
from .errors import EchLensError, ResourceLimit

# every other module is imported in the handlers that run it: a ball or
# ellipsoid job compiles the generator module alone, a bijectivity job the
# bijectivity module; their rationals are int pairs, so none imports fractions

_ELLIPSOID = (*_ELLIPSOID_PARAMETERS, _arg("--kmax", type=_nonneg_int, default=10), *_FORMAT_FLAGS)
_BALL = (
    _arg("--a", type=_positive_rational, required=True),
    _arg("--n", type=_positive_int, default=1),
    _arg("--kmax", type=_nonneg_int, default=10),
    *_FORMAT_FLAGS,
)
_BIJECTIVITY = (*_ELLIPSOID_PARAMETERS, _arg("--layers", type=_nonneg_int, default=4))


def cmd_ellipsoid(args) -> int:
    """The rows of E_n(a, b), or of the ball E_n(a, a), straight from the
    generator heap: a written row is not kept, so memory is the heap's, not
    kmax's."""
    from .ellipsoid import ellipsoid_ints, ellipsoid_values

    ia, ib, scale = ellipsoid_ints(args.n, args.a, getattr(args, "b", args.a))
    # zip, unlike islice, takes a kmax of any size
    rows = zip(range(args.kmax + 1), ellipsoid_values(args.n, ia, ib))
    _render_rows((v for _, v in rows), scale, args.format, args.decimal)
    return EXIT_OK


def cmd_bijectivity(args) -> int:
    from .bijectivity import index_bijectivity_check

    ok, certificate = index_bijectivity_check(args.n, args.a, args.b, args.layers)
    write = sys.stdout.write
    write("index  r  s\n")
    for index, (r, s) in certificate:
        write(f"{index}  {r}  {s}\n")
    write(f"verdict: {'TRUE' if ok else 'FALSE'}\n")
    return EXIT_OK if ok else EXIT_INTERNAL


# every command and its help, in the order --help lists them
_HELP = {
    "ellipsoid": "capacities of the singular ellipsoid E_n(a,b)",
    "ball": "capacities of the ball B(a) (or B_n(a) with --n)",
    "domain": "capacities of a concave domain from a file",
    "weights": "weight expansion of a concave domain",
    "check": "batch cross-validation of the two routes",
    "blowup": "capacities of a rational blow-up",
    "obstruct": "capacity obstructions to embedding source into target",
    "index": "ECH index of an orbit set",
    "bijectivity": "index-bijectivity certificate for E_n(a,b)",
}
# command -> (the spec of its arguments, run it); domain_cli.COMMANDS has the rest
_COMMANDS = {
    "ellipsoid": (_ELLIPSOID, cmd_ellipsoid),
    "ball": (_BALL, cmd_ellipsoid),
    "bijectivity": (_BIJECTIVITY, cmd_bijectivity),
}


def _command(name: str):
    if name in _COMMANDS:
        return _COMMANDS[name]
    from .domain_cli import COMMANDS

    return COMMANDS[name]


def _value(keywords: dict, text: str):
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(f"invalid choice: {text!r}")
    return value


def _parse_fast(spec, argv):
    """The namespace argparse makes of `argv`, a command and then the
    arguments of its spec, when every positional comes before every option
    and each option is given at most once, as its exact name and then its
    value; None for any other argv, and for a value its type or choices
    refuse.  main leaves those to argparse, which parses or reports them."""
    given = {}  # name -> (its keywords, its text)
    options = {}  # the options not given yet, by name
    at = 1
    pending = list(spec)
    while pending:
        name, keywords = pending.pop(0)
        if name.startswith("-"):
            options[name] = keywords
            continue
        if at == len(argv) or argv[at].startswith("-"):
            return None
        text = argv[at]
        at += 1
        if "kinds" in keywords:
            if text not in keywords["kinds"]:
                return None
            pending += keywords["kinds"][text][1]
            keywords = {}
        given[name] = keywords, text
    rest = argv[at:]
    if len(rest) % 2:
        return None
    for name, text in zip(rest[::2], rest[1::2]):
        if name not in options or text.startswith("-"):
            return None
        given[name] = options.pop(name), text
    if any(keywords.get("required") for keywords in options.values()):
        return None
    args = {name: keywords.get("default") for name, keywords in options.items()}
    try:
        args.update((name, _value(keywords, text)) for name, (keywords, text) in given.items())
    except Exception:  # whatever a type function raises, argparse reports
        return None
    dests = {name.lstrip("-").replace("-", "_"): value for name, value in args.items()}
    return SimpleNamespace(command=argv[0], **dests)


def _add_arguments(parser, spec):
    for name, keywords in spec:
        if "kinds" in keywords:
            sub = parser.add_subparsers(dest=name, required=True)
            for kind, (help_text, kind_spec) in keywords["kinds"].items():
                _add_arguments(sub.add_parser(kind, help=help_text), kind_spec)
        else:
            parser.add_argument(name, **keywords)


def build_parser(command=None):
    """The argparse parser of every command, or of `command` alone, built
    from their specs.  The latter spells out every command in its usage
    line, as the full parser does."""
    import argparse  # only help and usage errors need it

    parser = argparse.ArgumentParser(
        prog="echlens",
        description="Exact ECH capacities of concave toric domains in the "
        "singular orbifolds M_n with lens-space boundary L(n,1).",
    )
    # a metavar would also rename the argument in the full parser's
    # "required" and "invalid choice" errors, which a one-command parser,
    # given its own command first, never reports
    metavar = None if command is None else "{" + ",".join(_HELP) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text in _HELP.items():
        if command in (None, name):
            _add_arguments(sub.add_parser(name, help=help_text), _command(name)[0])
    return parser


def _decimal_with_csv(args) -> bool:
    return getattr(args, "decimal", None) is not None and args.format == "csv"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a first word that names no command is an error or --help of the
    # top-level parser, whose help lists every command
    command = argv[0] if argv and argv[0] in _HELP else None
    args = None if command is None else _parse_fast(_command(command)[0], argv)
    if args is None or _decimal_with_csv(args):
        parser = build_parser(command)
        args = parser.parse_args(argv)
        if _decimal_with_csv(args):
            parser.error("--decimal approximates the table format; --format csv is exact")
    try:
        code = _command(args.command)[1](args)
        sys.stdout.flush()  # so a reader that left early shows here
        return code
    except BrokenPipeError:
        # `echlens ... | head`: the exit flush goes to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (EchLensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
