"""Command-line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage/parse/validation
errors, 3 resource budget exceeded, 4 internal invariant violation.  All
output is deterministic: identical invocations produce byte-identical output.

A job builds the parser of its own command alone.  The E_n(a, b) commands
live here; the commands that read domain files live in domain_cli, which
only their jobs and the full parser import.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from .clibase import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    _add_format_flags,
    _nonneg_int,
    _positive_int,
    _positive_rational,
    _render_rows,
)
from .errors import EchLensError, ResourceLimit

# every other module is imported in the handlers that run it: a ball or
# ellipsoid job compiles the generator module alone, a bijectivity job the
# bijectivity module


def _ellipsoid_arguments(p):
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_rational, required=True)
    p.add_argument("--b", type=_positive_rational, required=True)
    p.add_argument("--kmax", type=_nonneg_int, default=10)
    _add_format_flags(p)


def _ball_arguments(p):
    p.add_argument("--a", type=_positive_rational, required=True)
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--kmax", type=_nonneg_int, default=10)
    _add_format_flags(p)


def _bijectivity_arguments(p):
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_rational, required=True)
    p.add_argument("--b", type=_positive_rational, required=True)
    p.add_argument("--layers", type=_nonneg_int, default=4)


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
# command -> (add its arguments, run it); domain_cli.COMMANDS has the rest
_COMMANDS = {
    "ellipsoid": (_ellipsoid_arguments, cmd_ellipsoid),
    "ball": (_ball_arguments, cmd_ball),
    "bijectivity": (_bijectivity_arguments, cmd_bijectivity),
}


def _command(name: str):
    if name in _COMMANDS:
        return _COMMANDS[name]
    from .domain_cli import COMMANDS

    return COMMANDS[name]


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.  The latter
    spells out every command in its usage line, as the full parser does."""
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
            _command(name)[0](sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a first word that names no command is an error or --help of the
    # top-level parser, whose help lists every command
    parser = build_parser(argv[0] if argv and argv[0] in _HELP else None)
    args = parser.parse_args(argv)
    if getattr(args, "decimal", None) is not None and args.format == "csv":
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
