"""What both command modules share: the exit codes, the argument types,
the spec of the shared arguments and the row renderer.  cli and domain_cli
import them from here, not domain_cli from cli, so `python -m echlens.cli`
compiles cli.py once, as __main__."""

from __future__ import annotations

import sys
from math import gcd

from .errors import EchLensError
from .geometry import format_ratio, parse_ratio

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1  # the reader closed stdout, as Python exits on EPIPE
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _type_error(message: str):
    # argparse loads only with a bad argument, which it reports
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _rational(text: str) -> tuple:
    """The int pair (p, q), q > 0, of a `p` / `p/q` argument."""
    try:
        return parse_ratio(text)
    except ValueError as exc:
        raise _type_error(str(exc)) from None


def _positive_rational(text: str) -> tuple:
    """The int pair (p, q) in lowest terms, p, q > 0, of a positive argument."""
    p, q = _rational(text)
    if p <= 0:
        raise _type_error(f"must be positive, got {text}")
    g = gcd(p, q)
    return p // g, q // g


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _type_error(f"must be non-negative, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _type_error(f"must be positive, got {text}")
    return value


def _render_decimal(v: int, scale: int, decimal: int) -> str:
    # v/scale rounded exactly, ties to even, as round() rounds a Fraction;
    # capacities are >= 0
    q, r = divmod(v * 10**decimal, scale)
    if 2 * r > scale or (2 * r == scale and q % 2):
        q += 1
    whole, frac = divmod(q, 10**decimal)
    return f"~{whole}.{frac:0{decimal}d}"


def _render_rows(ints, scale: int, fmt: str, decimal):
    """Print c_k = ints[k]/scale for k = 0, 1, ... as a table or CSV.  Each
    row is reduced by its own gcd and written as it comes, so `ints` may be
    a stream that is never stored.  The rows must keep CapacitySequence's
    invariants, c_0 = 0 <= c_1 <= ...; a row that breaks them raises
    AssertionError, and a value too long for Python's int-to-text limit
    EchLensError."""
    write = sys.stdout.write
    csv = fmt == "csv"
    write("k,numerator,denominator\n" if csv else "k  c_k\n")
    prev = 0
    try:
        for k, v in enumerate(ints):
            if v < prev or (k == 0 and v != 0):
                raise AssertionError(
                    f"c_{k} = {format_ratio(v, scale)} breaks 0 = c_0 <= c_1 <= ..."
                )
            prev = v
            if decimal is not None:
                write(f"{k}  {_render_decimal(v, scale, decimal)}\n")
            elif csv:
                g = gcd(v, scale)
                write(f"{k},{v // g},{scale // g}\n")
            else:
                write(f"{k}  {format_ratio(v, scale)}\n")
    except ValueError as exc:  # a value past Python's int-to-text digit limit
        raise EchLensError(str(exc)) from None


def _arg(name: str, **keywords) -> tuple:
    """One argument of a command's spec, in the terms of argparse's
    add_argument: a name without a leading "-" is a positional.  The
    keyword `kinds`, {kind: (help, spec)}, makes the positional name a
    subcommand whose kinds take arguments of their own."""
    return name, keywords


_ELLIPSOID_PARAMETERS = (
    _arg("--n", type=_positive_int, required=True),
    _arg("--a", type=_positive_rational, required=True),
    _arg("--b", type=_positive_rational, required=True),
)
_FORMAT_FLAGS = (
    _arg("--format", choices=["table", "csv"], default="table"),
    _arg(
        "--decimal",
        type=_positive_int,
        default=None,
        metavar="DIGITS",
        help="approximate table rendering, rounded half-even (marked with ~)",
    ),
)
