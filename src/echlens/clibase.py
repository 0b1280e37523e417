"""What both command modules share: the exit codes, the argument types,
the format flags and the row renderer.  cli and domain_cli import them from
here, not domain_cli from cli, so `python -m echlens.cli` compiles cli.py
once, as __main__."""

from __future__ import annotations

import argparse
import sys
from math import gcd

from .geometry import format_ratio, parse_rational

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1  # the reader closed stdout, as Python exits on EPIPE
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_rational(text: str):
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
    AssertionError."""
    write = sys.stdout.write
    csv = fmt == "csv"
    write("k,numerator,denominator\n" if csv else "k  c_k\n")
    prev = 0
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


def _add_format_flags(parser):
    parser.add_argument("--format", choices=["table", "csv"], default="table")
    parser.add_argument(
        "--decimal",
        type=_positive_int,
        default=None,
        metavar="DIGITS",
        help="approximate table rendering, rounded half-even (marked with ~)",
    )
