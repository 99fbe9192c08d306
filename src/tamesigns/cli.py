"""Command-line interface.

Three subcommands: enumerate (all level-one self-dual representations
over ranges of q and n, with both sign routes per row), verify-flip
(mechanical check of the even-degree sign flip under one or both
twisting recipes), and sign (full report for a single datum).

The first argument names the subcommand, a key of DISPATCH, and main
parses the rest with that subcommand's own parser (build_parser), so
each call is parsed once. No argument, an unknown first argument and
-h/--help are answered by main itself, with argparse's texts.

Output is CSV (default) or JSON, written to stdout, and is byte-for-byte
deterministic: (q, n) cells are visited in sorted order, rows are
canonically ordered within each cell, and no timestamps or machine data
appear. Schema details live in SCHEMA.md next to this package; every
payload carries schema_version and the generator convention for
character exponents.

Exit codes: 0 success (including reported SZ inconsistencies); 1 usage
error; 2 internal consistency failure; 3 flip falsification under
recipe PR.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import lcm
from operator import itemgetter
from typing import Iterator

from .division import (
    TameCharacter,
    checked_sign,
    division_model,
    enumerate_level1_selfdual,
    is_prime_power,
    is_selfdual_division,
    prime_power_base,
    selfdual_row_count,
)
from .errors import InternalConsistencyError, UsageError
from .metacyclic import det_exponents, fs_indicator
from .rationality import character_field
from .signs import FlipRow, verify_flip
from .weil import RECIPES, sign_weil_closed_form

SCHEMA_VERSION = 1
GENERATOR_CONVENTION = "abstract-unramified-generator"
# Largest field conductor a `sign` model may have (see _check_sign_size).
MAX_SIGN_CONDUCTOR = 10**7
# Largest q and n of an `enumerate` or `verify-flip` grid, checked before
# any value is formed, and largest total of self-dual entries over its
# (q, n) cells (see _check_grid_size).
MAX_GRID_Q = 2**16
MAX_GRID_N = 2**10
MAX_GRID_ROWS = 10**6

# each command's columns, in the order its rows hold them
COLUMNS = {
    "enumerate": (
        "q", "n", "f", "e", "a", "w",
        "regular", "selfdual", "sign_closed", "sign_oracle", "agree",
    ),
    "verify-flip": FlipRow._fields,
    "sign": (
        "side", "q", "n", "f", "a", "w", "regular", "selfdual",
        "sign_closed", "sign_oracle", "det_x", "det_t", "scalar_tf",
        "field_conductor", "field_degree",
    ),
}
# the kind of each column not holding an int: a sign (+-1, 0 for a
# vanishing indicator, None when absent), a bool or a str
CELL_KINDS = {
    "w": "sign", "sign_closed": "sign", "sign_oracle": "sign", "param_w": "sign",
    "param_sign": "sign", "predicted": "sign",
    "regular": "bool", "selfdual": "bool", "agree": "bool", "consistent": "bool",
    "recipe": "text", "side": "text", "det_x": "text", "det_t": "text",
    "scalar_tf": "text",
}
# (command, column) pairs of int columns that may hold None: the weil
# side of `sign` has no n
OPTIONAL_CELLS = frozenset({("sign", "n")})


def cell_kind(command: str, column: str) -> str:
    """The kind of a command's column: sign, bool, text, optional or int."""
    if (command, column) in OPTIONAL_CELLS:
        return "optional"
    return CELL_KINDS.get(column, "int")


# ---------------------------------------------------------------------------
# parsing helpers


def parse_range(text: str, name: str, limit: int) -> range:
    """Parse "k" or "lo..hi" (inclusive), refusing a value above limit.

    The limit is checked on the two ends, so no value is formed first.
    """
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise UsageError(f"cannot parse {name} range {text!r}; use k or lo..hi")
    if lo > hi:
        raise UsageError(f"empty range for {name}: {text}")
    if hi > limit:
        raise UsageError(
            f"{name}={hi} exceeds the limit MAX_GRID_{name.upper()} = {limit}"
        )
    return range(lo, hi + 1)


def expand_q_range(text: str) -> tuple[int, ...]:
    """Prime powers in the range; a single non-prime-power is an error."""
    values = parse_range(text, "q", MAX_GRID_Q)
    if len(values) == 1:
        prime_power_base(values[0])
        return tuple(values)
    values = range(max(values.start, 2), values.stop)  # no prime power is below 2
    kept = tuple(q for q in values if is_prime_power(q))
    if not kept:
        raise UsageError(f"no prime powers in q range {text!r}")
    return kept


def expand_n_range(text: str) -> tuple[int, ...]:
    values = parse_range(text, "n", MAX_GRID_N)
    if values.start < 1:
        raise UsageError(f"n must be >= 1, got range {text!r}")
    return tuple(values)


def parse_sign(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise UsageError(f"signs must be +1 or -1, got {text!r}")


# ---------------------------------------------------------------------------
# formatting helpers


def fmt_root(conductor: int, exponent: int) -> str:
    """A root of unity as +1, -1, or zeta{M}^{k}."""
    k = exponent % conductor
    if k == 0:
        return "+1"
    if 2 * k == conductor:
        return "-1"
    return f"zeta{conductor}^{k}"


def _optional_text(value) -> str:
    return "" if value is None else str(value)


def _optional_json(value) -> str:
    return "null" if value is None else int.__repr__(value)


# per format, the writer of each cell kind (see cell_kind); the JSON ones
# write each type as json.dumps does
_CELL_WRITERS = {
    "csv": {
        "sign": {1: "+1", -1: "-1", 0: "0", None: ""}.__getitem__,
        "bool": {True: "true", False: "false"}.__getitem__,
        "optional": _optional_text,
        "text": str,
        "int": str,
    },
    "json": {
        "sign": {1: "1", -1: "-1", 0: "0", None: "null"}.__getitem__,
        "bool": {True: "true", False: "false"}.__getitem__,
        "optional": _optional_json,
        "text": encode_basestring_ascii,
        "int": int.__repr__,
    },
}


@cache
def _layout(fmt: str, command: str) -> tuple:
    """How render writes a command's rows: (head, steps, cell_sep, row_sep, tail, empty).

    steps holds, per column of COLUMNS[command], the builtins that take
    a row to its written cell: its item, its kind's writer and, in JSON,
    the key before it. A row's cells are joined by cell_sep and rows by
    row_sep, between head and tail; empty is the whole text for no rows.
    """
    columns, writers = COLUMNS[command], _CELL_WRITERS[fmt]
    steps = tuple(
        (itemgetter(i), writers[cell_kind(command, column)])
        for i, column in enumerate(columns)
    )
    if fmt == "json":
        head = (
            "{\n"
            f'  "schema_version": {SCHEMA_VERSION},\n'
            f'  "generator_convention": {encode_basestring_ascii(GENERATOR_CONVENTION)},\n'
            f'  "command": {encode_basestring_ascii(command)},\n'
            '  "rows": ['
        )
        steps = tuple(
            (*step, f"      {encode_basestring_ascii(column)}: ".__add__)
            for step, column in zip(steps, columns)
        )
        return (
            head + "\n    {\n", steps, ",\n", "\n    },\n    {\n",
            "\n    }\n  ]\n}\n", head + "]\n}\n",
        )
    head = (
        f"# schema_version={SCHEMA_VERSION}\n"
        f"# generator_convention={GENERATOR_CONVENTION}\n"
        + ",".join(columns) + "\n"
    )
    return head, steps, ",", "\n", "\n", head


def render(fmt: str, command: str, rows: list[tuple]) -> str:
    """Render rows, each a tuple in COLUMNS[command] order, as CSV or JSON.

    A cell is written by its column's kind (_CELL_WRITERS), with the
    writers and fixed text built once per (fmt, command) by _layout.
    JSON is byte for byte json.dumps(payload, indent=2) + "\n", with
    each row an object in column order. Each column's cells are written
    lazily and zipped back into rows, so where the writers are builtins
    no Python-level code runs per row or per cell.
    """
    head, steps, cell_sep, row_sep, tail, empty = _layout(fmt, command)
    if not rows:
        return empty
    cells = []
    for column_steps in steps:
        cell = rows
        for step in column_steps:
            cell = map(step, cell)
        cells.append(cell)
    return head + row_sep.join(map(cell_sep.join, zip(*cells))) + tail


# ---------------------------------------------------------------------------
# subcommands


def _cells(args: argparse.Namespace) -> Iterator[tuple[int, int]]:
    # q and n are ascending tuples, so the cells come in sorted order; a
    # generator, so refusing a grid does not first build every cell
    return ((q, n) for q in args.q for n in args.n)


def _check_grid_size(args: argparse.Namespace) -> None:
    """Refuse a grid with more than MAX_GRID_ROWS self-dual entries.

    Sums selfdual_row_count over the cells, which forms no group and
    walks no orbit, and stops once the sum passes the limit.
    """
    total = 0
    for q, n in _cells(args):
        total += selfdual_row_count(q, n)
        if total > MAX_GRID_ROWS:
            raise UsageError(
                f"grid too large: its cells through q={q}, n={n} hold more than "
                f"MAX_GRID_ROWS = {MAX_GRID_ROWS} self-dual entries"
            )


def cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    # every entry is regular and self-dual and its two sign routes agree:
    # enumerate_level1_selfdual checks all three and raises otherwise
    rows = [
        (q, n, chi.f, n // chi.f, chi.a, chi.w, True, True, sign, sign, True)
        for q, n in _cells(args)
        for chi, sign, _ in enumerate_level1_selfdual(q, n)
    ]
    return 0, render(args.format, "enumerate", rows)


def cmd_verify_flip(args: argparse.Namespace) -> tuple[int, str]:
    rows = [row for q, n in _cells(args) for row in verify_flip(q, n, args.recipe)]
    code = 0
    if any(row.recipe == "PR" and not row.consistent for row in rows):
        code = 3
    return code, render(args.format, "verify-flip", rows)


def _check_sign_size(q: int, d: int, f: int) -> None:
    """Refuse a `sign` datum whose model is too large, before building it.

    The model is division_model(d, chi), with d = n on the division side
    and d = f on the weil side, and its field conductor is
    lcm(q^d - 1, 2d/f). A q or an exponent too large for
    MAX_SIGN_CONDUCTOR is refused before any power of q is formed. The
    exponent is max(d, f), because the torus order q^f - 1 is formed
    before f | d is checked. Data with q < 2 or f < 1 are left to
    TameCharacter's own checks.
    """
    if q < 2 or f < 1:
        return
    e, k = max(d, f), (2 * d // f if d >= 1 and d % f == 0 else 1)
    limit = MAX_SIGN_CONDUCTOR
    if q <= limit + 1 and e <= limit.bit_length() and lcm(q**e - 1, k) <= limit:
        return
    raise UsageError(
        f"model too large: field conductor lcm(q^d - 1, 2d/f) at q={q}, "
        f"model degree d={d}, f={f} exceeds the limit "
        f"MAX_SIGN_CONDUCTOR = {limit}"
    )


def cmd_sign(args: argparse.Namespace) -> tuple[int, str]:
    # both sides build division_model(d, chi), the parameter side at
    # d = f, once: every route, sign_weil_closed_form's too, reads it
    division = args.side == "division"
    d = args.n if division else args.f
    _check_sign_size(args.q, d, args.f)
    chi = TameCharacter(args.q, args.f, args.a, args.w)
    selfdual = is_selfdual_division(chi)
    psi = division_model(d, chi)  # an Irrep: the routes trust it on G
    G = psi.group
    if selfdual:
        # each compares the closed form with the model's indicator and
        # returns it only when the two are equal, so the indicator is
        # read once, there
        route = checked_sign if division else sign_weil_closed_form
        closed = oracle = route(chi, psi)
    else:
        closed, oracle = None, fs_indicator(G, psi)
    (Mx, kx), (Mt, kt) = det_exponents(G, psi)
    field_info = character_field(G, psi)
    # one prediction: the rule, the field of values and the indicator
    # agree on self-duality
    if not selfdual == field_info.is_real == (oracle != 0):
        raise InternalConsistencyError(
            f"selfdual={selfdual}, field of values real={field_info.is_real} "
            f"and Frobenius-Schur indicator {oracle} disagree for {chi}: "
            f"psi={psi}"
        )
    row = (
        args.side, args.q, args.n, args.f, args.a, args.w, True, selfdual,
        closed, oracle, fmt_root(Mx, kx), fmt_root(Mt, kt),
        fmt_root(G.N // psi.f, psi.c), field_info.conductor, field_info.degree,
    )
    return 0, render(args.format, "sign", [row])


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _HelpPrinted(Exception):
    """A subcommand's parser has printed its --help; main returns 0."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's 2
        raise UsageError(message)

    def exit(self, status=0, message=None):  # called only after --help
        raise _HelpPrinted


@cache
def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built on first use and then reused.

    main picks the subcommand by the first argument, a DISPATCH key, and
    this parser takes the rest; it sets args.command to that key.
    """
    parser = _Parser(prog=f"tamesigns {command}")
    parser.set_defaults(command=command)
    if command == "sign":
        parser.add_argument("--side", choices=("division", "weil"), required=True)
        parser.add_argument("--q", type=int, required=True)
        parser.add_argument("--n", type=int, default=None)
        parser.add_argument("--f", type=int, required=True)
        parser.add_argument("--a", type=int, required=True)
        parser.add_argument("--w", required=True, help="+1 or -1")
    else:
        parser.add_argument("--q", required=True, help="prime power or range lo..hi")
        parser.add_argument("--n", required=True, help="degree or range lo..hi")
        if command == "verify-flip":
            parser.add_argument("--recipe", choices=(*RECIPES, "both"), default="PR")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check and convert the parsed arguments in place, and return them.

    Grid ranges become ascending tuples of q and n, bounded before any
    cell runs; `sign`'s --w becomes an int, and `sign` takes --n on the
    division side only, so args.n is None on the weil side.
    """
    if args.command in ("enumerate", "verify-flip"):
        args.q, args.n = expand_q_range(args.q), expand_n_range(args.n)
        _check_grid_size(args)
    else:
        if args.side == "division" and args.n is None:
            raise UsageError("sign --side division requires --n")
        if args.side == "weil" and args.n is not None:
            raise UsageError("sign --side weil takes no --n")
        args.w = parse_sign(args.w)
    return args


DISPATCH = {
    "enumerate": cmd_enumerate,
    "verify-flip": cmd_verify_flip,
    "sign": cmd_sign,
}
# each command's line in `tamesigns --help`
COMMAND_HELP = {
    "enumerate": "all level-one self-dual representations over ranges",
    "verify-flip": "verify the even-degree sign flip over ranges",
    "sign": "full sign report for one datum",
}


def _help_text() -> str:
    """What `tamesigns --help` prints, in argparse's layout at 80 columns."""
    choices = "{" + ",".join(DISPATCH) + "}"
    return "\n".join((
        f"usage: tamesigns [-h] {choices} ...",
        "",
        "Exact orthogonal/symplectic sign calculus for level-one self-dual",
        "representations of tame division algebras and their Weil parameters.",
        "",
        "positional arguments:",
        f"  {choices}",
        *(f"    {name:<20}{COMMAND_HELP[name]}" for name in DISPATCH),
        "",
        "options:",
        "  -h, --help            show this help message and exit",
        "",
    ))


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if not argv:
            raise UsageError("the following arguments are required: command")
        command = argv[0]
        # -h, --help or an abbreviation of --help, as argparse reads them
        if command == "-h" or command.startswith("--h") and "--help".startswith(command):
            sys.stdout.write(_help_text())
            return 0
        if command not in DISPATCH:
            raise UsageError(
                f"argument command: invalid choice: {command!r} "
                f"(choose from {', '.join(map(repr, DISPATCH))})"
            )
        args = build_parser(command).parse_args(argv[1:])
        code, text = DISPATCH[command](config_from_args(args))
    except _HelpPrinted:
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
