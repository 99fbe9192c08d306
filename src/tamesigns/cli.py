"""Command-line interface.

Four subcommands: enumerate (all level-one self-dual representations
over ranges of q and n, with both sign routes per row), verify-flip
(mechanical check of the even-degree sign flip under one or both
twisting recipes), sign (full report for a single datum), and
product-check (product of signs must be +1).

Output is CSV (default) or JSON, written to stdout, and is byte-for-byte
deterministic: (q, n) cells are visited in sorted order, rows are
canonically ordered within each cell, and no timestamps or machine data
appear. Schema details live in SCHEMA.md next to this package; every
payload carries schema_version and the generator convention for
character exponents.

Exit codes: 0 success (including reported SZ inconsistencies and failed
product checks); 1 usage error; 2 internal consistency failure; 3 flip
falsification under recipe PR.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import lcm
from operator import itemgetter

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
from .signs import FlipRow, product_check, verify_flip
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

ENUMERATE_COLUMNS = (
    "q", "n", "f", "e", "a", "w",
    "regular", "selfdual", "sign_closed", "sign_oracle", "agree",
)
FLIP_COLUMNS = FlipRow._fields
SIGN_COLUMNS = (
    "side", "q", "n", "f", "a", "w", "regular", "selfdual",
    "sign_closed", "sign_oracle", "det_x", "det_t", "scalar_tf",
    "field_conductor", "field_degree",
)
PRODUCT_COLUMNS = ("count", "product", "verdict")
# columns holding a sign (+-1, 0 for a vanishing indicator, None when absent)
SIGN_CELLS = frozenset(
    {"w", "sign_closed", "sign_oracle", "param_w", "param_sign", "predicted", "product"}
)
# columns holding a bool
BOOL_CELLS = frozenset({"regular", "selfdual", "agree", "consistent"})
# (command, column) pairs outside SIGN_CELLS that may hold None: the weil
# side of `sign` has no n
OPTIONAL_CELLS = frozenset({("sign", "n")})
# columns holding a str; a column of none of these kinds holds an int
TEXT_CELLS = frozenset({"recipe", "side", "det_x", "det_t", "scalar_tf", "verdict"})


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


# per format, the writers of a sign (+-1, 0 or None), a bool, an
# OPTIONAL_CELLS cell, a TEXT_CELLS cell and any other cell (an int); the
# JSON ones write each type as json.dumps does
_CELL_WRITERS = {
    "csv": (
        {1: "+1", -1: "-1", 0: "0", None: ""}.__getitem__,
        {True: "true", False: "false"}.__getitem__,
        _optional_text,
        str,
        str,
    ),
    "json": (
        {1: "1", -1: "-1", 0: "0", None: "null"}.__getitem__,
        {True: "true", False: "false"}.__getitem__,
        _optional_json,
        encode_basestring_ascii,
        int.__repr__,
    ),
}


def _cell_writer(fmt: str, command: str, column: str):
    """The function that writes one cell of the column, by its kind."""
    sign, boolean, optional, text, other = _CELL_WRITERS[fmt]
    if column in SIGN_CELLS:
        return sign
    if column in BOOL_CELLS:
        return boolean
    if (command, column) in OPTIONAL_CELLS:
        return optional
    if column in TEXT_CELLS:
        return text
    return other


@cache
def _layout(fmt: str, command: str, columns: tuple[str, ...]) -> tuple:
    """How render writes a command's rows: (head, steps, cell_sep, row_sep, tail, empty).

    steps holds, per column, the builtins that take a row to its written
    cell: the column's item, its kind's writer and, in JSON, the key
    before it. A row's cells are joined by cell_sep and rows by row_sep,
    between head and tail; empty is the whole text for no rows.
    """
    steps = tuple(
        (itemgetter(i), _cell_writer(fmt, command, column))
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


def render(fmt: str, command: str, columns: tuple[str, ...], rows: list[tuple]) -> str:
    """Render rows, each a tuple in column order, as CSV or JSON.

    A cell is written by its column's kind (_CELL_WRITERS), with the
    writers and fixed text built once per (fmt, command, columns) by
    _layout. JSON is byte for byte json.dumps(payload, indent=2) + "\n",
    with each row an object in column order. Each column's cells are
    written lazily and zipped back into rows, so where the writers are
    builtins no Python-level code runs per row or per cell.
    """
    head, steps, cell_sep, row_sep, tail, empty = _layout(fmt, command, columns)
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


def _enumerate_cell(q: int, n: int) -> list[tuple]:
    rows = []
    # every entry is regular and self-dual and its two sign routes agree:
    # enumerate_level1_selfdual checks all three and raises otherwise
    for entry in enumerate_level1_selfdual(q, n):
        chi = entry.chi
        rows.append((
            q, n, chi.f, n // chi.f, chi.a, chi.w, True, True,
            entry.sign, entry.sign, True,
        ))
    return rows


def _cells(args: argparse.Namespace) -> list[tuple[int, int]]:
    # q and n are ascending tuples, so the cells come in sorted order
    return [(q, n) for q in args.q for n in args.n]


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
    rows = [row for q, n in _cells(args) for row in _enumerate_cell(q, n)]
    return 0, render(args.format, "enumerate", ENUMERATE_COLUMNS, rows)


def cmd_verify_flip(args: argparse.Namespace) -> tuple[int, str]:
    rows = [row for q, n in _cells(args) for row in verify_flip(q, n, args.recipe)]
    code = 0
    if any(row.recipe == "PR" and not row.consistent for row in rows):
        code = 3
    return code, render(args.format, "verify-flip", FLIP_COLUMNS, rows)


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
    oracle = fs_indicator(G, psi)
    (Mx, kx), (Mt, kt) = det_exponents(G, psi)
    field_info = character_field(G, psi)
    if field_info.is_real != (oracle != 0):
        raise InternalConsistencyError(
            f"field of values real={field_info.is_real} but Frobenius-Schur "
            f"indicator {oracle} for psi={psi} on {G}"
        )
    if selfdual != (oracle != 0):
        raise InternalConsistencyError(
            f"selfdual={selfdual} but Frobenius-Schur indicator {oracle} "
            f"for {chi}: psi={psi}"
        )
    closed = None
    if selfdual:  # each compares the closed form with a model's indicator
        closed = (checked_sign if division else sign_weil_closed_form)(chi, psi)
    row = (
        args.side, args.q, args.n, args.f, args.a, args.w, True, selfdual,
        closed, oracle, fmt_root(Mx, kx), fmt_root(Mt, kt),
        fmt_root(G.N // psi.f, psi.c), field_info.conductor, field_info.degree,
    )
    return 0, render(args.format, "sign", SIGN_COLUMNS, [row])


def cmd_product_check(args: argparse.Namespace) -> tuple[int, str]:
    ok = product_check(args.signs)
    row = (len(args.signs), 1 if ok else -1, "ok" if ok else "violated")
    return 0, render(args.format, "product-check", PRODUCT_COLUMNS, [row])


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's 2
        raise UsageError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = _Parser(
        prog="tamesigns",
        description=(
            "Exact orthogonal/symplectic sign calculus for level-one "
            "self-dual representations of tame division algebras and "
            "their Weil parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_enum = sub.add_parser(
        "enumerate", help="all level-one self-dual representations over ranges"
    )
    p_enum.add_argument("--q", required=True, help="prime power or range lo..hi")
    p_enum.add_argument("--n", required=True, help="degree or range lo..hi")
    add_common(p_enum)

    p_flip = sub.add_parser(
        "verify-flip", help="verify the even-degree sign flip over ranges"
    )
    p_flip.add_argument("--q", required=True, help="prime power or range lo..hi")
    p_flip.add_argument("--n", required=True, help="degree or range lo..hi")
    p_flip.add_argument("--recipe", choices=(*RECIPES, "both"), default="PR")
    add_common(p_flip)

    p_sign = sub.add_parser("sign", help="full sign report for one datum")
    p_sign.add_argument("--side", choices=("division", "weil"), required=True)
    p_sign.add_argument("--q", type=int, required=True)
    p_sign.add_argument("--n", type=int, default=None)
    p_sign.add_argument("--f", type=int, required=True)
    p_sign.add_argument("--a", type=int, required=True)
    p_sign.add_argument("--w", required=True, help="+1 or -1")
    add_common(p_sign)

    p_prod = sub.add_parser("product-check", help="check a product of signs is +1")
    p_prod.add_argument("signs", nargs="+", help="signs, each +1 or -1")
    add_common(p_prod)

    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check and convert the parsed arguments in place, and return them.

    Grid ranges become ascending tuples of q and n, bounded before any
    cell runs; signs become ints; `sign` takes --n on the division side
    only, so args.n is None on the weil side.
    """
    if args.command in ("enumerate", "verify-flip"):
        args.q, args.n = expand_q_range(args.q), expand_n_range(args.n)
        _check_grid_size(args)
    elif args.command == "sign":
        if args.side == "division" and args.n is None:
            raise UsageError("sign --side division requires --n")
        if args.side == "weil" and args.n is not None:
            raise UsageError("sign --side weil takes no --n")
        args.w = parse_sign(args.w)
    else:
        args.signs = tuple(parse_sign(s) for s in args.signs)
    return args


DISPATCH = {
    "enumerate": cmd_enumerate,
    "verify-flip": cmd_verify_flip,
    "sign": cmd_sign,
    "product-check": cmd_product_check,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, text = DISPATCH[args.command](config_from_args(args))
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
