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
import json
import sys
from dataclasses import dataclass
from functools import cache
from math import lcm

from .division import (
    TameCharacter,
    division_model,
    enumerate_level1_selfdual,
    is_prime_power,
    is_selfdual_division,
    prime_power_base,
    sign_division_closed_form,
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


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: one subcommand plus its arguments."""

    command: str
    q_values: tuple[int, ...] = ()
    n_values: tuple[int, ...] = ()
    recipe: str = "PR"
    fmt: str = "csv"
    side: str = ""
    q: int = 0
    n: int = 0
    f: int = 0
    a: int = 0
    w: int = 0
    signs: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# parsing helpers


def parse_range(text: str, name: str) -> tuple[int, ...]:
    """Parse "k" or "lo..hi" (inclusive) into a tuple of ints."""
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise UsageError(f"cannot parse {name} range {text!r}; use k or lo..hi")
    if lo > hi:
        raise UsageError(f"empty range for {name}: {text}")
    return tuple(range(lo, hi + 1))


def expand_q_range(text: str) -> tuple[int, ...]:
    """Prime powers in the range; a single non-prime-power is an error."""
    values = parse_range(text, "q")
    if len(values) == 1:
        prime_power_base(values[0])
        return values
    kept = tuple(q for q in values if is_prime_power(q))
    if not kept:
        raise UsageError(f"no prime powers in q range {text!r}")
    return kept


def expand_n_range(text: str) -> tuple[int, ...]:
    values = parse_range(text, "n")
    if any(n < 1 for n in values):
        raise UsageError(f"n must be >= 1, got range {text!r}")
    return values


def parse_sign(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise UsageError(f"signs must be +1 or -1, got {text!r}")


# ---------------------------------------------------------------------------
# formatting helpers


_SIGN_TEXT = {1: "+1", -1: "-1", 0: "0", None: ""}


def fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def fmt_root(conductor: int, exponent: int) -> str:
    """A root of unity as +1, -1, or zeta{M}^{k}."""
    k = exponent % conductor
    if k == 0:
        return "+1"
    if 2 * k == conductor:
        return "-1"
    return f"zeta{conductor}^{k}"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return fmt_bool(value)
    if value is None:
        return ""
    return str(value)


def render(fmt: str, command: str, columns: tuple[str, ...], rows: list[tuple]) -> str:
    """Render rows, each a tuple in column order, as CSV or JSON."""
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "generator_convention": GENERATOR_CONVENTION,
            "command": command,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [
        f"# schema_version={SCHEMA_VERSION}",
        f"# generator_convention={GENERATOR_CONVENTION}",
        ",".join(columns),
    ]
    cells = [
        _SIGN_TEXT.__getitem__ if col in SIGN_CELLS else _csv_cell for col in columns
    ]
    for row in rows:
        lines.append(",".join([cell(value) for cell, value in zip(cells, row)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _enumerate_cell(q: int, n: int) -> list[tuple]:
    rows = []
    # every entry is regular and self-dual: enumerate_level1_selfdual
    # re-checks both through its sign routes and raises otherwise
    for entry in enumerate_level1_selfdual(q, n):
        chi = entry.chi
        rows.append((
            q, n, chi.f, n // chi.f, chi.a, chi.w, True, True,
            entry.sign_closed, entry.sign_oracle,
            entry.sign_closed == entry.sign_oracle,
        ))
    return rows


def _cells(config: RunConfig) -> list[tuple[int, int]]:
    return [(q, n) for q in sorted(config.q_values) for n in sorted(config.n_values)]


def cmd_enumerate(config: RunConfig) -> tuple[int, str]:
    rows = [row for q, n in _cells(config) for row in _enumerate_cell(q, n)]
    return 0, render(config.fmt, "enumerate", ENUMERATE_COLUMNS, rows)


def cmd_verify_flip(config: RunConfig) -> tuple[int, str]:
    rows = [
        row for q, n in _cells(config) for row in verify_flip(q, n, config.recipe)
    ]
    code = 0
    if any(row.recipe == "PR" and not row.consistent for row in rows):
        code = 3
    return code, render(config.fmt, "verify-flip", FLIP_COLUMNS, rows)


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


def cmd_sign(config: RunConfig) -> tuple[int, str]:
    # both sides build division_model(d, chi): the parameter side at d = f
    division = config.side == "division"
    d = config.n if division else config.f
    _check_sign_size(config.q, d, config.f)
    chi = TameCharacter(config.q, config.f, config.a, config.w)
    selfdual = is_selfdual_division(chi)
    G, psi = division_model(d, chi)
    closed_form = sign_division_closed_form if division else sign_weil_closed_form
    closed = closed_form(chi) if selfdual else None
    oracle = fs_indicator(G, psi)
    (Mx, kx), (Mt, kt) = det_exponents(G, psi)
    field_info = character_field(G, psi)
    if field_info.is_real != (oracle != 0):
        raise InternalConsistencyError(
            f"field of values real={field_info.is_real} but Frobenius-Schur "
            f"indicator {oracle} for psi={psi} on {G}"
        )
    if selfdual and closed != oracle:
        raise InternalConsistencyError(
            f"closed-form sign {closed} disagrees with the Frobenius-Schur "
            f"indicator {oracle} for {chi} on {G} (psi={psi})"
        )
    row = (
        config.side, config.q, config.n if division else None, config.f,
        config.a, config.w, True, selfdual, closed, oracle,
        fmt_root(Mx, kx), fmt_root(Mt, kt), fmt_root(G.N // psi.f, psi.c),
        field_info.conductor, field_info.degree,
    )
    return 0, render(config.fmt, "sign", SIGN_COLUMNS, [row])


def cmd_product_check(config: RunConfig) -> tuple[int, str]:
    ok = product_check(config.signs)
    row = (len(config.signs), 1 if ok else -1, "ok" if ok else "violated")
    return 0, render(config.fmt, "product-check", PRODUCT_COLUMNS, [row])


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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command in ("enumerate", "verify-flip"):
        return RunConfig(
            command=args.command,
            q_values=expand_q_range(args.q),
            n_values=expand_n_range(args.n),
            recipe=getattr(args, "recipe", "PR"),
            fmt=args.format,
        )
    if args.command == "sign":
        if args.side == "division":
            if args.n is None:
                raise UsageError("sign --side division requires --n")
            n = args.n
        else:
            if args.n is not None:
                raise UsageError("sign --side weil takes no --n")
            n = 0
        return RunConfig(
            command="sign",
            side=args.side,
            q=args.q,
            n=n,
            f=args.f,
            a=args.a,
            w=parse_sign(args.w),
            fmt=args.format,
        )
    return RunConfig(
        command="product-check",
        signs=tuple(parse_sign(s) for s in args.signs),
        fmt=args.format,
    )


DISPATCH = {
    "enumerate": cmd_enumerate,
    "verify-flip": cmd_verify_flip,
    "sign": cmd_sign,
    "product-check": cmd_product_check,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        code, text = DISPATCH[config.command](config)
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
