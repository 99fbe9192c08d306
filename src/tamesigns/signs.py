"""The sign calculus: transfer laws, the even-degree flip, and its
mechanical verification.

transfer_sign carries the orthogonal/symplectic sign of a self-dual
parameter across the correspondence to an inner form whose representation
has parameter degree n = m * r: the sign picks up (-1)^(n - m) and an
m-th power. casewise_sign is the equivalent parity case analysis,
checked against transfer_sign on every call, and flip_sign is its
m = 1 face used for division algebras of full degree: for even n the
sign flips outright.

verify_flip runs the whole machine end to end: enumerate the level-one
self-dual representations for (q, n) once, each with its division-side
sign, the closed form checked against the finite-model oracle, attach
the Weil parameter under the chosen recipe (or under PR and then SZ),
read its sign from the cell's table of Weil-side closed forms, push it
through the flip, and record whether the sign agrees with the flip's
prediction, one FlipRow per representation and recipe. Where each check
runs: the division-side checks as enumerate_level1_selfdual places them
(per cell, per orbit, per entry, where checked_sign compares the closed
form with the model's FS indicator); the Weil closed form with its
second routes (checked_sign on the parameter's model and, at even f, the
determinant) once per entry, by sign_weil_closed_form in the cell's
table, on the entry's own Irrep at f = n and on division_model(f, chi)
at f < n; attach_parameter's guards once per row; the flip's case
analysis against transfer_sign once per distinct parameter sign in the
cell; and, once per cell, the count of SZ witnesses: the SZ rows that
fail the flip must be exactly the rows with e = n/f even, as many as the
Moebius count of those rows.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import divisors
from .division import (
    division_model,
    enumerate_level1_selfdual,
    selfdual_rows_at_degree,
)
from .errors import InternalConsistencyError, UsageError
from .weil import RECIPES, attach_parameter, sign_weil_closed_form, sp_sign

__all__ = [
    "transfer_sign",
    "flip_sign",
    "casewise_sign",
    "FlipRow",
    "verify_flip",
]


def transfer_sign(m: int, r: int, parameter_sign: int) -> int:
    """Sign transfer to the inner form of degree split m * r.

    Formula: (-1)^(n - m) * parameter_sign^m with n = m * r. A parameter
    of odd total degree n cannot be symplectic, so parameter_sign = -1
    with m and r both odd is rejected as a usage error. On the valid
    domain the r = 1 slice is identically +1.
    """
    if m < 1 or r < 1:
        raise UsageError(f"need m >= 1 and r >= 1, got m={m}, r={r}")
    if parameter_sign not in (1, -1):
        raise UsageError(f"parameter_sign must be +1 or -1, got {parameter_sign}")
    n = m * r
    if n % 2 and parameter_sign == -1:
        raise UsageError(
            f"odd degree n={n} forces an orthogonal parameter, got -1"
        )
    out = parameter_sign if m % 2 else 1
    if (n - m) % 2:
        out = -out
    return out


def flip_sign(n: int, parameter_sign: int) -> int:
    """The full-degree flip: +1 for odd n, -parameter_sign for even n.

    casewise_sign at m = 1, so checked against the formula on every call.
    n odd together with parameter_sign = -1 is rejected as a usage error.
    """
    return casewise_sign(1, n, parameter_sign)


def casewise_sign(m: int, d: int, parameter_sign: int) -> int:
    """Parity case analysis of the transfer, checked against the formula.

    d odd: +1. d even, m odd: -parameter_sign. d even, m even: +1.
    The inputs are checked by transfer_sign(m, d, parameter_sign), and
    the result is compared with its value on every call; disagreement
    raises InternalConsistencyError.
    """
    formula = transfer_sign(m, d, parameter_sign)
    if d % 2:
        out = 1
    elif m % 2:
        out = -parameter_sign
    else:
        out = 1
    if out != formula:
        raise InternalConsistencyError(
            f"case analysis {out} disagrees with formula {formula} "
            f"at m={m}, d={d}, sign={parameter_sign}"
        )
    return out


class FlipRow(NamedTuple):
    """One representation's worth of flip verification; its fields are
    the verify-flip columns, in order."""

    q: int
    n: int
    recipe: str
    f: int
    e: int
    a: int
    w: int
    sign_closed: int
    sign_oracle: int
    param_w: int
    param_sign: int
    predicted: int
    consistent: bool


def verify_flip(q: int, n: int, recipe: str) -> tuple[FlipRow, ...]:
    """Mechanically verify the flip law for every level-one self-dual
    representation of the degree-n division algebra over residue size q.

    For each enumerated datum: the division-side sign is the closed form,
    which the scan has checked equal to the model oracle, the Weil
    parameter is attached under the recipe, its sign feeds the flip, and
    the row is consistent when that sign equals the flipped prediction;
    the row prints the checked sign in both sign columns. The attached
    parameter is one of the cell's own data, so its sign is read from a
    per-cell table that runs sign_weil_closed_form, with its guards and
    its routes on the parameter's own model C_{q^f-1} x| C_{2f}, once
    per datum; a disagreement raises InternalConsistencyError. At f = n
    that model is the entry's own Irrep, which the scan has built and
    checked on the cell's group; only the data with f < n build theirs,
    by division_model(f, chi). The flip
    depends only on (n, parameter sign), so flip_sign, with its
    case-analysis-vs-transfer check, runs once per distinct parameter
    sign in the cell: at most twice. recipe "both" enumerates the cell
    once and gives the PR rows, then the SZ rows. The SZ rows that come
    out inconsistent must be exactly those with even e, and as many as
    selfdual_rows_at_degree counts over the f | n with n/f even; a
    mismatch raises InternalConsistencyError naming q, n and both counts.
    """
    if recipe != "both" and recipe not in RECIPES:
        raise UsageError(f"recipe must be one of {RECIPES} or 'both', got {recipe!r}")
    entries = enumerate_level1_selfdual(q, n)
    # (f, a, w) -> sign_weil_closed_form of that datum, on its model: at
    # f = n the entry's own Irrep, division_model(n, chi) on the cell
    weil_sign = {}
    for chi, _, model in entries:
        psi = model if chi.f == n else division_model(chi.f, chi)
        weil_sign[chi.f, chi.a, chi.w] = sign_weil_closed_form(chi, psi)
    flipped: dict[int, int] = {}  # parameter sign -> flip_sign(n, sign)
    make_row = FlipRow._make  # no per-row keyword __new__
    rows: list[FlipRow] = []
    for row_recipe in RECIPES if recipe == "both" else (recipe,):
        block = []
        for chi, sign, _ in entries:
            f, a = chi.f, chi.a
            e = n // f
            param_w = attach_parameter(n, chi, row_recipe)
            psign = weil_sign[f, a, param_w] * sp_sign(e)
            if psign not in flipped:
                flipped[psign] = flip_sign(n, psign)
            predicted = flipped[psign]
            block.append(
                make_row((
                    q, n, row_recipe, f, e, a, chi.w, sign, sign,
                    param_w, psign, predicted, sign == predicted,
                ))
            )
        if row_recipe == "SZ":
            _check_sz_witnesses(q, n, block)
        rows.extend(block)
    return tuple(rows)


def _check_sz_witnesses(q: int, n: int, rows: list[FlipRow]) -> None:
    # SZ sets param_w = -w, so at even n its rows fail the flip exactly at
    # even e: the cell's SZ witnesses must be its even-e rows, as many as
    # the Moebius count of the entries whose degree f | n leaves n/f even
    predicted = sum(
        selfdual_rows_at_degree(q, f) for f in divisors(n) if (n // f) % 2 == 0
    )
    found = sum(not row.consistent for row in rows)
    stray = sum(row.consistent == (row.e % 2 == 0) for row in rows)
    if stray or found != predicted:
        raise InternalConsistencyError(
            f"SZ witnesses at q={q}, n={n} are not the even-e rows: {found} "
            f"rows are inconsistent, the Moebius count of even-e rows is "
            f"{predicted}, and {stray} rows are consistent at even e or "
            f"inconsistent at odd e"
        )
