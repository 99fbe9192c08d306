"""Oracles for the sign calculus.

The transfer formula is pinned by hand-evaluated corner cases, the case
analysis is exhaustively compared with the formula over every valid
input with m, d <= 64, and the flip verification must come out all
consistent under recipe PR while failing under recipe SZ exactly when
e and f are both even (frozen at q=2, n=4: the f=2, e=2 rows fail and
the f=4, e=1 rows pass).
"""

from __future__ import annotations

import pytest

import tamesigns.division
import tamesigns.metacyclic
import tamesigns.signs
import tamesigns.weil
from tamesigns.cli import FLIP_COLUMNS, main
from tamesigns.cyclotomic import divisors
from tamesigns.division import (
    TameCharacter,
    enumerate_level1_selfdual,
    is_prime_power,
    selfdual_rows_at_degree,
)
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.metacyclic import make_group
from tamesigns.signs import (
    FlipRow,
    casewise_sign,
    flip_sign,
    product_check,
    transfer_sign,
    verify_flip,
)
from tamesigns.weil import sp_sign


def test_transfer_sign_corner_cases():
    # m = n (r = 1): identically +1 on the valid domain
    assert transfer_sign(3, 1, 1) == 1
    assert transfer_sign(4, 1, -1) == 1
    assert transfer_sign(4, 1, 1) == 1
    # m = 1: the full flip for even n, identity for odd n
    assert transfer_sign(1, 2, 1) == -1
    assert transfer_sign(1, 2, -1) == 1
    assert transfer_sign(1, 3, 1) == 1
    # mixed: n = 6, m = 2: (-1)^4 * sign^2 = +1
    assert transfer_sign(2, 3, -1) == 1
    # n = 6, m = 3: (-1)^3 * sign^3 = -sign
    assert transfer_sign(3, 2, 1) == -1
    assert transfer_sign(3, 2, -1) == 1


def test_transfer_sign_rejects_odd_degree_symplectic():
    # n = m * r odd cannot carry a symplectic parameter
    for m, r in ((1, 3), (3, 1), (3, 5), (7, 7)):
        with pytest.raises(UsageError):
            transfer_sign(m, r, -1)


def test_transfer_sign_validation():
    with pytest.raises(UsageError):
        transfer_sign(0, 1, 1)
    with pytest.raises(UsageError):
        transfer_sign(1, 1, 0)


def test_flip_sign():
    assert flip_sign(2, 1) == -1
    assert flip_sign(2, -1) == 1
    assert flip_sign(4, -1) == 1
    assert flip_sign(3, 1) == 1
    with pytest.raises(UsageError):
        flip_sign(3, -1)
    with pytest.raises(UsageError):
        flip_sign(0, 1)


def test_flip_is_transfer_at_m_one():
    for n in range(1, 65):
        for sign in (1, -1):
            if n % 2 and sign == -1:
                continue
            assert flip_sign(n, sign) == transfer_sign(1, n, sign)


def test_casewise_matches_formula_exhaustively():
    for m in range(1, 65):
        for d in range(1, 65):
            for sign in (1, -1):
                if m % 2 and d % 2 and sign == -1:
                    continue
                assert casewise_sign(m, d, sign) == transfer_sign(m, d, sign)


def test_casewise_validation():
    # transfer_sign refuses these: odd m * d with -1, m or d < 1, a non-sign
    for m, d, sign in ((3, 5, -1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 2, 2)):
        with pytest.raises(UsageError):
            casewise_sign(m, d, sign)
    assert casewise_sign(3, 5, 1) == 1


def test_product_check():
    assert product_check([1, 1, 1])
    assert product_check([-1, -1])
    assert not product_check([-1, 1, 1])
    assert product_check([])
    # a k-th tensor power of a self-dual factor has sign sign^k
    for sign in (1, -1):
        for k in range(1, 9):
            assert product_check([sign] * k) == (sign == 1 or k % 2 == 0)
    with pytest.raises(UsageError):
        product_check([1, 2])
    with pytest.raises(UsageError):
        product_check([0, 0])


def test_verify_flip_pr_consistent_small():
    rows = verify_flip(2, 2, "PR")
    assert len(rows) == 2
    for row in rows:
        assert row.consistent
        assert row.sign_closed == row.sign_oracle == row.predicted


def test_verify_flip_sz_falsified_at_even_e_and_f():
    # frozen: q=2, n=4 under SZ fails exactly on the f=2 (e=2) rows
    rows = verify_flip(2, 4, "SZ")
    failed = {(row.f, row.e) for row in rows if not row.consistent}
    assert failed == {(2, 2)}
    passed = {(row.f, row.e) for row in rows if row.consistent}
    assert passed == {(4, 1)}
    # and PR on the same cell is clean
    assert all(row.consistent for row in verify_flip(2, 4, "PR"))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_verify_flip_pr_consistent_ranges(q, n):
    rows = verify_flip(q, n, "PR")
    assert all(row.consistent for row in rows)
    assert all(row.recipe == "PR" for row in rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_verify_flip_sz_failure_pattern(q, n):
    # SZ rows are inconsistent exactly when e and f are both even
    for row in verify_flip(q, n, "SZ"):
        assert row.consistent == (row.e % 2 == 1 or row.f % 2 == 1), row


@pytest.mark.parametrize("q, n", [(2, 4), (3, 6)])
def test_verify_flip_both_is_pr_then_sz(q, n):
    rows = verify_flip(q, n, "both")
    assert rows == verify_flip(q, n, "PR") + verify_flip(q, n, "SZ")
    # the parameter sign of mu (x) sp(e) is the product of the factors' signs
    for row in rows:
        assert row.param_sign == row.param_w * sp_sign(row.e), row


def test_verify_flip_odd_degree_is_empty():
    assert verify_flip(2, 3, "PR") == ()


@pytest.mark.parametrize("n", [3, 4])
def test_verify_flip_refuses_unknown_recipe_before_enumerating(monkeypatch, n):
    # odd n has no rows, so no attach_parameter call would refuse it
    def never(q, n):
        raise AssertionError("enumerated before the recipe was checked")

    monkeypatch.setattr(tamesigns.signs, "enumerate_level1_selfdual", never)
    with pytest.raises(UsageError, match="recipe must be one of"):
        verify_flip(2, n, "XX")


def test_regularity_is_checked_once_per_built_datum(monkeypatch, fresh_groups):
    # one is_regular walk per orbit: the w = +1 datum is built and checked,
    # and its w = -1 twin copied from it. Each row's attached parameter is
    # an enumerated datum, so sign_weil_closed_form, with its FS and det
    # routes, runs once per entry under both recipes, at f < n and at
    # f = n alike. Its model is built by division_model once per f < n
    # datum; at f = n it is the entry's own Irrep, and none is built.
    # Both sides read FS in division's checked_sign
    listed = enumerate_level1_selfdual(3, 4)
    entries = len(listed)
    below = sum(entry.chi.f < 4 for entry in listed)
    assert 0 < below < entries
    tamesigns.metacyclic.make_group.cache_clear()  # no class checked yet
    regular, closed, dets, built = [], [], [], []
    real_regular = tamesigns.division.is_regular
    real_closed = tamesigns.signs.sign_weil_closed_form
    real_det = tamesigns.weil.det_exponents
    real_model = tamesigns.signs.division_model
    monkeypatch.setattr(
        tamesigns.division,
        "is_regular",
        lambda chi: regular.append(chi) or real_regular(chi),
    )
    monkeypatch.setattr(
        tamesigns.signs,
        "sign_weil_closed_form",
        lambda mu, psi: closed.append((mu, psi)) or real_closed(mu, psi),
    )
    monkeypatch.setattr(
        tamesigns.signs,
        "division_model",
        lambda n, chi: built.append((n, chi)) or real_model(n, chi),
    )
    monkeypatch.setattr(
        tamesigns.weil,
        "det_exponents",
        lambda G, psi: dets.append(psi) or real_det(G, psi),
    )
    # irreducibility once per class of each model group (both w share
    # it), FS once per entry on each side, and the flip once per
    # distinct parameter sign
    checked, indicated, flipped = [], [], []
    real_check = tamesigns.metacyclic.is_irreducible_induced
    real_fs = tamesigns.division.fs_indicator
    real_flip = tamesigns.signs.flip_sign
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "is_irreducible_induced",
        lambda G, psi: checked.append(psi) or real_check(G, psi),
    )
    monkeypatch.setattr(
        tamesigns.division,
        "fs_indicator",
        lambda G, psi: indicated.append(psi) or real_fs(G, psi),
    )
    monkeypatch.setattr(
        tamesigns.signs,
        "flip_sign",
        lambda n, sign: flipped.append((n, sign)) or real_flip(n, sign),
    )
    rows = verify_flip(3, 4, "both")
    assert len(rows) == 2 * entries
    assert len(regular) == entries // 2
    assert len(closed) == entries
    assert len(dets) == entries
    assert built == [(e.chi.f, e.chi) for e in listed if e.chi.f < 4]
    # at f = n the parameter's model is the entry's own Irrep on the cell
    assert [psi for mu, psi in closed if mu.f == 4] == [
        e.model for e in listed if e.chi.f == 4
    ]
    assert all(psi.group.m == 80 for mu, psi in closed if mu.f == 4)
    # the scan reads FS on the cell's model C_80 x| C_8 first, then the
    # parameters on theirs, which is the cell's at f = n
    assert len(indicated) == 2 * entries
    scan_fs, weil_fs = indicated[:entries], indicated[entries:]
    assert all(psi.group.m == 80 for psi in scan_fs)
    assert sum(psi.group.m == 80 for psi in weil_fs) == entries - below
    # the cell's model C_80 x| C_8 has the classes d = 80/gcd(a, 80) of
    # its model exponents 20, 8, 16; the f = 2 parameters' model
    # C_8 x| C_4 has the one class of a = 2, and their f = n parameters
    # share the cell's model, checked already
    assert [(psi.f, psi.a) for psi in checked] == [(2, 20), (4, 8), (4, 16), (2, 2)]
    assert sorted(flipped) == sorted({(4, row.param_sign) for row in rows})


def test_selfduality_is_decided_once_per_built_datum(monkeypatch):
    # the rule runs in the constructor, once per built datum: the w = +1
    # datum of each orbit (its w = -1 twin is copied). Every guard still
    # reads the decision where it did: the scan's closed form and the
    # parameter's (through sign_division_closed_form) once per entry, and
    # attach_parameter once per row
    listed = enumerate_level1_selfdual(3, 4)
    entries = len(listed)
    ruled, built, guards = [], [], []
    real_rule = tamesigns.division._selfdual_rule
    real_regular = tamesigns.division.is_regular
    real_guard = tamesigns.division.is_selfdual_division
    monkeypatch.setattr(
        tamesigns.division,
        "_selfdual_rule",
        lambda *datum: ruled.append(datum) or real_rule(*datum),
    )
    monkeypatch.setattr(
        tamesigns.division,
        "is_regular",
        lambda chi: built.append(chi) or real_regular(chi),
    )
    for module in (tamesigns.division, tamesigns.weil):
        monkeypatch.setattr(
            module,
            "is_selfdual_division",
            lambda chi: guards.append(chi) or real_guard(chi),
        )
    rows = verify_flip(3, 4, "both")
    assert len(rows) == 2 * entries
    assert len(built) == entries // 2 > 0
    assert ruled == [(chi.q, chi.f, chi.a, chi.torus_order) for chi in built]
    assert len(guards) == 2 * entries + len(rows)


def test_verify_flip_rows_are_flip_rows():
    rows = verify_flip(2, 4, "both")
    assert FlipRow._fields == FLIP_COLUMNS
    assert rows and all(type(row) is FlipRow for row in rows)
    assert rows[0] == (2, 4, "PR", 2, 2, 1, 1, 1, 1, 1, -1, 1, True)


def test_sz_witness_count_on_the_flip_grid():
    # the Moebius count the per-cell check compares with, summed over
    # flip_grid's cells (q 2..16, n 2..8): its 538 SZ witnesses, which the
    # flip-grid golden digest runs the check on
    predicted = sum(
        selfdual_rows_at_degree(q, f)
        for q in range(2, 17)
        if is_prime_power(q)
        for n in range(2, 9)
        for f in divisors(n)
        if (n // f) % 2 == 0
    )
    assert predicted == 538


SZ_COUNT_MESSAGE = (
    "SZ witnesses at q=2, n=4 are not the even-e rows: {found} rows are "
    "inconsistent, the Moebius count of even-e rows is {predicted}, and "
    "{stray} rows are consistent at even e or inconsistent at odd e"
)


def test_sz_witness_count_off_its_moebius_count_exits_two(monkeypatch, capsys):
    real = tamesigns.signs.selfdual_rows_at_degree
    monkeypatch.setattr(
        tamesigns.signs, "selfdual_rows_at_degree", lambda q, f: real(q, f) + 1
    )
    # q = 2, n = 4: the two f = 2 rows fail, and f in {1, 2} leave n/f even
    message = SZ_COUNT_MESSAGE.format(found=2, predicted=4, stray=0)
    for recipe in ("SZ", "both"):
        with pytest.raises(InternalConsistencyError) as info:
            verify_flip(2, 4, recipe)
        assert str(info.value) == message
        code = main(["verify-flip", "--q", "2", "--n", "4", "--recipe", recipe])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"internal consistency failure: {message}\n"
    # the PR rows alone make no SZ witness count
    assert len(verify_flip(2, 4, "PR")) == 4


def test_sz_witness_off_the_even_e_rows_exits_two(monkeypatch, capsys):
    # SZ patched to keep w: at q = 2, n = 4 its f = 4 (e = 1) rows fail
    # the flip and its f = 2 (e = 2) rows pass, so the witness count
    # matches the Moebius count and only the rows are off
    real = tamesigns.signs.attach_parameter

    def attach(n, chi, recipe):
        return chi.w if recipe == "SZ" else real(n, chi, recipe)

    monkeypatch.setattr(tamesigns.signs, "attach_parameter", attach)
    message = SZ_COUNT_MESSAGE.format(found=2, predicted=2, stray=4)
    with pytest.raises(InternalConsistencyError) as info:
        verify_flip(2, 4, "SZ")
    assert str(info.value) == message
    code = main(["verify-flip", "--q", "2", "--n", "4", "--recipe", "SZ"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"internal consistency failure: {message}\n"


def test_parameter_side_oracle_disagreement_exits_two(monkeypatch, capsys):
    # at f < n the parameter's closed form is compared with the FS
    # indicator of its own model, C_3 x| C_4 for the first entry of
    # q = 2, n = 4; the scan's model C_15 x| C_8 reads true
    calls = []
    real = tamesigns.division.fs_indicator

    def negated(G, psi):
        if G.m == 15:
            return real(G, psi)
        calls.append(psi)
        return -real(G, psi)

    monkeypatch.setattr(tamesigns.division, "fs_indicator", negated)
    with pytest.raises(InternalConsistencyError) as info:
        verify_flip(2, 4, "PR")
    mu = TameCharacter(2, 2, 1, 1)
    assert calls == [(2, 1, 0, make_group(3, 4, 2))]
    assert str(info.value) == (
        f"closed-form sign 1 disagrees with the Frobenius-Schur indicator -1 "
        f"for {mu} at n=2: psi=SubgroupCharacter(f=2, a=1, c=0) on "
        "MetacyclicGroup(m=3, N=4, s=2)"
    )
    assert main(["verify-flip", "--q", "2", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal consistency failure: {info.value}\n"


def test_parameter_fs_fault_at_f_equal_n_exits_two(monkeypatch, capsys):
    # q = 2, n = 2 has only f = n entries, whose parameter model is the
    # cell's own: the parameter route still reads its FS indicator, so a
    # fault there, once the scan has passed, is met
    assert {entry.chi.f for entry in enumerate_level1_selfdual(2, 2)} == {2}
    scanned = []
    real_scan = tamesigns.signs.enumerate_level1_selfdual
    real = tamesigns.division.fs_indicator

    def scan(q, n):
        entries = real_scan(q, n)
        scanned.append((q, n))
        return entries

    monkeypatch.setattr(tamesigns.signs, "enumerate_level1_selfdual", scan)
    monkeypatch.setattr(
        tamesigns.division,
        "fs_indicator",
        lambda G, psi: -real(G, psi) if scanned else real(G, psi),
    )
    assert main(["verify-flip", "--q", "2", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal consistency failure: closed-form sign 1 disagrees with the "
        "Frobenius-Schur indicator -1 for TameCharacter(q=2, f=2, a=1, w=1) "
        "at n=2: psi=SubgroupCharacter(f=2, a=1, c=0) on "
        "MetacyclicGroup(m=3, N=4, s=2)\n"
    )


def test_consistent_restates_the_recipe_on_the_grid():
    # On every row, consistent holds exactly when the two division-side
    # routes agree and the recipe gives param_w = w * (-1)^e: at even n,
    # predicted = flip_sign(n, param_w * sp_sign(e)) = param_w * (-1)^e.
    # PR gives that for every even f, so its rows add no evidence beyond
    # the two routes; SZ (param_w = -w) fails exactly on its even-e rows.
    rows = [
        row
        for q in range(2, 10)
        if is_prime_power(q)
        for n in range(2, 9)
        for row in verify_flip(q, n, "both")
    ]
    assert len(rows) == 8956
    for row in rows:
        restated = row.param_w == row.w * (-1) ** row.e
        assert row.consistent == (row.sign_closed == row.sign_oracle and restated), row
    sz = [row for row in rows if row.recipe == "SZ"]
    failed = [row for row in sz if not row.consistent]
    assert failed == [row for row in sz if row.e % 2 == 0]
    assert len(failed) == 190
