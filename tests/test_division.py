"""Oracles for the division-algebra side.

Frozen values: the degree-4 model over q=2 lands in C_15 x| C_8 with
inducing datum (2, 5, c) and scalar -1 at t^2 for w = -1; enumeration
over (q=2, n=2) yields exactly two entries with signs +1 and -1. The
closed-form sign (w) is compared against the independent finite-model
Frobenius-Schur oracle on every enumerated entry.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import tamesigns.division
import tamesigns.metacyclic
from tamesigns.cyclotomic import cyc_integer, cyc_zero
from tamesigns.cyclotomic import divisors, factorize
from tamesigns.division import (
    SelfdualEntry,
    TameCharacter,
    checked_sign,
    division_model,
    enumerate_level1_selfdual,
    is_division_model,
    is_prime_power,
    is_regular,
    is_selfdual_division,
    prime_power_base,
    selfdual_row_count,
    selfdual_rows_at_degree,
    sign_division_closed_form,
    sign_division_oracle,
)
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.metacyclic import (
    GroupElem,
    Irrep,
    SubgroupCharacter,
    enumerate_irreps,
    fs_indicator,
    is_irreducible_induced,
    make_group,
    matrix_of,
    orbit_of,
    orbit_partition,
)


def test_prime_power_base():
    assert prime_power_base(2) == (2, 1)
    assert prime_power_base(4) == (2, 2)
    assert prime_power_base(9) == (3, 2)
    assert prime_power_base(7) == (7, 1)
    with pytest.raises(UsageError, match=r"2 \* 3"):
        prime_power_base(6)
    with pytest.raises(UsageError):
        prime_power_base(1)
    assert [q for q in range(-2, 33) if is_prime_power(q)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    ]
    # agrees with the full factorization
    for q in range(2, 3000):
        assert is_prime_power(q) == (len(factorize(q)) == 1), q


def test_tame_character_validation():
    TameCharacter(2, 2, 1, 1)
    with pytest.raises(UsageError):
        TameCharacter(12, 2, 1, 1)
    with pytest.raises(UsageError):
        TameCharacter(2, 2, 3, 1)  # a out of range mod 3
    with pytest.raises(UsageError):
        TameCharacter(2, 2, 1, 2)  # w not a sign
    with pytest.raises(UsageError):
        TameCharacter(2, 0, 0, 1)


def test_regularity():
    # regularity is checked when the datum is built, also by replace()
    assert is_regular(TameCharacter(2, 2, 1, 1))
    assert is_regular(TameCharacter(2, 1, 0, 1))
    for q, f, a in [(2, 2, 0), (2, 4, 5), (3, 2, 4)]:  # orbits {0}, {5, 10}, {4}
        with pytest.raises(UsageError, match="not regular"):
            TameCharacter(q, f, a, 1)
    with pytest.raises(UsageError, match="not regular"):
        dataclasses.replace(TameCharacter(2, 4, 3, 1), a=5)


def test_tame_character_repr_eq_hash_leave_out_torus_order():
    # exit-1 and exit-2 messages print {chi}: its text is pinned
    chi = TameCharacter(2, 4, 3, -1)
    assert repr(chi) == str(chi) == "TameCharacter(q=2, f=4, a=3, w=-1)"
    assert chi.torus_order == 15
    twin = TameCharacter(2, 4, 3, -1)
    assert twin == chi and hash(twin) == hash(chi)
    flipped = dataclasses.replace(chi, w=-chi.w)
    assert flipped == TameCharacter(2, 4, 3, 1) and flipped.torus_order == 15
    wider = dataclasses.replace(TameCharacter(2, 2, 1, 1), f=4, a=3)
    assert wider.torus_order == 15
    with pytest.raises(TypeError):
        TameCharacter(2, 4, 3, -1, 15)


def test_selfduality_condition():
    assert is_selfdual_division(TameCharacter(2, 2, 1, 1))
    assert is_selfdual_division(TameCharacter(2, 4, 3, 1))
    assert not is_selfdual_division(TameCharacter(2, 4, 1, 1))
    assert not is_selfdual_division(TameCharacter(2, 3, 1, 1))  # f odd
    # f = 1: exactly the quadratic characters, 2a = 0 (mod q - 1)
    for q in (2, 3, 4, 5, 7, 9):
        for a in range(max(q - 1, 1)):
            for w in (1, -1):
                chi = TameCharacter(q, 1, a, w)
                assert is_selfdual_division(chi) == (2 * a % (q - 1) == 0), chi
    assert is_selfdual_division(TameCharacter(2, 1, 0, 1))
    assert is_selfdual_division(TameCharacter(5, 1, 2, -1))
    assert not is_selfdual_division(TameCharacter(5, 1, 1, 1))
    with pytest.raises(UsageError, match="not regular"):
        TameCharacter(2, 2, 0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("f", [2, 4])
def test_selfduality_equivalent_to_divisibility(q, f):
    # For regular characters: a*(q^d + 1) = 0 mod q^f - 1 iff (q^d - 1) | a.
    d = f // 2
    order = q**f - 1
    for a in range(order):
        if len(orbit_of(a, q, order)) != f:
            with pytest.raises(UsageError, match="not regular"):
                TameCharacter(q, f, a, 1)
            continue
        chi = TameCharacter(q, f, a, 1)
        assert is_selfdual_division(chi) == (a % (q**d - 1) == 0), a


def _selfdual_by_the_rule(q, f, a):
    # the rule as stated: 2a = 0 (mod q - 1) at f = 1, (q^(f/2) - 1) | a
    # at even f, never at odd f > 1
    if f == 1:
        return 2 * a % (q - 1) == 0
    return f % 2 == 0 and a % (q ** (f // 2) - 1) == 0


def _checked_exponents(q, f):
    # every a where q^f - 1 < 20,000; above that, at (q, f) = (7, 6),
    # (8, 5), (8, 6), (9, 5) and (9, 6), every multiple of q^(f/2) - 1,
    # which holds all the self-dual exponents, and every a below 2,000
    order = q**f - 1
    if order < 20_000:
        return range(order)
    step = q ** (f // 2) - 1 if f % 2 == 0 else order
    return sorted(set(range(2_000)) | set(range(0, order, step)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_stored_selfduality_is_the_rule(q):
    # decided once when the datum is built, for both w alike
    for f in range(1, 7):
        order = q**f - 1
        for a in _checked_exponents(q, f):
            if len(orbit_of(a, q, max(order, 1))) != f:
                continue
            expected = _selfdual_by_the_rule(q, f, a)
            for w in (1, -1):
                chi = TameCharacter(q, f, a, w)
                assert chi.selfdual is expected, chi
                assert is_selfdual_division(chi) is expected, chi


def test_replace_decides_selfduality_anew():
    chi = TameCharacter(2, 4, 3, 1)
    assert is_selfdual_division(chi)
    moved = dataclasses.replace(chi, a=1)
    assert not moved.selfdual and not is_selfdual_division(moved)
    back = dataclasses.replace(moved, a=3)
    assert back.selfdual and is_selfdual_division(back)
    assert is_selfdual_division(dataclasses.replace(chi, w=-1))
    # a new degree decides it again: (2, 2, 1) and (2, 4, 3) are self-dual,
    # (2, 3, 1) is not, whatever the datum it was replaced from
    assert not is_selfdual_division(dataclasses.replace(chi, f=3, a=1))
    wider = dataclasses.replace(TameCharacter(2, 2, 1, 1), f=4, a=3)
    assert is_selfdual_division(wider)
    assert is_selfdual_division(dataclasses.replace(wider, f=2, a=1))
    # derived, so never passed to the constructor or to replace
    with pytest.raises(ValueError):
        dataclasses.replace(chi, selfdual=False)
    assert repr(chi) == "TameCharacter(q=2, f=4, a=3, w=1)"


def test_twin_carries_the_decision():
    # the w = -1 twin of a datum is copied, not built: it keeps the value
    # decided for (q, f, a), self-dual or not
    for chi in (TameCharacter(2, 4, 3, 1), TameCharacter(2, 4, 1, 1),
                TameCharacter(5, 1, 2, 1), TameCharacter(5, 1, 1, 1)):
        twin = tamesigns.division._with_sign(chi, -1)
        assert twin.w == -1 and twin.selfdual is chi.selfdual
        assert is_selfdual_division(twin) is _selfdual_by_the_rule(
            chi.q, chi.f, chi.a
        )


def test_division_model_frozen_example():
    chi = TameCharacter(2, 2, 1, -1)
    psi = division_model(4, chi)
    G = psi.group
    assert (G.m, G.N, G.s) == (15, 8, 2)
    assert type(psi) is Irrep and psi == (2, 5, 2, G)
    assert is_irreducible_induced(G, psi)
    # the t^2 scalar realizes w = -1
    minus, zero = cyc_integer(-1, 60), cyc_zero(60)
    assert matrix_of(G, psi, GroupElem(0, 2)) == [[minus, zero], [zero, minus]]
    chi_plus = TameCharacter(2, 2, 1, 1)
    psi_plus = division_model(4, chi_plus)
    assert type(psi_plus) is Irrep and psi_plus == (2, 5, 0, G)


def test_division_model_is_the_scans_irrep(monkeypatch):
    # every entry's model, built alone, is the Irrep the scan built for it,
    # bound to the cell's shared group
    real = tamesigns.division.fs_indicator
    scanned = []
    monkeypatch.setattr(
        tamesigns.division,
        "fs_indicator",
        lambda G, psi: scanned.append((G, psi)) or real(G, psi),
    )
    total = 0
    for q in filter(is_prime_power, range(2, 10)):
        for n in range(2, 9):
            scanned.clear()
            entries = enumerate_level1_selfdual(q, n)
            assert len(scanned) == len(entries)
            for entry, (G, psi) in zip(entries, scanned):
                model = division_model(n, entry.chi)
                assert type(model) is Irrep and model == psi, entry
                assert model.group is G and entry.model.group is G, entry
            total += len(entries)
    assert total == 4478


def test_division_model_validation():
    chi = TameCharacter(2, 2, 1, 1)
    with pytest.raises(UsageError):
        division_model(3, chi)  # f does not divide n
    with pytest.raises(UsageError) as info:
        division_model(0, chi)
    assert str(info.value) == "n must be >= 1, got 0"
    with pytest.raises(UsageError, match="not regular"):
        TameCharacter(2, 2, 0, 1)  # so no model is ever built for it


@pytest.mark.parametrize("q,n", [(2, 4), (2, 6), (3, 4), (5, 2)])
def test_is_division_model_is_equality_with_the_model(monkeypatch, q, n):
    # every regular datum with f | n, against every irrep of the model
    # group of each degree k | n (the cell's at k = n, a Weil parameter's
    # at k = f): the predicate is equality with division_model(k, chi)
    chis = [
        TameCharacter(q, f, a, w)
        for f in divisors(n)
        for a in range(q**f - 1)
        if len(orbit_of(a, q, q**f - 1)) == f
        for w in (1, -1)
    ]
    cases = []
    for k in divisors(n):
        psis = enumerate_irreps(make_group(q**k - 1, 2 * k, q))
        for chi in chis:
            model = division_model(k, chi) if k % chi.f == 0 else None
            cases += [(psi, k, chi, psi == model) for psi in psis]
            if model is not None:
                # enumerate_irreps takes each orbit's least a, and a model's
                # a need not be least: the model itself, and its bare datum
                cases.append((model, k, chi, True))
                cases.append((SubgroupCharacter(*model[:3]), k, chi, False))

    def refuse(*args):
        raise AssertionError("is_division_model built a group or a model")

    # and it builds nothing
    for module in (tamesigns.division, tamesigns.metacyclic):
        monkeypatch.setattr(module, "make_group", refuse)
        monkeypatch.setattr(module, "orbit_irreps", refuse)
    wrong = [case for case in cases if is_division_model(*case[:3]) != case[3]]
    assert wrong == []


def test_closed_form_and_oracle_signs():
    chi_plus = TameCharacter(2, 2, 1, 1)
    chi_minus = TameCharacter(2, 2, 1, -1)
    assert sign_division_closed_form(chi_plus) == 1
    assert sign_division_closed_form(chi_minus) == -1
    assert sign_division_oracle(4, chi_plus) == 1
    assert sign_division_oracle(4, chi_minus) == -1
    assert sign_division_oracle(2, chi_plus) == 1
    with pytest.raises(UsageError):
        sign_division_closed_form(TameCharacter(2, 4, 1, 1))
    with pytest.raises(UsageError) as info:
        sign_division_oracle(4, TameCharacter(2, 4, 1, 1))
    assert str(info.value) == (
        "oracle sign needs a self-dual datum, got "
        "TameCharacter(q=2, f=4, a=1, w=1)"
    )


def test_vanishing_oracle_indicator_names_its_model(monkeypatch):
    monkeypatch.setattr(tamesigns.division, "fs_indicator", lambda G, psi: 0)
    with pytest.raises(InternalConsistencyError) as info:
        sign_division_oracle(4, TameCharacter(2, 2, 1, -1))
    # n, psi and G are all in the text, so the failure can be rerun from it
    assert str(info.value) == (
        "model of self-dual datum TameCharacter(q=2, f=2, a=1, w=-1) at n=4 "
        "has vanishing indicator: psi=Irrep(f=2, a=5, c=2, "
        "group=MetacyclicGroup(m=15, N=8, s=2))"
    )


def test_checked_sign_refuses_a_model_without_its_group():
    # a model is an Irrep, which carries its group; a bare
    # SubgroupCharacter has none to read
    chi = TameCharacter(2, 2, 1, -1)
    assert checked_sign(chi, division_model(4, chi)) == -1
    with pytest.raises(UsageError) as info:
        checked_sign(chi, SubgroupCharacter(2, 1, 1))
    assert str(info.value) == (
        "checked_sign needs a model Irrep, got "
        "psi=SubgroupCharacter(f=2, a=1, c=1)"
    )


def test_enumerate_smallest_case():
    entries = enumerate_level1_selfdual(2, 2)
    assert len(entries) == 2
    assert [e.chi for e in entries] == [
        TameCharacter(2, 2, 1, 1),
        TameCharacter(2, 2, 1, -1),
    ]
    assert [e.sign for e in entries] == [1, -1]
    assert [fs_indicator(e.model.group, e.model) for e in entries] == [1, -1]


def test_enumerate_degree_four():
    entries = enumerate_level1_selfdual(2, 4)
    assert [(e.chi.f, e.chi.a, e.chi.w) for e in entries] == [
        (2, 1, 1),
        (2, 1, -1),
        (4, 3, 1),
        (4, 3, -1),
    ]
    for e in entries:
        assert e.sign == fs_indicator(e.model.group, e.model) == e.chi.w


@pytest.mark.parametrize(
    "q,expected_orbits", [(2, 1), (3, 1), (4, 2), (5, 2), (7, 3), (8, 4), (9, 4)]
)
def test_enumerate_orbit_count_degree_two(q, expected_orbits):
    # f = 2: self-dual orbits number q/2 (q even) or (q-1)/2 (q odd).
    entries = enumerate_level1_selfdual(q, 2)
    assert len(entries) == 2 * expected_orbits
    assert all(e.chi.f == 2 for e in entries)


def test_enumerate_ordering_and_uniqueness():
    entries = enumerate_level1_selfdual(3, 4)
    keys = [(e.chi.f, e.chi.a, -e.chi.w) for e in entries]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for e in entries:
        assert is_regular(e.chi) and is_selfdual_division(e.chi)
        orbit_min = min(
            _orbit_of(e.chi.a, e.chi.q, e.chi.torus_order)
        )
        assert e.chi.a == orbit_min


def _orbit_of(a, q, order):
    out = [a]
    cur = (a * q) % order
    while cur != a:
        out.append(cur)
        cur = (cur * q) % order
    return out


def test_enumerate_odd_degree_is_empty():
    assert enumerate_level1_selfdual(2, 3) == []
    assert enumerate_level1_selfdual(5, 1) == []
    with pytest.raises(UsageError) as info:
        enumerate_level1_selfdual(2, 0)
    assert str(info.value) == "n must be >= 1, got 0"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_enumerated_datum_matches_a_built_one(q):
    # the w = -1 datum of each orbit is copied from the w = +1 one, not
    # built: it must be indistinguishable from a TameCharacter built fresh
    for n in range(1, 9):
        for entry in enumerate_level1_selfdual(q, n):
            chi = entry.chi
            built = TameCharacter(q, chi.f, chi.a, chi.w)
            assert type(chi) is TameCharacter
            assert chi == built and hash(chi) == hash(built), chi
            assert repr(chi) == repr(built)
            assert chi.torus_order == built.torus_order
            assert chi.selfdual and built.selfdual
            assert vars(chi) == vars(built)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_row_count_matches_enumeration(q):
    for n in range(1, 7):
        entries = enumerate_level1_selfdual(q, n)
        assert selfdual_row_count(q, n) == len(entries)
        for f in divisors(n):
            at_f = sum(entry.chi.f == f for entry in entries)
            assert selfdual_rows_at_degree(q, f) == at_f, (n, f)
    assert selfdual_row_count(2, 4) == 4  # the README's enumerate example


def test_nonzero_indicators_are_the_enumerated_data():
    # a second route to the row count that does not read the rule: on
    # every cell with q <= 9 a prime power and q^n <= 10^4, the regular
    # data (f, a, w), f | n, a an orbit minimum, whose model
    # division_model(n, chi) has a nonzero FS indicator are exactly the
    # enumerated data at f >= 2, and the quadratic characters at f = 1
    # (2a = 0 mod q - 1), which the enumeration does not list yet
    cells = [
        (q, n) for q in range(2, 10) if is_prime_power(q)
        for n in range(1, 14) if q**n <= 10**4
    ]
    data = 0
    for q, n in cells:
        nonzero = set()
        for f in divisors(n):
            for a in orbit_partition(q, q**f - 1).get(f, []):
                for w in (1, -1):
                    data += 1
                    psi = division_model(n, TameCharacter(q, f, a, w))
                    if fs_indicator(psi.group, psi) != 0:
                        nonzero.add((f, a, w))
        listed = {(e.chi.f, e.chi.a, e.chi.w) for e in enumerate_level1_selfdual(q, n)}
        quadratic = {
            (1, a, w) for a in range(max(q - 1, 1)) if 2 * a % (q - 1) == 0
            for w in (1, -1)
        }
        assert {d for d in nonzero if d[0] >= 2} == listed, (q, n)
        assert {d for d in nonzero if d[0] == 1} == quadratic, (q, n)
    assert (len(cells), data) == (44, 17_280)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (3, 2), (3, 4), (4, 2), (5, 2)])
def test_dual_routes_agree_on_small_ranges(q, n):
    firsts = {}
    for e in enumerate_level1_selfdual(q, n):
        psi = division_model(n, e.chi)
        G = psi.group
        assert e.sign == fs_indicator(G, psi), e
        assert is_irreducible_induced(G, psi)
        firsts.setdefault(e.chi.f, e.chi)
    # each f block opens with the canonical datum a = q^(f/2) - 1, w = +1
    assert firsts == {
        f: TameCharacter(q, f, q ** (f // 2) - 1, 1)
        for f in range(2, n + 1, 2)
        if n % f == 0
    }


def test_selfdual_entry_is_a_plain_tuple():
    chi = TameCharacter(2, 2, 1, -1)
    psi = division_model(2, chi)
    entry = SelfdualEntry(chi, -1, psi)
    assert SelfdualEntry._fields == ("chi", "sign", "model")
    assert isinstance(entry, tuple) and len(entry) == 3
    assert (entry.chi, entry.sign, entry.model) == (chi, -1, psi)
    assert SelfdualEntry(chi=chi, sign=-1, model=psi) == entry
    got_chi, sign, model = entry
    assert (got_chi, sign, model) == (chi, -1, psi)
    # equality is tuple equality, with no type check
    assert entry == (chi, -1, psi) and hash(entry) == hash((chi, -1, psi))
    assert entry != SelfdualEntry(chi, 1, psi)
    listed = enumerate_level1_selfdual(2, 2)
    assert all(type(e) is SelfdualEntry for e in listed)
    chi_plus = TameCharacter(2, 2, 1, 1)
    assert listed == [
        (chi_plus, 1, division_model(2, chi_plus)),
        (chi, -1, psi),
    ]


def _min_of_orbit_scan(q, n):
    # the scan as it stood before one walk per orbit: every nonzero
    # multiple of q^d - 1 walks its own orbit and keeps it if minimal
    entries = []
    for f in divisors(n):
        if f % 2 != 0:
            continue
        d = f // 2
        order = q**f - 1
        step = q**d - 1
        for k in range(q**d + 1):
            a = step * k
            if a == 0:
                continue
            orbit = orbit_of(a, q, order)
            if len(orbit) != f or min(orbit) < a:
                continue
            for w in (1, -1):
                chi = TameCharacter(q, f, a, w)
                closed = sign_division_closed_form(chi)
                assert sign_division_oracle(n, chi) == closed, chi
                model = division_model(n, chi)
                entries.append(SelfdualEntry(chi, closed, model))
    return entries


@pytest.mark.parametrize("q", [q for q in range(2, 17) if is_prime_power(q)])
def test_one_walk_scan_matches_min_of_orbit_scan(q):
    for n in range(1, 9):
        got, want = enumerate_level1_selfdual(q, n), _min_of_orbit_scan(q, n)
        assert got == want, n


def _orbit_partition_size(q, n):
    # orbits of k -> q*k on Z/(q^(f/2) + 1) over even f | n, counted by
    # removing whole orbits from a set
    count = 0
    for f in range(2, n + 1, 2):
        if n % f:
            continue
        m = q ** (f // 2) + 1
        left = set(range(m))
        while left:
            k = left.pop()
            left -= {k * q**i % m for i in range(f)}
            count += 1
    return count


def test_scan_walks_each_orbit_once(monkeypatch, fresh_groups):
    real = tamesigns.metacyclic._orbit_walk
    scan_walks, check_walks = [], []

    def counted(a, s, m):
        # every orbit walk, orbit_of's included, is this one: the scan's
        # partition walks, and so does the irreducibility check
        caller = sys._getframe(1).f_code.co_name
        if caller == "orbit_partition":
            scan_walks.append((a, m))
        elif (caller, sys._getframe(2).f_code.co_name) == (
            "orbit_of", "is_irreducible_induced"
        ):
            check_walks.append((a, m))
        return real(a, s, m)

    monkeypatch.setattr(tamesigns.metacyclic, "_orbit_walk", counted)
    entries = enumerate_level1_selfdual(3, 4)
    assert len(entries) == 2 * 1 + 2 * 2
    # Z/4 under 3: {0}, {1, 3}, {2}; Z/10 under 3: {0}, {1, 3, 9, 7},
    # {2, 6, 8, 4}, {5}
    assert _orbit_partition_size(3, 4) == 3 + 4
    assert scan_walks == [(0, 4), (1, 4), (2, 4), (0, 10), (1, 10), (2, 10), (5, 10)]
    # one check per kept orbit, on the model exponent mod 3^4 - 1 = 80:
    # f = 2, k = 1 gives a = 2 and 2 * 80/8 = 20; f = 4 gives a = 8, 16
    assert check_walks == [(20, 80), (8, 80), (16, 80)]


def test_scan_checks_irreducibility_once_per_class(monkeypatch, fresh_groups):
    real = tamesigns.metacyclic.is_irreducible_induced
    checks = []
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "is_irreducible_induced",
        lambda G, psi: checks.append((psi.f, psi.a)) or real(G, psi),
    )
    entries = enumerate_level1_selfdual(4, 4)
    # 6 orbits on the model C_255 x| C_8: f = 2 has model exponents 51,
    # 102 (class d = 255/51 = 5); f = 4 has 15, 30, 45, 90 (d = 17)
    assert sorted({(e.chi.f, e.chi.a) for e in entries}) == [
        (2, 3), (2, 6), (4, 15), (4, 30), (4, 45), (4, 90),
    ]
    assert checks == [(2, 51), (4, 15)]
    # the classes are kept on the shared model group: the next call
    # checks none of them, and a fresh group checks them again
    enumerate_level1_selfdual(4, 4)
    assert checks == [(2, 51), (4, 15)]
    tamesigns.metacyclic.make_group.cache_clear()
    enumerate_level1_selfdual(4, 4)
    assert checks == [(2, 51), (4, 15)] * 2


def test_a_cell_with_no_even_f_builds_no_model_group(fresh_groups):
    # every f | 1023 is odd, so no f needs C_{q^1023 - 1} x| C_2046, whose
    # two power tables of 2,046 ints of about 16k bits each make_group's
    # unbounded cache would otherwise keep
    assert enumerate_level1_selfdual(65521, 1023) == []
    assert tamesigns.metacyclic.make_group.cache_info().currsize == 0
    # an even n builds its one model group at its first even f
    enumerate_level1_selfdual(3, 4)
    info = tamesigns.metacyclic.make_group.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_scan_catches_a_route_broken_after_a_good_call(monkeypatch, fresh_groups):
    assert len(enumerate_level1_selfdual(4, 4)) == 12
    # the good call's checked classes stay on its model group, so the
    # broken route is met on a fresh one
    tamesigns.metacyclic.make_group.cache_clear()
    # an orbit route that reports one element too many on the model's
    # Z/255; the scan's partitions of Z/5 and Z/17 stay intact
    real_orbit_of = tamesigns.metacyclic.orbit_of
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "orbit_of",
        lambda a, s, m: real_orbit_of(a, s, m) + ([a] if m == 255 else []),
    )
    with pytest.raises(InternalConsistencyError) as info:
        enumerate_level1_selfdual(4, 4)
    assert str(info.value) == (
        "norm route and orbit route disagree for "
        "psi=SubgroupCharacter(f=2, a=51, c=0) on "
        "MetacyclicGroup(m=255, N=8, s=4): "
        "norm sum 2040 vs |G| = 2040, orbit size 3 vs f = 2"
    )
