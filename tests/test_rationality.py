"""Oracles for fields of character values.

The exponent-level stabilizer is cross-checked on small groups by the
value-level Galois action: a unit j fixes the character iff applying
zeta -> zeta^j to every single character value returns the same vector.
character_field keeps the stabilizer's image H_L in (Z/L)^x; the
literal scan of Z/M (literal_stabilizer), reduced mod L, must equal it,
with |scan| = |H_L| * phi(M)/phi(L), and the scan's degree and realness
must equal the field's, on every irrep of every small group and on
large sign-query models. Realness must coincide with a nonvanishing
Frobenius-Schur indicator.
"""

from __future__ import annotations

from math import gcd, lcm

import pytest

from tamesigns.cyclotomic import cyc_galois, euler_phi
from tamesigns.division import (
    TameCharacter,
    division_model,
    enumerate_level1_selfdual,
)
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.metacyclic import (
    elements,
    enumerate_irreps,
    fs_indicator,
    induced_character,
    make_group,
    make_subgroup_character,
    orbit_of,
)
from tamesigns.rationality import CharacterField, character_field

SMALL_GROUPS = [(3, 4, 2), (15, 8, 2), (1, 4, 0), (5, 2, 4), (16, 4, 3), (9, 6, 2)]


def literal_stabilizer(G, psi) -> tuple[int, ...]:
    """Every unit j of Z/M, in order, with j*a in orbit(a) and j*c = c mod N/f."""
    f, a, c = psi.f, psi.a, psi.c
    Nf = G.N // f
    M = lcm(G.m, Nf)
    orbit = set(orbit_of(a, G.s, G.m))
    return tuple(
        j
        for j in range(M)
        if gcd(j, M) == 1
        and (j * a) % G.m in orbit
        and (j * c) % Nf == c % Nf
    )


def exponent_level_real(G, psi) -> bool:
    """Whether -a lies in the orbit of a and -c = c mod N/f."""
    Nf = G.N // psi.f
    return (-psi.a) % G.m in set(orbit_of(psi.a, G.s, G.m)) and (
        (-psi.c) % Nf == psi.c % Nf
    )


def assert_matches_literal_scan(G, psi, field) -> None:
    # the scan of (Z/M)^x is the full preimage of H_L, and gives the
    # same degree and realness
    M, L = field.conductor, field.modulus
    scan = literal_stabilizer(G, psi)
    assert M == lcm(G.m, G.N // psi.f) and M % L == 0, (G, psi)
    assert field.stabilizer == tuple(sorted({j % L for j in scan})), (G, psi)
    assert len(scan) == len(field.stabilizer) * euler_phi(M) // euler_phi(L)
    assert field.degree == euler_phi(M) // len(scan), (G, psi)
    assert field.is_real == ((-1) % M in scan), (G, psi)


def galois_fixes_all_values(G, psi, j) -> bool:
    return all(
        cyc_galois(v, j) == v
        for v in (induced_character(G, psi, g) for g in elements(G))
    )


@pytest.mark.parametrize("m,N,s", SMALL_GROUPS)
def test_stabilizer_matches_value_level_action(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        field = character_field(G, psi)
        M = field.conductor
        stab = set(field.stabilizer)
        for j in range(M):
            if gcd(j, M) != 1:
                continue
            fixed = galois_fixes_all_values(G, psi, j)
            assert (j % field.modulus in stab) == fixed, (psi, j)


def test_stabilizer_matches_literal_scan_on_every_small_group():
    checked = 0
    for m in range(1, 30):
        for N in range(1, 9):
            for s in range(m):
                if pow(s, N, m) != 1 % m:
                    continue
                G = make_group(m, N, s)
                for psi in enumerate_irreps(G):
                    assert_matches_literal_scan(G, psi, character_field(G, psi))
                    checked += 1
    assert checked == 24648


@pytest.mark.parametrize(
    "side,q,n,f,a",
    [
        ("division", 3, 12, 6, 26),
        ("weil", 5, None, 8, 624),
        ("division", 9, 6, 3, 1),
    ],
)
def test_stabilizer_matches_literal_scan_on_large_models(side, q, n, f, a):
    for w in (1, -1):
        chi = TameCharacter(q, f, a, w)
        psi = division_model(n if side == "division" else f, chi)
        G = psi.group
        field = character_field(G, psi)
        assert field.conductor > 390_000
        assert_matches_literal_scan(G, psi, field)


def test_field_of_a_large_conductor_reads_at_most_n_residues():
    # M = 9,840,768 is under MAX_SIGN_CONDUCTOR, but phi(M) units are
    # far too many to list: the field is read in (Z/L)^x
    chi = TameCharacter(3137, 2, 3280256, 1)
    psi = division_model(2, chi)
    G = psi.group
    field = character_field(G, psi)
    assert (field.conductor, field.degree, field.is_real) == (9_840_768, 1, True)
    assert len(field.stabilizer) <= G.N
    assert field.modulus == 3  # m/gcd(a, m) = 3138/1046


@pytest.mark.parametrize("m,N,s", SMALL_GROUPS)
def test_degree_times_stabilizer_is_phi(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        field = character_field(G, psi)
        assert field.degree * len(field.stabilizer) == euler_phi(field.modulus)


@pytest.mark.parametrize("m,N,s", SMALL_GROUPS)
def test_real_iff_indicator_nonzero(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        real = exponent_level_real(G, psi)
        assert real == (fs_indicator(G, psi) != 0), psi
        assert real == character_field(G, psi).is_real, psi


def test_field_examples():
    G = make_group(3, 4, 2)
    # trivial character: rational
    triv = character_field(G, make_subgroup_character(G, 1, 0, 0))
    assert triv.degree == 1
    # the faithful character of the C_4 quotient has values in Q(i)
    quarter = character_field(G, make_subgroup_character(G, 1, 0, 1))
    assert quarter.conductor == 12
    assert quarter.degree == 2
    assert not quarter.is_real
    # both 2-dim characters take rational values (orbit of 1 is {1, 2})
    for c in (0, 1):
        two_dim = character_field(G, make_subgroup_character(G, 2, 1, c))
        assert two_dim.degree == 1, c


def test_field_of_division_models():
    # sign data of self-dual models must live in a real (degree <= 2
    # over the rationals at the torus part) piece: realness holds
    for q, n in [(2, 2), (2, 4), (3, 2)]:
        for entry in enumerate_level1_selfdual(q, n):
            psi = division_model(n, entry.chi)
            G = psi.group
            assert exponent_level_real(G, psi)
            field = character_field(G, psi)
            assert field.is_real


def test_stabilizer_size_must_divide_phi(monkeypatch):
    # the 2-dimensional (2, 1, 0) of C_3 x| C_4 is fixed by both units
    # of Z/L, L = 3
    G = make_group(3, 4, 2)
    psi = make_subgroup_character(G, 2, 1, 0)
    field = character_field(G, psi)
    assert (field.modulus, field.stabilizer) == (3, (1, 2))
    monkeypatch.setattr("tamesigns.rationality.euler_phi", lambda M: 3)
    with pytest.raises(InternalConsistencyError, match="does not divide") as info:
        character_field(G, psi)
    # the message carries what reruns it: psi and the group
    assert str(info.value) == (
        "stabilizer size 2 does not divide phi(3) = 3 for "
        "psi=SubgroupCharacter(f=2, a=1, c=0) on MetacyclicGroup(m=3, N=4, s=2)"
    )


def test_requires_irreducible():
    G = make_group(3, 4, 2)
    red = make_subgroup_character(G, 2, 0, 0)
    with pytest.raises(UsageError):
        character_field(G, red)


def test_character_field_dataclass_shape():
    G = make_group(1, 4, 0)
    field = character_field(G, make_subgroup_character(G, 1, 0, 1))
    assert isinstance(field, CharacterField)
    assert field.conductor == 4
    assert field.modulus == 4
    assert field.stabilizer == (1,)
    assert field.degree == 2
