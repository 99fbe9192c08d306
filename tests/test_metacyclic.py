"""Oracles for the metacyclic engine.

Every collapsed sum in the engine (Frobenius-Schur, norm, invariant form
projection, involution count, determinant) is recomputed here by literal
element-by-element iteration with exact cyclotomic arithmetic, on groups
small enough to brute-force. Known classical values (dihedral groups are
totally orthogonal, the faithful dicyclic characters are symplectic) pin
the sign conventions from outside.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tamesigns
import tamesigns.metacyclic
from tamesigns.cyclotomic import (
    CycInt,
    cyc_add,
    cyc_embed,
    cyc_integer,
    cyc_mul,
    cyc_neg,
    cyc_root,
    cyc_scale,
    cyc_zero,
    root_sum,
    try_as_integer,
)
from tamesigns.division import division_model, enumerate_level1_selfdual
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.metacyclic import (
    GroupElem,
    Irrep,
    MetacyclicGroup,
    SubgroupCharacter,
    det_exponents,
    elem_inv,
    elem_mul,
    elements,
    enumerate_irreps,
    fs_indicator,
    fs_indicator_raw,
    identity_involution,
    induced_character,
    involution_count,
    is_irreducible_induced,
    make_group,
    make_subgroup_character,
    matrix_of,
    orbit_irreps,
    orbit_of,
    orbit_partition,
    theta_sign,
)
from tamesigns.rationality import character_field
from tamesigns.signs import verify_flip

# (m, N, s) triples that are small enough for literal sums.
BATTERY = [
    (1, 4, 0),
    (3, 4, 2),
    (4, 2, 1),
    (5, 2, 4),
    (7, 2, 6),
    (8, 2, 7),
    (9, 6, 2),
    (12, 2, 11),
    (15, 8, 2),
    (16, 4, 3),
    (20, 4, 3),
]

ENGINE_GROUPS_UP_TO_7000 = [
    (q**n - 1, 2 * n, q)
    for q in (2, 3, 4, 5, 7, 8, 9)
    for n in (2, 4, 6)
    if q**n - 1 <= 7_000
]


def char_conductor(G, psi):
    return lcm(G.m, G.N // psi.f)


# ---------------------------------------------------------------------------
# group law


def test_group_law_examples():
    G = make_group(3, 4, 2)
    x = GroupElem(1, 0)
    t = GroupElem(0, 1)
    assert elem_mul(G, t, x) == GroupElem(2, 1)  # t x = x^2 t
    assert elem_mul(G, x, t) == GroupElem(1, 1)
    assert elem_inv(G, GroupElem(1, 1)) == elem_inv_bruteforce(G, GroupElem(1, 1))


def elem_inv_bruteforce(G, g):
    for h in elements(G):
        if elem_mul(G, g, h) == GroupElem(0, 0) and elem_mul(G, h, g) == GroupElem(0, 0):
            return h
    raise AssertionError("no inverse found")


@pytest.mark.parametrize("m,N,s", [(15, 8, 2), (16, 4, 3), (9, 6, 2)])
def test_group_axioms_literal(m, N, s):
    G = make_group(m, N, s)
    els = list(elements(G))
    assert len(els) == G.order
    e = GroupElem(0, 0)
    sample = els[:: max(1, len(els) // 12)]
    for g in sample:
        assert elem_mul(G, g, e) == g
        assert elem_mul(G, e, g) == g
        assert elem_mul(G, g, elem_inv(G, g)) == e
        for h in sample:
            for k in sample[:4]:
                lhs = elem_mul(G, elem_mul(G, g, h), k)
                rhs = elem_mul(G, g, elem_mul(G, h, k))
                assert lhs == rhs


def test_invalid_group_rejected():
    with pytest.raises(UsageError):
        make_group(5, 2, 2)  # 2^2 = 4 != 1 mod 5
    with pytest.raises(UsageError):
        make_group(0, 2, 1)


def test_make_group_shares_one_group_per_triple():
    assert make_group(15, 8, 2) is make_group(15, 8, 2)
    # a refused triple is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(UsageError, match="s\\^N must be 1 mod m"):
            make_group(5, 2, 2)


def test_stored_fields_and_memos_are_derived_state():
    G = make_group(15, 8, 2)
    theta = identity_involution(G)
    for psi in enumerate_irreps(G):
        fs_indicator_raw(G, psi)
        theta_sign(G, theta, psi)
    assert G.fs_values and G.theta_shifts
    assert set(G.theta_shifts) == {(p.f, 15 // gcd(p.a, 15)) for p in enumerate_irreps(G)}
    twin = MetacyclicGroup(15, 8, 2)
    assert not twin.fs_values and not twin.theta_shifts
    assert twin == G and hash(twin) == hash(G)
    assert repr(twin) == repr(G) == "MetacyclicGroup(m=15, N=8, s=2)"
    assert G.order == G.m * G.N == twin.order == 120
    assert G.s_prefix == twin.s_prefix == (0, 1, 3, 7, 0, 1, 3, 7, 0)


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_a_directly_built_group_gives_its_shared_twins_signs(m, N, s):
    # twin's memos fill from its own Irreps and from G's, checked again;
    # the identity is valid on every group, so either group's serves both
    G, twin = make_group(m, N, s), MetacyclicGroup(m, N, s)
    theta, twin_theta = identity_involution(G), identity_involution(twin)
    for psi in enumerate_irreps(G):
        raw, sign = fs_indicator_raw(G, psi), theta_sign(G, theta, psi)
        assert theta_sign(G, twin_theta, psi) == sign, psi
        for other in (Irrep(psi.f, psi.a, psi.c, twin), psi):
            assert fs_indicator_raw(twin, other) == raw, psi
            assert theta_sign(twin, twin_theta, other) == sign, psi
            assert theta_sign(twin, theta, other) == sign, psi


def test_verify_flip_builds_each_model_group_once(monkeypatch):
    # at q = 3, n = 4 the rows need C_80 x| C_8 (both sides, f | 4) and
    # C_8 x| C_4 (the parameter side at f = 2), each built once
    built = []
    real = tamesigns.metacyclic.MetacyclicGroup.__post_init__

    def counted(G):
        real(G)
        built.append(G)

    monkeypatch.setattr(tamesigns.metacyclic.MetacyclicGroup, "__post_init__", counted)
    make_group.cache_clear()
    rows = verify_flip(3, 4, "both")
    assert rows
    assert sorted((G.m, G.N, G.s) for G in built) == [(8, 4, 3), (80, 8, 3)]


# ---------------------------------------------------------------------------
# irreducible enumeration


def test_irrep_census_dicyclic12():
    # C_3 x| C_4 with s = 2: four 1-dim and two 2-dim irreps.
    G = make_group(3, 4, 2)
    irr = enumerate_irreps(G)
    dims = sorted(psi.f for psi in irr)
    assert dims == [1, 1, 1, 1, 2, 2]
    assert sum(psi.f**2 for psi in irr) == G.order


def test_irrep_census_order120():
    G = make_group(15, 8, 2)
    irr = enumerate_irreps(G)
    assert sum(psi.f**2 for psi in irr) == 120
    by_dim: dict[int, int] = {}
    for psi in irr:
        by_dim[psi.f] = by_dim.get(psi.f, 0) + 1
    assert by_dim == {1: 8, 2: 4, 4: 6}


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_irreps_complete_and_irreducible(m, N, s):
    G = make_group(m, N, s)
    irr = enumerate_irreps(G)
    assert sum(psi.f**2 for psi in irr) == G.order
    assert len(set(irr)) == len(irr)
    assert irr == sorted(irr)  # by (f, a, c); built in order, never sorted
    for psi in irr:
        assert is_irreducible_induced(G, psi)
        assert psi.a == min(orbit_of(psi.a, G.s, G.m))


def _set_partition(s, m, span):
    # remove whole orbits {a s^j : j < span} from a set, least element
    # first (span a multiple of the order of s), and file each least
    # element under its orbit's size
    left, by_size = set(range(m)), {}
    while left:
        a = min(left)
        orbit = {a * pow(s, j, m) % m for j in range(span)}
        by_size.setdefault(len(orbit), []).append(a)
        left -= orbit
    return sorted(by_size.items())


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_orbit_partition_matches_a_set_partition(m, N, s):
    # sizes ascending, and the least elements of each size ascending
    assert list(orbit_partition(s, m).items()) == _set_partition(s, m, N)


def test_orbit_partition_matches_a_set_partition_for_every_unit(monkeypatch):
    # every unit s of every m <= 60, m = 1 (s = 0) and s = 1 among them;
    # the order of s divides phi(m) <= m
    for m in range(1, 61):
        for s in range(m + 1):
            if gcd(s, m) == 1:
                got = list(orbit_partition(s, m).items())
                assert got == _set_partition(s, m, m), (m, s)
    assert orbit_partition(1, 4) == {1: [0, 1, 2, 3]}
    # a non-unit is refused before any table of Z/m is made, so a huge
    # m costs nothing
    def no_table(size):
        raise AssertionError(f"bytearray({size}) made before the unit check")

    monkeypatch.setattr(tamesigns.metacyclic, "bytearray", no_table, raising=False)
    with pytest.raises(UsageError) as info:
        orbit_partition(2, 10**12)
    assert str(info.value) == (
        f"s=2 is not a unit mod m={10**12}, so its orbits do not close"
    )


def _multiplicative_order(s, d):
    # least k >= 1 with s^k = 1 (mod d), by repeated multiplication
    k, x = 1, s % d
    while x != 1 % d:
        k, x = k + 1, x * s % d
    return k


@st.composite
def modulus_and_unit(draw):
    m = draw(st.integers(1, 3_000))
    s = draw(st.integers(0, m - 1).filter(lambda u: gcd(u, m) == 1))
    return m, s


@settings(max_examples=60, deadline=None)
@given(modulus_and_unit())
@example((1, 0))
@example((15, 2))
@example((2_997, 2_996))
def test_orbit_size_is_the_order_of_s_modulo_d(ms):
    # the fact enumerate_irreps checks by: the orbit of a under s has
    # the size of the order of s mod d = m/gcd(a, m), the same for
    # every a of the class d
    m, s = ms
    orbits = orbit_partition(s, m)
    assert sum(f * len(avals) for f, avals in orbits.items()) == m
    for f, a in ((f, a) for f, avals in orbits.items() for a in avals):
        d = m // gcd(a, m)
        orbit = orbit_of(a, s, m)
        assert len(orbit) == f == _multiplicative_order(s, d), (m, s, a)
        assert {m // gcd(b, m) for b in orbit} == {d}


def test_orbit_walk_refuses_a_non_unit_or_a_bad_modulus():
    # each call would walk forever (or fail on its own arithmetic) without
    # the unit check, so they run in a child with a timeout
    calls = [
        "orbit_partition(2, 4)",
        "orbit_of(1, 2, 4)",
        "orbit_of(3, 6, 9)",
        "orbit_partition(0, 5)",
        "orbit_partition(1, 0)",
        "orbit_of(0, 1, 0)",
        "orbit_of(1, 1, -3)",
        "orbit_partition(5, -7)",
    ]
    script = "\n".join(
        [
            "from tamesigns.errors import UsageError",
            "from tamesigns.metacyclic import orbit_of, orbit_partition",
            f"for call in {calls!r}:",
            "    try:",
            "        eval(call)",
            "    except UsageError as exc:",
            "        print(exc)",
            "    else:",
            "        print('returned')",
        ]
    )
    src_root = str(Path(tamesigns.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "s=2 is not a unit mod m=4, so its orbits do not close",
        "s=2 is not a unit mod m=4, so its orbits do not close",
        "s=6 is not a unit mod m=9, so its orbits do not close",
        "s=0 is not a unit mod m=5, so its orbits do not close",
        "need m >= 1, got m=0",
        "need m >= 1, got m=0",
        "need m >= 1, got m=-3",
        "need m >= 1, got m=-7",
    ]


def test_character_validation():
    G = make_group(3, 4, 2)
    with pytest.raises(UsageError):
        make_subgroup_character(G, 3, 0, 0)  # 3 does not divide N=4
    with pytest.raises(UsageError):
        make_subgroup_character(G, 1, 1, 0)  # a=1 not fixed by t
    with pytest.raises(UsageError):
        make_subgroup_character(G, 2, 1, 2)  # c out of range
    psi = make_subgroup_character(G, 2, 0, 0)  # valid but reducible
    assert not is_irreducible_induced(G, psi)
    with pytest.raises(UsageError):
        fs_indicator(G, psi)


def test_non_minimal_orbit_representative_gives_same_character():
    G = make_group(15, 8, 2)
    psi1 = make_subgroup_character(G, 4, 1, 1)
    psi2 = make_subgroup_character(G, 4, 2, 1)  # 2 is in the orbit of 1
    for g in [GroupElem(1, 0), GroupElem(7, 4), GroupElem(3, 0), GroupElem(0, 4)]:
        assert induced_character(G, psi1, g) == induced_character(G, psi2, g)


# ---------------------------------------------------------------------------
# induced character values


def test_induced_character_values_dicyclic12():
    G = make_group(3, 4, 2)
    psi = make_subgroup_character(G, 2, 1, 0)
    # at x: zeta_3 + zeta_3^2 = -1 (conductor lcm(3, 2) = 6)
    assert induced_character(G, psi, GroupElem(1, 0)) == cyc_integer(-1, 6)
    assert induced_character(G, psi, GroupElem(0, 0)) == cyc_integer(2, 6)
    assert not induced_character(G, psi, GroupElem(0, 1))
    assert not induced_character(G, psi, GroupElem(2, 3))
    assert induced_character(G, psi, GroupElem(0, 2)) == cyc_integer(2, 6)
    psi_sym = make_subgroup_character(G, 2, 1, 1)
    assert induced_character(G, psi_sym, GroupElem(0, 2)) == cyc_integer(-2, 6)


def literal_inner_product(G, psi1, psi2) -> tuple[int, CycInt]:
    # sum over g of chi1(g) * chi2(g^-1), embedded at a common conductor.
    M = lcm(char_conductor(G, psi1), char_conductor(G, psi2))
    total = cyc_zero(M)
    for g in elements(G):
        v1 = cyc_embed(induced_character(G, psi1, g), M)
        v2 = cyc_embed(induced_character(G, psi2, elem_inv(G, g)), M)
        total = cyc_add(total, cyc_mul(v1, v2))
    return M, total


@pytest.mark.parametrize("m,N,s", [(3, 4, 2), (9, 6, 2), (4, 2, 1)])
def test_orthogonality_literal(m, N, s):
    G = make_group(m, N, s)
    irr = enumerate_irreps(G)
    for p1 in irr:
        for p2 in irr:
            M, total = literal_inner_product(G, p1, p2)
            expected = G.order if p1 == p2 else 0
            assert total == cyc_integer(expected, M), (p1, p2)


@pytest.mark.parametrize("m,N,s", [(15, 8, 2), (16, 4, 3)])
def test_norm_literal(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        M, total = literal_inner_product(G, psi, psi)
        assert total == cyc_integer(G.order, M), psi


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators


def literal_fs_raw(G, psi) -> CycInt:
    M = char_conductor(G, psi)
    total = cyc_zero(M)
    for g in elements(G):
        total = cyc_add(total, cyc_embed(induced_character(G, psi, elem_mul(G, g, g)), M))
    return total


def test_fs_values_dicyclic12():
    # psi(t^2) = +1 gives the orthogonal 2-dim, psi(t^2) = -1 the
    # symplectic one; determinants at t swap the other way.
    G = make_group(3, 4, 2)
    psi_orth = make_subgroup_character(G, 2, 1, 0)
    psi_symp = make_subgroup_character(G, 2, 1, 1)
    assert fs_indicator(G, psi_orth) == 1
    assert fs_indicator(G, psi_symp) == -1
    _, det_t_orth = det_exponents(G, psi_orth)
    _, det_t_symp = det_exponents(G, psi_symp)
    assert cyc_root(*det_t_orth) == cyc_integer(-1, 2)
    assert cyc_root(*det_t_symp) == cyc_integer(1, 2)


def test_fs_values_cyclic_quotient():
    # m = 1: plain characters of C_4, indicators +1, 0, +1, 0.
    G = make_group(1, 4, 0)
    got = [fs_indicator(G, psi) for psi in enumerate_irreps(G)]
    assert got == [1, 0, 1, 0]


@pytest.mark.parametrize("m", [5, 7, 8, 12])
def test_dihedral_totally_orthogonal(m):
    # Dihedral groups: every irreducible has indicator +1.
    G = make_group(m, 2, m - 1)
    for psi in enumerate_irreps(G):
        assert fs_indicator(G, psi) == 1, psi


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_fs_literal_matches_collapsed(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        raw = fs_indicator_raw(G, psi)
        ind = fs_indicator(G, psi)
        M = char_conductor(G, psi)
        assert cyc_embed(raw, M) == literal_fs_raw(G, psi), psi
        assert cyc_embed(raw, M) == cyc_integer(G.order * ind, M), psi


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_fs_sum_rule(m, N, s):
    # sum over irreducibles of dim * indicator = #{g : g^2 = e}.
    G = make_group(m, N, s)
    total = sum(psi.f * fs_indicator(G, psi) for psi in enumerate_irreps(G))
    assert total == involution_count(G)
    literal = sum(1 for g in elements(G) if elem_mul(G, g, g) == GroupElem(0, 0))
    assert total == literal


# ---------------------------------------------------------------------------
# matrices, traces, determinants, scalars


def mat_mul(A, B):
    f = len(A)
    M = A[0][0].conductor
    out = [[cyc_zero(M) for _ in range(f)] for _ in range(f)]
    for r in range(f):
        for c_ in range(f):
            acc = cyc_zero(M)
            for k in range(f):
                acc = cyc_add(acc, cyc_mul(A[r][k], B[k][c_]))
            out[r][c_] = acc
    return out


def mat_trace(A):
    M = A[0][0].conductor
    total = cyc_zero(M)
    for r in range(len(A)):
        total = cyc_add(total, A[r][r])
    return total


def literal_det(A):
    f = len(A)
    M = A[0][0].conductor
    total = cyc_zero(M)
    for perm in itertools.permutations(range(f)):
        inversions = sum(
            1 for i in range(f) for j in range(i + 1, f) if perm[i] > perm[j]
        )
        prod = cyc_integer(-1 if inversions % 2 else 1, M)
        for r in range(f):
            prod = cyc_mul(prod, A[r][perm[r]])
        total = cyc_add(total, prod)
    return total


@pytest.mark.parametrize("m,N,s", [(3, 4, 2), (15, 8, 2), (9, 6, 2), (16, 4, 3)])
def test_matrix_model_is_representation(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        if psi.f > 4:
            continue
        els = list(elements(G))
        sample = els[:: max(1, len(els) // 10)]
        for g in sample:
            for h in sample[:5]:
                lhs = mat_mul(matrix_of(G, psi, g), matrix_of(G, psi, h))
                rhs = matrix_of(G, psi, elem_mul(G, g, h))
                assert lhs == rhs, (psi, g, h)
        for g in sample:
            assert mat_trace(matrix_of(G, psi, g)) == induced_character(G, psi, g)


@pytest.mark.parametrize("m,N,s", [(3, 4, 2), (15, 8, 2), (16, 4, 3)])
def test_scalar_at_torus_power(m, N, s):
    # pi(t^f) is the scalar psi(t^f) = zeta_{N/f}^c, the sign CLI's scalar_tf
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        f = psi.f
        M0 = char_conductor(G, psi)
        scal = cyc_embed(cyc_root(N // f, psi.c), M0)
        mat = matrix_of(G, psi, GroupElem(0, f % N))
        expected = [
            [cyc_mul(scal, cyc_integer(1 if r == c_ else 0, M0)) for c_ in range(f)]
            for r in range(f)
        ]
        assert mat == expected, psi


@pytest.mark.parametrize("m,N,s", [(3, 4, 2), (15, 8, 2), (9, 6, 2), (20, 4, 3)])
def test_det_matches_literal(m, N, s):
    G = make_group(m, N, s)
    for psi in enumerate_irreps(G):
        if psi.f > 4:
            continue
        mat_x = matrix_of(G, psi, GroupElem(1 % m, 0))
        mat_t = matrix_of(G, psi, GroupElem(0, 1 % N))
        det_x, det_t = (cyc_root(*pair) for pair in det_exponents(G, psi))
        M0 = mat_x[0][0].conductor
        Mx = lcm(M0, det_x.conductor)
        Mt = lcm(M0, det_t.conductor)
        assert cyc_embed(literal_det(mat_x), Mx) == cyc_embed(det_x, Mx), psi
        assert cyc_embed(literal_det(mat_t), Mt) == cyc_embed(det_t, Mt), psi


def literal_orbit_sum(G, psi):
    # the det exponent of pi(x) as the engine once summed it: one reduced
    # term per element of the orbit of a
    return sum(psi.a * p % G.m for p in G.s_powers[: psi.f]) % G.m


def test_det_orbit_sum_matches_per_term_sum():
    # every battery irrep, and both models (at n and at f) of every
    # self-dual entry with q in 2..4 and n in 2..8
    groups = [make_group(m, N, s) for m, N, s in BATTERY]
    models = [(G, psi) for G in groups for psi in enumerate_irreps(G)]
    for q in (2, 3, 4):
        for n in range(2, 9):
            for entry in enumerate_level1_selfdual(q, n):
                chi = entry.chi
                models += [
                    (psi.group, psi)
                    for psi in (division_model(n, chi), division_model(chi.f, chi))
                ]
    assert len(models) > 400
    for G, psi in models:
        assert det_exponents(G, psi)[0] == (G.m, literal_orbit_sum(G, psi)), (G, psi)


# ---------------------------------------------------------------------------
# the invariant bilinear form


def literal_theta_sign(G, psi) -> int:
    # the seeds E_{mu,nu} projected by sum_g pi(g)^T E pi(g), literally
    f = psi.f
    M0 = char_conductor(G, psi)
    els = list(elements(G))
    mats = {g: matrix_of(G, psi, g) for g in els}
    zero = cyc_zero(M0)
    for mu in range(f):
        for nu in range(f):
            B = [[zero for _ in range(f)] for _ in range(f)]
            for g in els:
                A = C = mats[g]
                for alpha in range(f):
                    if not A[mu][alpha]:
                        continue
                    for beta in range(f):
                        if not C[nu][beta]:
                            continue
                        B[alpha][beta] = cyc_add(
                            B[alpha][beta], cyc_mul(A[mu][alpha], C[nu][beta])
                        )
            if not any(B[r][c_] for r in range(f) for c_ in range(f)):
                continue
            if all(B[r][c_] == B[c_][r] for r in range(f) for c_ in range(f)):
                return 1
            if all(B[r][c_] == cyc_neg(B[c_][r]) for r in range(f) for c_ in range(f)):
                return -1
            raise AssertionError("literal invariant form is neither type")
    return 0


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_theta_identity_equals_fs(m, N, s):
    G = make_group(m, N, s)
    theta = identity_involution(G)
    for psi in enumerate_irreps(G):
        assert theta_sign(G, theta, psi) == fs_indicator(G, psi), psi


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_theta_sign_literal_matches_collapsed(m, N, s):
    G = make_group(m, N, s)
    theta = identity_involution(G)
    for psi in enumerate_irreps(G):
        if G.order * psi.f**2 > 4000:
            continue
        assert theta_sign(G, theta, psi) == literal_theta_sign(G, psi), psi


def test_theta_other_than_the_identity_is_refused():
    G = make_group(15, 8, 2)
    psi = enumerate_irreps(G)[0]
    for theta in ((14, 0, 1), None, object()):
        with pytest.raises(UsageError) as info:
            theta_sign(G, theta, psi)
        assert str(info.value) == (
            "theta_sign computes only the untwisted invariant form: theta "
            f"must be identity_involution(G), got {theta!r}"
        )


def reference_theta_sign(G, psi) -> int:
    # theta_sign as it was before its one-pass check: the shift found in
    # psi's own orbit, and each seed's projection scanned over all f x f
    # cells for B^T = B, then B^T = -B
    f, a = psi.f, psi.a
    m = G.m
    orbit = [a * G.s_pow(r) % m for r in range(f)]
    if -a % m not in orbit:
        return 0
    r = orbit.index(-a % m)
    for mu in range(f):
        vals = seed_projection(G, psi, mu, r)
        if not any(vals.values()):
            continue
        zero = cyc_zero(char_conductor(G, psi))
        pairs = [(vals.get((x, y), zero), vals.get((y, x), zero))
                 for x in range(f) for y in range(f)]
        if all(b == b_t for b, b_t in pairs):
            return 1
        if all(b == cyc_neg(b_t) for b, b_t in pairs):
            return -1
        raise AssertionError("reference invariant form is neither type")
    return 0


def test_one_pass_theta_sign_matches_the_two_scan_reference():
    for m, N, s in BATTERY:
        G = make_group(m, N, s)
        theta = identity_involution(G)
        for psi in enumerate_irreps(G):
            expected = reference_theta_sign(G, psi)
            assert theta_sign(G, theta, psi) == expected, (G, psi)


def seed_projection(G, psi, mu, r):
    # the cells of seed (mu, mu + r)'s projection, {(alpha, beta): value},
    # each canonicalised at conductor lcm(m, N/f)
    f, c = psi.f, psi.c
    N = G.N
    Nf = N // f
    M0 = char_conductor(G, psi)
    nu = (mu + r) % f
    cells = {}
    for j in range(N):
        alpha = (mu - j) % f
        beta = (nu - j) % f
        e = c * ((alpha + j) // f + (beta + j) // f) % Nf * (M0 // Nf)
        ctr = cells.setdefault((alpha, beta), {})
        ctr[e] = ctr.get(e, 0) + 1
    return {cell: root_sum(M0, ctr) for cell, ctr in cells.items()}


def test_every_seed_projects_to_zero_or_none_does():
    # theta_sign projects only (0, r): for each irrep with a surviving
    # shift r, the seeds (mu, mu + r) are all zero or all nonzero, and the
    # sign is 0 exactly when they are all zero. Cases: every BATTERY
    # group and the model groups with m <= 800.
    small_models = [triple for triple in ENGINE_GROUPS_UP_TO_7000 if triple[0] <= 800]
    cases = [
        (G, psi)
        for G in (make_group(*triple) for triple in BATTERY + small_models)
        for psi in enumerate_irreps(G)
    ]
    surviving = 0
    for G, psi in cases:
        orbit = [psi.a * G.s_pow(r) % G.m for r in range(psi.f)]
        target = -psi.a % G.m
        if target not in orbit:
            continue
        surviving += 1
        r = orbit.index(target)
        nonzero = {
            any(seed_projection(G, psi, mu, r).values()) for mu in range(psi.f)
        }
        assert len(nonzero) == 1, (G, psi)
        sign = theta_sign(G, identity_involution(G), psi)
        assert nonzero == {sign != 0}, (G, psi)
    assert surviving == 319


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_involution_prefix_is_the_literal_twisted_sum(m, N, s):
    # G.s_prefix, which det_exponents reads, is the literal geometric sum
    # of s
    G = make_group(m, N, s)
    assert G.s_prefix == tuple(
        sum(pow(G.s, l, m) for l in range(j)) % m for j in range(N + 1)
    )


def _count_root_sum(monkeypatch) -> list[int]:
    calls = [0]
    real = tamesigns.metacyclic.root_sum

    def counted(conductor, counts):
        calls[0] += 1
        return real(conductor, counts)

    monkeypatch.setattr(tamesigns.metacyclic, "root_sum", counted)
    return calls


def _in_orbit(G, b, psi) -> bool:
    # b mod m against {a*s^r : 0 <= r < f}, with powers taken afresh
    return b % G.m in {psi.a * pow(G.s, r, G.m) % G.m for r in range(psi.f)}


def test_zero_sign_skips_root_sum_exactly_off_the_orbit(monkeypatch):
    # On C_15 x| C_8, theta_sign decides 0 without root_sum exactly when
    # -a is outside the orbit of a, and projects a seed otherwise.
    G = make_group(15, 8, 2)
    theta = identity_involution(G)
    calls = _count_root_sum(monkeypatch)
    skipped = 0
    for psi in enumerate_irreps(G):
        calls[0] = 0
        sign = theta_sign(G, theta, psi)
        if _in_orbit(G, -psi.a, psi):
            assert calls[0] > 0, psi
        else:
            assert (sign, calls[0]) == (0, 0), psi
            skipped += 1
    assert skipped > 0


def test_fs_forms_one_root_sum_per_class(monkeypatch):
    # On a group with an empty memo, the first call of a class (f, d, c),
    # by either route, calls root_sum once, on the orbit and off it; off
    # it (-a is not in the orbit of a) the sum is root_sum's empty sum at
    # conductor N/f. Later calls of the class call it no more.
    calls = _count_root_sum(monkeypatch)
    for first in (fs_indicator_raw, fs_indicator):
        G = MetacyclicGroup(15, 8, 2)
        seen = set()
        off = 0
        for psi in enumerate_irreps(G):
            key = (psi.f, G.m // gcd(psi.a, G.m), psi.c)
            calls[0] = 0
            first(G, psi)
            ind, raw = fs_indicator(G, psi), fs_indicator_raw(G, psi)
            assert calls[0] == (0 if key in seen else 1), psi
            if not _in_orbit(G, -psi.a, psi):
                assert raw == root_sum(G.N // psi.f, {}) and ind == 0, psi
                off += 1
            seen.add(key)
        assert off > 0
        assert len(seen) < len(enumerate_irreps(G))


def reference_fs_raw(G, psi) -> CycInt:
    # fs_indicator_raw's collapse as it was before the per-class memo:
    # every j tested against psi's own a
    f, a, c = psi.f, psi.a, psi.c
    N, m = G.N, G.m
    Nf = N // f
    counts = {}
    for j in range(0, N, f // gcd(f, 2)):
        if (a * (1 + G.s_powers[j])) % m == 0:
            e = (c * (((2 * j) % N) // f)) % Nf
            counts[e] = counts.get(e, 0) + m * f
    return root_sum(Nf, counts)


def reference_shift(G, psi) -> int | None:
    # theta_sign's orbit test as it was before the per-class memo: the
    # orbit of psi's own a listed, and -a looked up in it
    orbit = [psi.a * p % G.m for p in G.s_powers[: psi.f]]
    target = -psi.a % G.m
    return orbit.index(target) if target in orbit else None


@pytest.mark.parametrize("m,N,s", BATTERY + ENGINE_GROUPS_UP_TO_7000)
def test_per_class_orbit_tests_match_the_per_residue_loops(m, N, s):
    # every residue a, not only orbit minima, as a plain SubgroupCharacter
    G = make_group(m, N, s)
    theta = identity_involution(G)
    for a in range(m):
        f = len(orbit_of(a, G.s, m))
        d = m // gcd(a, m)
        for c in range(N // f):
            psi = SubgroupCharacter(f, a, c)
            assert fs_indicator_raw(G, psi) == reference_fs_raw(G, psi), psi
        psi = SubgroupCharacter(f, a, 0)
        r = reference_shift(G, psi)
        assert tamesigns.metacyclic._theta_shift(G, f, d) == r, psi
        if r is None:
            assert theta_sign(G, theta, psi) == 0, psi


def test_memos_tell_groups_with_one_m_apart():
    # groups on C_15 share classes (f, d) with different entries: the
    # surviving j differ at (1, 1) between s = 2 (N = 8) and s = 4, and
    # at (2, 15) -1 is a power of s = 14 but not of s = 4, so a memo not
    # kept off the group would serve a later group an earlier one's entry
    groups = (make_group(15, 8, 2), make_group(15, 4, 4), make_group(15, 4, 14))
    for G in groups:
        G.fs_values.clear()
        G.theta_shifts.clear()
    for G in groups:
        theta = identity_involution(G)
        for psi in enumerate_irreps(G):
            M = char_conductor(G, psi)
            literal = literal_fs_raw(G, psi)
            assert cyc_embed(fs_indicator_raw(G, psi), M) == literal, (G, psi)
            ind = try_as_integer(literal) // G.order
            assert theta_sign(G, theta, psi) == ind, (G, psi)


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_fs_values_kept_per_class_are_each_irreps_own(m, N, s):
    # one group's memo, filled over the whole enumeration, serves every
    # irrep the value a group with an empty memo computes for it, and the
    # literal sum over G; it holds one entry per class (f, d, c)
    G = MetacyclicGroup(m, N, s)
    irreps = enumerate_irreps(G)
    for psi in irreps:
        raw, ind = fs_indicator_raw(G, psi), fs_indicator(G, psi)
        fresh = MetacyclicGroup(m, N, s)
        other = Irrep(psi.f, psi.a, psi.c, fresh)
        assert fs_indicator_raw(fresh, other) == raw, psi
        assert fs_indicator(fresh, other) == ind, psi
        literal = literal_fs_raw(G, psi)
        assert cyc_embed(raw, char_conductor(G, psi)) == literal, psi
        assert try_as_integer(literal) == ind * G.order, psi
    classes = {(p.f, m // gcd(p.a, m), p.c) for p in irreps}
    assert len(G.fs_values) == len(classes)


def _count_builder(monkeypatch, name) -> list[int]:
    calls = [0]
    real = getattr(tamesigns.metacyclic, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(tamesigns.metacyclic, name, counted)
    return calls


def test_each_route_tests_its_orbit_once_per_class(monkeypatch):
    # C_4095 x| C_12 (q = 4, n = 6): the FS value is built once per class
    # (f, d = m/gcd(a, m), c), with one root_sum, theta_sign's orbit test
    # runs once per class (f, d), and theta_sign calls root_sum only for
    # the irreps that pass its orbit test, which include every self-dual
    # one
    G = make_group(4095, 12, 4)
    theta = identity_involution(G)
    irreps = enumerate_irreps(G)
    classes = {(p.f, G.m // gcd(p.a, G.m)) for p in irreps}
    fs_classes = {(p.f, G.m // gcd(p.a, G.m), p.c) for p in irreps}
    G.fs_values.clear()
    G.theta_shifts.clear()
    fs_built = _count_builder(monkeypatch, "_fs_value")
    shifts_built = _count_builder(monkeypatch, "_theta_shift")
    calls = _count_root_sum(monkeypatch)
    passed = selfdual = 0
    fs_seen = set()
    for psi in irreps:
        key = (psi.f, G.m // gcd(psi.a, G.m), psi.c)
        built = 0 if key in fs_seen else 1  # FS's root_sum on a new class
        fs_seen.add(key)
        calls[0] = 0
        ind = fs_indicator(G, psi)
        raw = fs_indicator_raw(G, psi)
        sign = theta_sign(G, theta, psi)
        assert sign == ind and raw == cyc_integer(G.order * ind, G.N // psi.f)
        if _in_orbit(G, -psi.a, psi):
            assert calls[0] > built, psi
            passed += 1
        else:
            assert calls[0] == built, psi
        selfdual += ind != 0
    assert fs_built[0] == len(G.fs_values) == len(fs_classes)
    assert shifts_built[0] == len(G.theta_shifts) == len(classes)
    assert set(G.theta_shifts) == classes
    assert 0 < selfdual <= passed < len(irreps)
    assert len(classes) < len(fs_classes) < len(irreps)


def test_shared_zeros_stay_zero_after_a_battery_sweep():
    conductors = set()
    for m, N, s in BATTERY:
        G = make_group(m, N, s)
        theta = identity_involution(G)
        for psi in enumerate_irreps(G):
            raw = fs_indicator_raw(G, psi)
            if not _in_orbit(G, -psi.a, psi):
                assert raw == cyc_zero(G.N // psi.f), psi
            theta_sign(G, theta, psi)
            induced_character(G, psi, GroupElem(1 % m, 1 % N))
            matrix_of(G, psi, GroupElem(1 % m, 1 % N))
            conductors |= {G.N // psi.f, char_conductor(G, psi)}
    for M in conductors:
        assert cyc_zero(M) == root_sum(M, {}), M


def test_fs_not_integer_message_names_the_raw_sum(monkeypatch, fresh_groups):
    # the fault is in the canonical form the FS builder reads; no entry
    # is kept, so every call, by either route, meets the fault again
    G = make_group(3, 4, 2)
    psi = enumerate_irreps(G)[-1]
    monkeypatch.setattr(
        tamesigns.metacyclic, "root_sum", lambda conductor, counts: cyc_root(4, 1)
    )
    for route in (fs_indicator, fs_indicator_raw, fs_indicator):
        with pytest.raises(InternalConsistencyError) as info:
            route(G, psi)
        assert str(info.value) == (
            f"FS sum for psi={psi} on {G} is not a rational integer: "
            "conductor 4, coefficients (0, 1)"
        )
    assert G.fs_values == {}


def test_fs_out_of_range_is_an_internal_fault(monkeypatch, fresh_groups):
    # an integer sum that |G| divides, but with quotient 2
    G = make_group(3, 4, 2)
    psi = enumerate_irreps(G)[-1]
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "root_sum",
        lambda conductor, counts: cyc_integer(2 * G.order, conductor),
    )
    for route in (fs_indicator, fs_indicator_raw):
        with pytest.raises(InternalConsistencyError) as info:
            route(G, psi)
        assert str(info.value) == f"FS indicator for psi={psi} on {G} out of range: 2"
    assert G.fs_values == {}


def test_neither_type_message_names_the_seed(monkeypatch):
    # distinct positive values in every cell: the form is neither type
    G = make_group(3, 4, 2)
    theta = identity_involution(G)
    psi = make_subgroup_character(G, 2, 1, 0)
    values = itertools.count(1)
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "root_sum",
        lambda conductor, counts: cyc_integer(next(values), conductor),
    )
    with pytest.raises(InternalConsistencyError) as info:
        theta_sign(G, theta, psi)
    assert str(info.value) == (
        f"invariant form for psi={psi} on {G} is neither symmetric nor "
        "antisymmetric at seed (mu, nu) = (0, 1)"
    )


# ---------------------------------------------------------------------------
# randomized group battery


@st.composite
def random_group(draw):
    m = draw(st.integers(1, 24))
    N = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    units = [
        u for u in range(m) if pow(u, N, m) == 1 % m
    ]
    s = draw(st.sampled_from(units))
    return make_group(m, N, s)


@settings(max_examples=40, deadline=None)
@given(random_group())
def test_random_group_invariants(G):
    irr = enumerate_irreps(G)
    assert sum(psi.f**2 for psi in irr) == G.order
    total = 0
    for psi in irr:
        ind = fs_indicator(G, psi)
        assert ind in (-1, 0, 1)
        raw = fs_indicator_raw(G, psi)
        assert try_as_integer(raw) == G.order * ind
        total += psi.f * ind
    assert total == involution_count(G)


@settings(max_examples=40, deadline=None)
@given(random_group())
@example(make_group(1, 4, 0))
@example(make_group(5, 1, 1))
@example(make_group(1, 1, 0))
def test_s_pow_reads_the_power_table(G):
    assert len(G.s_powers) == G.N
    for k in range(-2 * G.N, 2 * G.N + 1):
        assert G.s_pow(k) == pow(G.s, k % G.N, G.m), k


ROUTES = [
    fs_indicator,
    fs_indicator_raw,
    lambda G, psi: theta_sign(G, identity_involution(G), psi),
    character_field,
]
ROUTE_IDS = ["fs_indicator", "fs_indicator_raw", "theta_sign", "character_field"]


def _break_orbit_walk(monkeypatch):
    # the one orbit walk, which orbit_of and orbit_partition share,
    # reports one element too many
    real_walk = tamesigns.metacyclic._orbit_walk
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "_orbit_walk",
        lambda a, s, m: real_walk(a, s, m) + [a],
    )


# routes that validate inducing data but do not require it irreducible
UNCHECKED_ROUTES = [
    is_irreducible_induced,
    det_exponents,
    lambda G, psi: induced_character(G, psi, GroupElem(1, 0)),
    lambda G, psi: matrix_of(G, psi, GroupElem(1, 0)),
]
UNCHECKED_IDS = [
    "is_irreducible_induced", "det_exponents", "induced_character", "matrix_of"
]


@pytest.mark.parametrize("route", ROUTES + UNCHECKED_ROUTES, ids=ROUTE_IDS + UNCHECKED_IDS)
@pytest.mark.parametrize(
    "psi,message",
    [
        # 1*(s^2 - 1) = 3 mod 5: psi is not well defined on <x, t^2>
        (SubgroupCharacter(2, 1, 0), "a=1 is not fixed by t^f: a*(s^f - 1) != 0 mod 5"),
        (SubgroupCharacter(4, 1, 7), "need 0 <= c < N/f = 1, got c=7"),
    ],
    ids=["ill-defined", "c-out-of-range"],
)
def test_invalid_inducing_data_is_a_usage_error(route, psi, message):
    with pytest.raises(UsageError) as info:
        route(make_group(5, 4, 2), psi)
    assert str(info.value) == message


def test_enumeration_checks_each_orbit_and_names_both_routes(
    monkeypatch, fresh_groups
):
    # With a broken orbit walk, enumerate_irreps partitions Z/15 into
    # orbits one too large; the first, a = 0 with f = 2, fails the norm
    # route before any Irrep is made. The irreducibility check's orbit
    # route reads the same walk.
    G = make_group(15, 8, 2)
    _break_orbit_walk(monkeypatch)
    with pytest.raises(InternalConsistencyError) as info:
        enumerate_irreps(G)
    assert str(info.value) == (
        "norm route and orbit route disagree for "
        "psi=SubgroupCharacter(f=2, a=0, c=0) on MetacyclicGroup(m=15, N=8, s=2): "
        "norm sum 240 vs |G| = 120, orbit size 2 vs f = 2"
    )


def test_enumeration_refuses_an_orbit_both_routes_call_reducible(
    monkeypatch, fresh_groups
):
    monkeypatch.setattr(
        tamesigns.metacyclic, "is_irreducible_induced", lambda G, psi: psi.f < 4
    )
    with pytest.raises(
        InternalConsistencyError,
        match=r"orbit of a=1 has size 4 but does not induce irreducibly on "
        r"MetacyclicGroup\(m=15, N=8, s=2\)",
    ):
        enumerate_irreps(make_group(15, 8, 2))


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
def test_irreducibility_cross_check_runs_on_every_call(monkeypatch, route):
    # A plain SubgroupCharacter carries no check, so an orbit route that
    # disagrees with the norm route is caught on every call, also after
    # the same psi has passed once.
    G = make_group(15, 8, 2)
    plain = [SubgroupCharacter(p.f, p.a, p.c) for p in enumerate_irreps(G)]
    for psi in plain:
        route(G, psi)
    _break_orbit_walk(monkeypatch)
    for psi in plain:
        for _ in range(2):
            with pytest.raises(InternalConsistencyError):
                route(G, psi)


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
def test_irrep_of_another_group_is_never_trusted(monkeypatch, route):
    G = make_group(15, 8, 2)
    irreps = enumerate_irreps(G)
    # on C_15 x| C_8 with s = 4 the orbit of 1 is {1, 4}: f = 4 is reducible
    other = make_group(15, 8, 4)
    with pytest.raises(UsageError, match="does not induce irreducibly"):
        route(other, next(p for p in irreps if (p.f, p.a) == (4, 1)))
    # an equal group that is a separate object is not the checked one
    twin = MetacyclicGroup(15, 8, 2)
    for psi in irreps:
        route(twin, psi)
    _break_orbit_walk(monkeypatch)
    for psi in irreps:
        with pytest.raises(InternalConsistencyError):
            route(twin, psi)
        route(G, psi)  # checked on G when it was built


def test_irreducibility_is_checked_once_per_class(monkeypatch):
    G = MetacyclicGroup(15, 8, 2)  # unshared: no class is checked yet
    real = tamesigns.metacyclic.is_irreducible_induced
    seen = []

    def counted(G, psi):
        seen.append((psi.f, psi.a))
        return real(G, psi)

    monkeypatch.setattr(tamesigns.metacyclic, "is_irreducible_induced", counted)
    theta = identity_involution(G)
    irreps = enumerate_irreps(G)
    for psi in irreps:
        fs_indicator(G, psi)
        fs_indicator_raw(G, psi)
        theta_sign(G, theta, psi)
        character_field(G, psi)
    # orbits of 2 on Z/15: {0}, {1, 2, 4, 8}, {3, 6, 12, 9}, {5, 10}, {7, ...};
    # their classes d = 15/gcd(a, 15) are 1, 15, 5, 3, 15, so (4, 7) is
    # not checked again: it shares d = 15 with (4, 1)
    assert seen == [(1, 0), (2, 5), (4, 1), (4, 3)]
    assert len(irreps) == 18


def test_class_size_mismatch_names_the_orbit_its_class_and_the_group(
    monkeypatch,
):
    # a partition that reports the orbit of 7 with size 2, after size 4:
    # its class d = 15 was checked at size 4 on the orbit of 1
    G = make_group(15, 8, 2)
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "orbit_partition",
        lambda s, m: {1: [0], 4: [1, 3], 2: [5, 7]},
    )
    with pytest.raises(InternalConsistencyError) as info:
        enumerate_irreps(G)
    assert str(info.value) == (
        "orbit of a=7 has size 2, but its class d = m/gcd(a, m) = 15 was "
        "checked at size 4 on MetacyclicGroup(m=15, N=8, s=2)"
    )


@pytest.mark.parametrize("m,N,s", BATTERY + ENGINE_GROUPS_UP_TO_7000)
def test_enumeration_equals_the_per_orbit_reference(m, N, s):
    # checking once per class leaves the list as one check per orbit
    # builds it: same order, same values, bound to the same group; a
    # fresh group per orbit, with no class checked, checks every orbit
    G = make_group(m, N, s)
    reference = [
        ir
        for f, avals in orbit_partition(G.s, G.m).items()
        for a in avals
        for ir in orbit_irreps(MetacyclicGroup(m, N, s), f, (a,), range(G.N // f))
    ]
    irreps = enumerate_irreps(G)
    assert irreps == reference
    assert all(type(p) is Irrep and p.group is G for p in irreps)


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_enumeration_makes_one_orbit_irreps_call_per_orbit_size(
    monkeypatch, m, N, s
):
    real = tamesigns.metacyclic.orbit_irreps
    calls = []

    def counted(G, f, avals, cs):
        calls.append((f, list(avals)))
        return real(G, f, avals, cs)

    monkeypatch.setattr(tamesigns.metacyclic, "orbit_irreps", counted)
    G = MetacyclicGroup(m, N, s)
    enumerate_irreps(G)
    # one call per distinct size, ascending, with every orbit of the size
    assert calls == _set_partition(G.s, m, N)


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_enumeration_keeps_one_orbit_size_per_class(m, N, s):
    # the group keeps the checked size of each class d = m/gcd(a, m),
    # which is the size of every orbit of the class
    G = MetacyclicGroup(m, N, s)
    irreps = enumerate_irreps(G)
    classes = {G.m // gcd(p.a, G.m) for p in irreps}
    assert len(G.orbit_sizes) == len(classes)
    assert G.orbit_sizes == {G.m // gcd(p.a, G.m): p.f for p in irreps}


def test_hand_built_irrep_is_checked_when_built():
    G = make_group(15, 8, 2)
    psi = Irrep(2, 10, 1, G)  # 10 is in the orbit {5, 10}
    assert fs_indicator(G, psi) == fs_indicator(G, SubgroupCharacter(2, 10, 1))
    with pytest.raises(UsageError, match="does not induce irreducibly"):
        Irrep(2, 0, 0, G)
    with pytest.raises(UsageError, match="does not induce irreducibly"):
        psi._replace(a=0)
    with pytest.raises(UsageError, match="need 0 <= c < N/f"):
        Irrep._make((2, 5, 4, G))


def test_orbit_irreps_validates_its_orbit_and_each_c():
    # each call on a group of its own, with no class checked yet
    def fresh():
        return MetacyclicGroup(15, 8, 2)

    G = fresh()
    irreps = orbit_irreps(G, 2, (10,), (3, 0))  # orbit {5, 10}
    assert irreps == [(2, 10, 3, G), (2, 10, 0, G)]
    assert all(type(p) is Irrep and p.group is G for p in irreps)
    assert G.orbit_sizes == {3: 2}
    # every orbit of one size in one call, orbit by orbit, then c by c
    G = fresh()
    irreps = orbit_irreps(G, 4, [1, 3, 7], (1, 0))
    assert irreps == [
        (4, a, c, G) for a in (1, 3, 7) for c in (1, 0)
    ]
    assert all(type(p) is Irrep and p.group is G for p in irreps)
    assert G.orbit_sizes == {15: 4, 5: 4}
    assert orbit_irreps(fresh(), 4, [], (0,)) == []
    with pytest.raises(UsageError, match=r"need 0 <= a < m = 15, got a=20"):
        orbit_irreps(fresh(), 2, (20,), (0,))
    with pytest.raises(UsageError, match=r"need 0 <= a < m = 15, got a=20"):
        orbit_irreps(fresh(), 4, (1, 20), (0,))
    with pytest.raises(UsageError, match=r"need 0 <= c < N/f = 4, got c=4"):
        orbit_irreps(fresh(), 2, (5,), (0, 4))
    with pytest.raises(UsageError, match="f must divide N"):
        orbit_irreps(fresh(), 3, (5,), (0,))
    with pytest.raises(UsageError, match="f must divide N"):
        orbit_irreps(fresh(), 0, (0,), (0,))
    # the orbit of 0 has size 1, so both routes call f = 2 reducible, and
    # the group keeps no size for its class
    G = fresh()
    with pytest.raises(
        InternalConsistencyError, match="orbit of a=0 has size 2 but does not"
    ):
        orbit_irreps(G, 2, (0,), (0,))
    assert G.orbit_sizes == {}


@pytest.mark.parametrize(
    "f,cs,message",
    [
        (3, (0,), "f must divide N=8, got f=3"),
        (2, (0, 4), "need 0 <= c < N/f = 4, got c=4"),
    ],
    ids=["f", "c"],
)
def test_orbit_irreps_refuses_bad_data_alike_on_a_cold_and_a_warm_class(
    f, cs, message
):
    # f and c are validated before any class is read: the refusal of a
    # datum of the orbit {5, 10} (class d = 3) does not depend on
    # whether the group has checked that class yet
    G = MetacyclicGroup(15, 8, 2)
    for orbit_sizes in ({}, {3: 2}):
        with pytest.raises(UsageError) as info:
            orbit_irreps(G, f, (5,), cs)
        assert str(info.value) == message
        assert G.orbit_sizes == orbit_sizes
        orbit_irreps(G, 2, (10,), (0,))


def test_orbit_irreps_checks_once_per_class_of_its_table(monkeypatch):
    G = MetacyclicGroup(15, 8, 2)  # unshared: no class is checked yet
    real = tamesigns.metacyclic.is_irreducible_induced
    seen = []
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "is_irreducible_induced",
        lambda G, psi: seen.append((psi.f, psi.a)) or real(G, psi),
    )
    assert orbit_irreps(G, 4, (1,), (0,)) == [(4, 1, 0, G)]
    assert G.orbit_sizes == {15: 4}
    # 7 shares d = 15 with 1: compared with the table, not checked again
    assert orbit_irreps(G, 4, (7,), (1,)) == [(4, 7, 1, G)]
    assert seen == [(4, 1)]
    with pytest.raises(InternalConsistencyError, match="was checked at size 4"):
        orbit_irreps(G, 2, (7,), (0,))
    # another group, equal but not the same object, checks again
    orbit_irreps(MetacyclicGroup(15, 8, 2), 4, (7,), (1,))
    assert seen == [(4, 1), (4, 7)]
    # within one call too, each class is checked once: 1 and 7 share
    # d = 15, and 3 is d = 5
    G = MetacyclicGroup(15, 8, 2)
    orbit_irreps(G, 4, (1, 3, 7), (0,))
    assert seen == [(4, 1), (4, 7), (4, 1), (4, 3)]


def test_irreducibility_disagreement_names_both_routes(monkeypatch):
    G = make_group(15, 8, 2)
    psi = make_subgroup_character(G, 2, 5, 0)  # orbit {5, 10}: irreducible
    real_orbit_of = tamesigns.metacyclic.orbit_of
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "orbit_of",
        lambda a, s, m: real_orbit_of(a, s, m) + [a],
    )
    with pytest.raises(InternalConsistencyError) as info:
        is_irreducible_induced(G, psi)
    assert str(info.value) == (
        "norm route and orbit route disagree for "
        "psi=SubgroupCharacter(f=2, a=5, c=0) on MetacyclicGroup(m=15, N=8, s=2): "
        "norm sum 120 vs |G| = 120, orbit size 3 vs f = 2"
    )
