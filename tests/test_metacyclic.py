"""Oracles for the metacyclic engine.

Every collapsed sum in the engine (Frobenius-Schur, norm, twisted form
projection, involution count, determinant) is recomputed here by literal
element-by-element iteration with exact cyclotomic arithmetic, on groups
small enough to brute-force. Known classical values (dihedral groups are
totally orthogonal, the faithful dicyclic characters are symplectic) pin
the sign conventions from outside.
"""

from __future__ import annotations

import itertools
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tamesigns.metacyclic
from tamesigns.cyclotomic import (
    CycInt,
    cyc_add,
    cyc_embed,
    cyc_integer,
    cyc_mul,
    cyc_root,
    cyc_scale,
    cyc_zero,
    root_sum,
    try_as_integer,
)
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.metacyclic import (
    GroupElem,
    Irrep,
    MetacyclicGroup,
    SubgroupCharacter,
    apply_involution,
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
    make_involution,
    make_subgroup_character,
    matrix_model,
    matrix_of,
    orbit_irreps,
    orbit_of,
    orbit_partition,
    theta_sign,
)
from tamesigns.rationality import character_field, is_real_character
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


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_orbit_partition_matches_a_set_partition(m, N, s):
    # remove whole orbits {a s^j : j < N} from a set, least element first
    left, expected = set(range(m)), []
    while left:
        a = min(left)
        orbit = {a * pow(s, j, m) % m for j in range(N)}
        expected.append((len(orbit), a))
        left -= orbit
    assert orbit_partition(s, m) == sorted(expected)


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
        model = matrix_model(G, psi)
        det_x, det_t = (cyc_root(*pair) for pair in det_exponents(G, psi))
        M0 = model["x"][0][0].conductor
        Mx = lcm(M0, det_x.conductor)
        Mt = lcm(M0, det_t.conductor)
        assert cyc_embed(literal_det(model["x"]), Mx) == cyc_embed(det_x, Mx), psi
        assert cyc_embed(literal_det(model["t"]), Mt) == cyc_embed(det_t, Mt), psi


# ---------------------------------------------------------------------------
# involutions and twisted signs


def literal_theta_sign(G, theta, psi) -> int:
    f = psi.f
    M0 = char_conductor(G, psi)
    els = list(elements(G))
    mats = {g: matrix_of(G, psi, g) for g in els}
    zero = cyc_zero(M0)
    for mu in range(f):
        for nu in range(f):
            B = [[zero for _ in range(f)] for _ in range(f)]
            for g in els:
                A = mats[g]
                C = mats[apply_involution(G, theta, g)]
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
            if all(B[r][c_] == -B[c_][r] for r in range(f) for c_ in range(f)):
                return -1
            raise AssertionError("literal twisted form is neither type")
    return 0


def test_involution_validation():
    G = make_group(15, 8, 2)
    make_involution(G, 14, 0, 1)  # x -> x^-1 is a valid involution here
    with pytest.raises(UsageError):
        make_involution(G, 2, 0, 1)  # 2^2 = 4 != 1 mod 15
    with pytest.raises(UsageError):
        make_involution(G, 1, 0, 2)  # 2^2 = 4 != 1 mod 8
    G2 = make_group(4, 2, 1)
    theta = make_involution(G2, 1, 2, 1)  # theta(t) = x^2 t works here
    assert apply_involution(G2, theta, GroupElem(1, 1)) == GroupElem(3, 1)


def test_identity_involution_fixes_everything():
    for m, N, s in BATTERY:
        G = make_group(m, N, s)
        theta = identity_involution(G)
        for g in list(elements(G))[:: max(1, (m * N) // 16)]:
            assert apply_involution(G, theta, g) == g


def test_involution_squares_to_identity():
    G = make_group(15, 8, 2)
    theta = make_involution(G, 14, 0, 1)
    for g in list(elements(G))[::7]:
        assert apply_involution(G, theta, apply_involution(G, theta, g)) == g
        gh = apply_involution(G, theta, g)
        for h in [GroupElem(1, 0), GroupElem(2, 3)]:
            hh = apply_involution(G, theta, h)
            assert apply_involution(G, theta, elem_mul(G, g, h)) == elem_mul(G, gh, hh)


@pytest.mark.parametrize("m,N,s", BATTERY)
def test_theta_identity_equals_fs(m, N, s):
    G = make_group(m, N, s)
    theta = identity_involution(G)
    for psi in enumerate_irreps(G):
        assert theta_sign(G, theta, psi) == fs_indicator(G, psi), psi


@pytest.mark.parametrize(
    "m,N,s,u,v,w",
    [
        (3, 4, 2, 1, 0, 1),
        (15, 8, 2, 14, 0, 1),
        (15, 8, 2, 1, 0, 1),
        (4, 2, 1, 1, 2, 1),
        (16, 4, 3, 15, 0, 1),
        (9, 6, 2, 8, 0, 1),
        # u not in {1, -1}: the zero test must read -u*a, not -a
        (15, 8, 2, 4, 0, 1),
        (15, 8, 2, 11, 0, 1),
        (21, 6, 2, 8, 0, 1),
    ],
)
def test_theta_sign_literal_matches_collapsed(m, N, s, u, v, w):
    G = make_group(m, N, s)
    theta = make_involution(G, u, v, w)
    for psi in enumerate_irreps(G):
        if G.order * psi.f**2 > 4000:
            continue
        assert theta_sign(G, theta, psi) == literal_theta_sign(G, theta, psi), psi


def test_theta_with_translation_part():
    # G = C_4 x C_2 with theta(t) = x^2 t: characters with a even pair
    # with themselves (sign +1), characters with a odd pair to nothing.
    G = make_group(4, 2, 1)
    theta = make_involution(G, 1, 2, 1)
    for psi in enumerate_irreps(G):
        expected = 1 if psi.a % 2 == 0 else 0
        assert theta_sign(G, theta, psi) == expected, psi


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


# u = 11 = -s^2 and u = 14 = -1 put -u*a in the orbit of every a
@pytest.mark.parametrize(
    "u,some_skip", [(1, True), (4, True), (11, False), (14, False)]
)
def test_zero_sign_skips_root_sum_exactly_off_the_orbit(monkeypatch, u, some_skip):
    # On C_15 x| C_8, theta_sign decides 0 without root_sum exactly when
    # -u*a is outside the orbit of a, and projects a seed otherwise.
    G = make_group(15, 8, 2)
    theta = make_involution(G, u, 0, 1)
    calls = _count_root_sum(monkeypatch)
    skipped = 0
    for psi in enumerate_irreps(G):
        calls[0] = 0
        sign = theta_sign(G, theta, psi)
        if _in_orbit(G, -u * psi.a, psi):
            assert calls[0] > 0, psi
        else:
            assert (sign, calls[0]) == (0, 0), psi
            skipped += 1
    assert (skipped > 0) == some_skip


def test_fs_zero_skips_root_sum_exactly_off_the_orbit(monkeypatch):
    # fs_indicator_raw returns root_sum's empty sum at conductor N/f,
    # without calling it, exactly when -a is outside the orbit of a.
    G = make_group(15, 8, 2)
    calls = _count_root_sum(monkeypatch)
    skipped = 0
    for psi in enumerate_irreps(G):
        ind = fs_indicator(G, psi)
        calls[0] = 0
        raw = fs_indicator_raw(G, psi)
        if _in_orbit(G, -psi.a, psi):
            assert calls[0] == 1, psi
        else:
            assert calls[0] == 0, psi
            assert raw == root_sum(G.N // psi.f, {}), psi
            skipped += 1
        if ind != 0:
            assert calls[0] == 1, psi
    assert skipped > 0


def test_fs_not_integer_message_names_the_raw_sum(monkeypatch):
    G = make_group(3, 4, 2)
    psi = enumerate_irreps(G)[-1]
    monkeypatch.setattr(
        tamesigns.metacyclic, "fs_indicator_raw", lambda G, psi: cyc_root(4, 1)
    )
    with pytest.raises(InternalConsistencyError) as info:
        fs_indicator(G, psi)
    assert str(info.value) == (
        f"FS sum for psi={psi} on {G} is not a rational integer: "
        "conductor 4, coefficients (0, 1)"
    )


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
        f"twisted form for psi={psi}, theta={theta} on {G} is "
        "neither symmetric nor antisymmetric at seed (mu, nu) = (0, 1)"
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


def _break_orbit_of(monkeypatch):
    # an orbit route that reports one element too many
    real_orbit_of = tamesigns.metacyclic.orbit_of
    monkeypatch.setattr(
        tamesigns.metacyclic,
        "orbit_of",
        lambda a, s, m: real_orbit_of(a, s, m) + [a],
    )


def test_enumeration_checks_each_orbit_and_names_both_routes(monkeypatch):
    # With a broken orbit walk, enumerate_irreps partitions Z/15 into
    # orbits one too large; the first, a = 0 with f = 2, fails the norm
    # route before any Irrep is made.
    G = make_group(15, 8, 2)
    _break_orbit_of(monkeypatch)
    with pytest.raises(InternalConsistencyError) as info:
        enumerate_irreps(G)
    assert str(info.value) == (
        "norm route and orbit route disagree for "
        "psi=SubgroupCharacter(f=2, a=0, c=0) on MetacyclicGroup(m=15, N=8, s=2): "
        "norm sum 240 vs |G| = 120, orbit size 2 vs f = 2"
    )


def test_enumeration_refuses_an_orbit_both_routes_call_reducible(monkeypatch):
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
    _break_orbit_of(monkeypatch)
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
    _break_orbit_of(monkeypatch)
    for psi in irreps:
        with pytest.raises(InternalConsistencyError):
            route(twin, psi)
        route(G, psi)  # checked on G when it was built


def test_irreducibility_is_checked_once_per_orbit(monkeypatch):
    G = make_group(15, 8, 2)
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
        is_real_character(G, psi)
    # orbits of 2 on Z/15: {0}, {1, 2, 4, 8}, {3, 6, 12, 9}, {5, 10}, {7, ...}
    assert seen == [(1, 0), (2, 5), (4, 1), (4, 3), (4, 7)]
    assert len(irreps) == 18


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
    G = make_group(15, 8, 2)
    irreps = orbit_irreps(G, 2, 10, (3, 0))  # orbit {5, 10}
    assert irreps == [(2, 10, 3, G), (2, 10, 0, G)]
    assert all(type(p) is Irrep and p.group is G for p in irreps)
    with pytest.raises(UsageError, match=r"need 0 <= a < m = 15, got a=20"):
        orbit_irreps(G, 2, 20, (0,))
    with pytest.raises(UsageError, match=r"need 0 <= c < N/f = 4, got c=4"):
        orbit_irreps(G, 2, 5, (0, 4))
    with pytest.raises(UsageError, match="f must divide N"):
        orbit_irreps(G, 3, 5, (0,))
    # the orbit of 0 has size 1, so both routes call f = 2 reducible
    with pytest.raises(
        InternalConsistencyError, match="orbit of a=0 has size 2 but does not"
    ):
        orbit_irreps(G, 2, 0, (0,))


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
