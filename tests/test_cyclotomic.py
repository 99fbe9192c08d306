"""Exactness oracles for the cyclotomic layer.

Fixed expected values are either immediate identities (zeta_4^2 = -1,
vanishing sums over all m-th roots) or classical facts recomputed here by
an independent route (the product of Phi_d over d | M must equal x^M - 1,
checked by sparse convolution that never touches the reduction code).
"""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamesigns.cyclotomic as cyclotomic
from tamesigns.cyclotomic import (
    CycInt,
    cyc_add,
    cyc_embed,
    cyc_galois,
    cyc_integer,
    cyc_mul,
    cyc_pow,
    cyc_root,
    cyc_scale,
    cyc_zero,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    factorize,
    radical,
    root_sum,
    try_as_integer,
)
from tamesigns.errors import InternalConsistencyError, UsageError


def test_factorize_and_phi():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(531440) == ((2, 4), (5, 1), (7, 1), (13, 1), (73, 1))
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(531440) == 165888
    assert radical(1) == 1
    assert radical(531440) == 66430
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_fourth_root_squares_to_minus_one():
    i = cyc_root(4)
    assert cyc_mul(i, i) == cyc_integer(-1, 4)


def test_full_root_sum_vanishes():
    # 1 + z_3 + z_3^2 = 0 and the same at several conductors.
    for M in (2, 3, 4, 5, 6, 12):
        total = root_sum(M, {k: 1 for k in range(M)})
        assert not total, M


def test_galois_on_sum():
    v = cyc_add(cyc_integer(1, 5), cyc_root(5, 1))
    assert cyc_galois(v, 2) == cyc_add(cyc_integer(1, 5), cyc_root(5, 2))
    # j = -1 is complex conjugation
    z = cyc_root(5)
    assert cyc_galois(z, -1) == CycInt(5, (-1, -1, -1, -1))
    assert cyc_galois(cyc_galois(z, -1), -1) == z
    assert cyc_galois(cyc_integer(3, 7), -1) == cyc_integer(3, 7)


def test_no_automatic_conductor_reduction():
    sq = cyc_mul(cyc_root(8), cyc_root(8))
    assert sq.conductor == 8
    assert sq == cyc_embed(cyc_root(4), 8)
    assert sq != cyc_root(4)


def test_sixth_root_reduction():
    # phi(6) = 2, so z_6^2 needs reduction: Phi_6 = x^2 - x + 1.
    v = cyc_pow(cyc_root(6), 2)
    assert v == CycInt(6, (-1, 1))
    assert v == cyc_embed(cyc_root(3), 6)


def test_as_integer():
    assert try_as_integer(cyc_integer(7, 12)) == 7
    assert try_as_integer(cyc_root(12)) is None


def test_embed_transitivity():
    v = cyc_add(cyc_root(10, 3), cyc_integer(-2, 10))
    assert cyc_embed(cyc_embed(v, 20), 60) == cyc_embed(v, 60)


def test_root_below_phi_is_a_basis_vector():
    # z^k for 0 <= k < phi(M) needs no reduction: its coefficients are e_k,
    # checked here without going through root_sum
    for M in range(1, 61):
        phi = euler_phi(M)
        for k in range(phi):
            assert cyc_root(M, k).coeffs == tuple(int(i == k) for i in range(phi))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: root_sum(0, {1: 1}), "conductor must be >= 1, got 0"),
        (lambda: root_sum(-4, {1: 1}), "conductor must be >= 1, got -4"),
        (lambda: cyc_root(0), "conductor must be >= 1, got 0"),
        (lambda: cyc_root(-4), "conductor must be >= 1, got -4"),
        (lambda: cyc_embed(cyc_root(2), 0), "conductor must be >= 1, got 0"),
        (lambda: cyc_embed(cyc_root(2), -4), "conductor must be >= 1, got -4"),
        (lambda: factorize(0), "factorize requires n >= 1, got 0"),
        (
            lambda: cyclotomic_polynomial(0),
            "cyclotomic_polynomial requires M >= 1, got 0",
        ),
        (lambda: CycInt(6, (1,)), "conductor 6 needs 2 coefficients, got 1"),
        (lambda: cyc_pow(cyc_root(5), -1), "cyc_pow requires k >= 0, got -1"),
        (
            lambda: cyc_galois(cyc_root(4), 2),
            "cyc_galois needs gcd(j, 4) = 1, got j = 2",
        ),
    ],
    ids=[
        "root_sum-0", "root_sum-neg", "cyc_root-0", "cyc_root-neg", "cyc_embed-0",
        "cyc_embed-neg", "factorize", "cyclotomic_polynomial", "CycInt", "cyc_pow",
        "cyc_galois",
    ],
)
def test_argument_guards(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


def test_conductor_mismatch_rejected():
    with pytest.raises(UsageError):
        cyc_add(cyc_root(3), cyc_root(4))
    with pytest.raises(UsageError):
        cyc_mul(cyc_root(3), cyc_root(4))
    with pytest.raises(UsageError):
        cyc_embed(cyc_root(4), 6)


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == ((0, -1), (1, 1))
    assert cyclotomic_polynomial(2) == ((0, 1), (1, 1))
    assert cyclotomic_polynomial(8) == ((0, 1), (4, 1))
    assert cyclotomic_polynomial(9) == ((0, 1), (3, 1), (6, 1))
    assert cyclotomic_polynomial(12) == ((0, 1), (2, -1), (4, 1))
    # first conductor with a coefficient of absolute value 2
    assert dict(cyclotomic_polynomial(105))[7] == -2


def _sparse_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("M", [1, 2, 6, 8, 12, 16, 24, 30, 36, 60, 105, 120, 210, 360])
def test_cyclotomic_product_identity(M):
    # prod_{d | M} Phi_d(x) = x^M - 1, multiplied out by plain convolution.
    prod = {0: 1}
    for d in divisors(M):
        prod = _sparse_mul(prod, dict(cyclotomic_polynomial(d)))
    assert prod == {0: -1, M: 1}


def test_root_orders():
    # z_M^M = 1 and no smaller positive power is 1 (primitivity).
    for M in range(1, 31):
        z = cyc_root(M)
        powers = [cyc_integer(1, M)]
        for _ in range(M):
            powers.append(cyc_mul(powers[-1], z))
        assert powers[M] == cyc_integer(1, M)
        for k in range(1, M):
            assert powers[k] != cyc_integer(1, M), (M, k)


small_conductors = st.integers(min_value=1, max_value=36)


@st.composite
def value_at(draw, M):
    phi = euler_phi(M)
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=phi, max_size=phi)
    )
    return CycInt(M, coeffs)


@st.composite
def triple(draw):
    M = draw(small_conductors)
    return M, draw(value_at(M)), draw(value_at(M)), draw(value_at(M))


@settings(max_examples=60, deadline=None)
@given(triple())
def test_ring_axioms(data):
    M, a, b, c = data
    assert cyc_add(a, b) == cyc_add(b, a)
    assert cyc_mul(a, b) == cyc_mul(b, a)
    assert cyc_add(cyc_add(a, b), c) == cyc_add(a, cyc_add(b, c))
    assert cyc_mul(cyc_mul(a, b), c) == cyc_mul(a, cyc_mul(b, c))
    assert cyc_mul(a, cyc_add(b, c)) == cyc_add(cyc_mul(a, b), cyc_mul(a, c))
    assert cyc_scale(a, 3) == cyc_add(a, cyc_add(a, a))


@pytest.mark.parametrize("M", [1, 2, 8, 12, 15, 60])
def test_zero_is_one_shared_instance_per_conductor(M):
    zero = cyc_zero(M)
    assert zero is cyc_zero(M)
    assert zero == root_sum(M, {}) == cyc_integer(0, M)
    assert zero.coeffs == (0,) * euler_phi(M)


@settings(max_examples=60, deadline=None)
@given(triple(), st.integers(1, 200), st.integers(1, 200))
def test_galois_properties(data, j_raw, k_raw):
    M, a, b, _ = data
    units = [u for u in range(1, M + 1) if gcd(u, M) == 1]
    j = units[j_raw % len(units)]
    k = units[k_raw % len(units)]
    # ring homomorphism
    assert cyc_galois(cyc_mul(a, b), j) == cyc_mul(cyc_galois(a, j), cyc_galois(b, j))
    assert cyc_galois(cyc_add(a, b), j) == cyc_add(cyc_galois(a, j), cyc_galois(b, j))
    # composition law
    assert cyc_galois(cyc_galois(a, j), k) == cyc_galois(a, (j * k) % M or M)
    # identity fixes everything
    assert cyc_galois(a, 1) == a


@settings(max_examples=60, deadline=None)
@given(triple(), st.integers(1, 4))
def test_embed_is_ring_map(data, step):
    M, a, b, _ = data
    M2 = M * step
    assert cyc_embed(cyc_mul(a, b), M2) == cyc_mul(cyc_embed(a, M2), cyc_embed(b, M2))
    assert cyc_embed(cyc_add(a, b), M2) == cyc_add(cyc_embed(a, M2), cyc_embed(b, M2))
    n = try_as_integer(a)
    if n is not None:
        assert try_as_integer(cyc_embed(a, M2)) == n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 36), st.integers(-50, 50), st.integers(0, 80))
def test_root_sum_matches_powers(M, c, k):
    # root_sum at one exponent equals c * z^k computed multiplicatively.
    expected = cyc_scale(cyc_pow(cyc_root(M), k), c)
    assert root_sum(M, {k: c}) == expected


def test_poly_divexact_remainder_is_an_internal_fault():
    assert cyclotomic._poly_divexact([-1, 0, 1], [-1, 1], 2, 2) == [1, 1]
    with pytest.raises(InternalConsistencyError, match="left a remainder"):
        cyclotomic._poly_divexact([1, 0, 1], [-1, 1], 2, 2)  # x^2 + 1 by x - 1


def test_poly_divexact_fault_names_r_and_p(monkeypatch, fresh_polynomial_caches):
    # break the second step of Phi_6 = Phi_2(x^3) / Phi_2(x): the message
    # names the squarefree r and the prime p, so the fault can be rerun
    real = cyclotomic._poly_divexact

    def broken(num, den, r, p):
        return real([num[0] + (p == 3), *num[1:]], den, r, p)

    monkeypatch.setattr(cyclotomic, "_poly_divexact", broken)
    with pytest.raises(InternalConsistencyError) as info:
        cyclotomic._cyclotomic_squarefree(6)
    assert str(info.value) == (
        "building Phi_6: division by degree 1 at the prime p=3 left a remainder"
    )


def test_non_monic_phi_is_an_internal_fault(monkeypatch, fresh_polynomial_caches):
    real = cyclotomic.cyclotomic_polynomial

    def doubled_lead(M):
        *tail, (lead_exp, lead_coeff) = real(M)
        return (*tail, (lead_exp, 2 * lead_coeff))

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", doubled_lead)
    with pytest.raises(
        InternalConsistencyError,
        match=r"Phi_12 is not monic of degree phi\(12\) = 4: leading term 2\*x\^4",
    ):
        cyclotomic._phi_tail(12)
