"""Differential oracle: the cyclotomic layer against sympy.

sympy is an optional test dependency; without it this module is
skipped, so a plain checkout still passes. Phi_M is compared with
sympy.cyclotomic_poly, and the canonical reduction of random exponent
vectors with the remainder of polynomial division by Phi_M, for every
conductor M <= 300.
"""

from __future__ import annotations

import random

import pytest

from tamesigns.cyclotomic import _canonical, cyclotomic_polynomial, euler_phi

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
CONDUCTORS = range(1, 301)


def sympy_phi(M: int) -> "sympy.Poly":
    return sympy.cyclotomic_poly(M, X, polys=True)


def test_cyclotomic_polynomial_matches_sympy():
    for M in CONDUCTORS:
        expected = {e: int(c) for (e,), c in sympy_phi(M).as_dict().items()}
        assert dict(cyclotomic_polynomial(M)) == expected, M


def test_canonical_matches_sympy_remainder():
    rng = random.Random(20081)
    for M in CONDUCTORS:
        vec = [rng.randint(-9, 9) for _ in range(M)]
        dense = sympy.Poly.from_list(vec[::-1], X, domain="ZZ")
        rem = sympy.rem(dense, sympy_phi(M), auto=False).as_dict()
        expected = tuple(int(rem.get((k,), 0)) for k in range(euler_phi(M)))
        assert _canonical(M, list(vec)) == expected, M
