"""Exact arithmetic with cyclotomic integers in canonical form.

A value is a conductor M >= 1 together with exactly phi(M) integer
coordinates in the power basis 1, z, z^2, ..., z^(phi(M)-1) where
z = exp(2*pi*i/M). Coordinates are arbitrary-precision Python ints, so
every operation here is exact; no floating point is used anywhere.

Values are built as exponent counts modulo x^M - 1 and then reduced to
the canonical basis by exact long division against the M-th cyclotomic
polynomial Phi_M. root_sum is the one path from exponent counts to a
canonical value (cyc_root, cyc_galois and cyc_embed go through it);
only cyc_mul, whose exponents collide, reduces on its own. The ring
operations are the cyc_* functions; CycInt has no arithmetic operators.
Phi_M is stored sparsely through the identity Phi_M(x) = Phi_r(x^(M/r))
with r = radical(M), so reduction costs O((M - phi(M)) * nnz(Phi_r))
rather than O(M * phi(M)).

Two values are equal iff they have the same conductor and the same
coordinates. There is no automatic conductor reduction: the square of
the primitive 8th root stays written at conductor 8. Use cyc_embed to
move values into a common larger conductor before comparing across
conductors.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterable, Mapping

from .errors import InternalConsistencyError, UsageError

__all__ = [
    "CycInt",
    "cyc_root",
    "cyc_integer",
    "cyc_zero",
    "cyc_add",
    "cyc_neg",
    "cyc_scale",
    "cyc_mul",
    "cyc_pow",
    "cyc_galois",
    "cyc_embed",
    "try_as_integer",
    "root_sum",
    "cyclotomic_polynomial",
    "factorize",
    "euler_phi",
    "radical",
    "divisors",
]


# ---------------------------------------------------------------------------
# integer utilities


@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (p, exponent)."""
    if n < 1:
        raise UsageError(f"factorize requires n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@cache
def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def _poly_divexact(num: list[int], den: list[int], r: int, p: int) -> list[int]:
    # Dense ascending coefficients, den monic; remainder must vanish.
    # r and p name the step of _cyclotomic_squarefree(r) that divides.
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd]
        if c:
            q[k] = c
            for e in range(dd + 1):
                num[k + e] -= c * den[e]
    if any(num):
        raise InternalConsistencyError(
            f"building Phi_{r}: division by degree {dd} at the prime p={p} "
            f"left a remainder"
        )
    return q


@cache
def _cyclotomic_squarefree(r: int) -> tuple[int, ...]:
    # Dense coefficients of Phi_r for squarefree r, via the exact
    # recurrence Phi_{rp}(x) = Phi_r(x^p) / Phi_r(x) for p not dividing r.
    f = [-1, 1]
    for p, _ in factorize(r):
        fp = [0] * (p * (len(f) - 1) + 1)
        for e, c in enumerate(f):
            fp[p * e] = c
        f = _poly_divexact(fp, f, r, p)
    return tuple(f)


@cache
def cyclotomic_polynomial(M: int) -> tuple[tuple[int, int], ...]:
    """Phi_M as sparse ((exponent, coefficient), ...) sorted by exponent.

    Uses Phi_M(x) = Phi_r(x^(M/r)) with r = radical(M), so the number of
    nonzero terms is at most phi(r) + 1 regardless of M.
    """
    if M < 1:
        raise UsageError(f"cyclotomic_polynomial requires M >= 1, got {M}")
    if M == 1:
        return ((0, -1), (1, 1))
    r = radical(M)
    k = M // r
    dense = _cyclotomic_squarefree(r)
    return tuple((k * e, c) for e, c in enumerate(dense) if c)


@cache
def _phi_tail(M: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # (phi(M), sparse tail of Phi_M below the monic leading term).
    poly = cyclotomic_polynomial(M)
    lead_exp, lead_coeff = poly[-1]
    if lead_coeff != 1 or lead_exp != euler_phi(M):
        raise InternalConsistencyError(
            f"Phi_{M} is not monic of degree phi({M}) = {euler_phi(M)}: "
            f"leading term {lead_coeff}*x^{lead_exp}"
        )
    return lead_exp, poly[:-1]


def _canonical(M: int, vec: list[int]) -> tuple[int, ...]:
    # vec: dense length-M coefficient list, exponents already mod M.
    phi, tail = _phi_tail(M)
    for k in range(M - 1, phi - 1, -1):
        c = vec[k]
        if c:
            vec[k] = 0
            for e, a in tail:
                vec[k - phi + e] -= c * a
    return tuple(vec[:phi])


# ---------------------------------------------------------------------------
# canonical values


class CycInt:
    """A cyclotomic integer in canonical power-basis form.

    conductor: the M of the ambient ring Z[zeta_M].
    coeffs: exactly phi(M) ints; coeffs[i] multiplies zeta_M^i.
    Instances are immutable in use; equality and hash are structural.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        if conductor < 1:
            raise UsageError(f"conductor must be >= 1, got {conductor}")
        if len(coeffs) != euler_phi(conductor):
            raise UsageError(
                f"conductor {conductor} needs {euler_phi(conductor)} "
                f"coefficients, got {len(coeffs)}"
            )
        self.conductor = conductor
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.conductor, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"CycInt({self.conductor}, {self.coeffs})"


@cache
def cyc_zero(conductor: int = 1) -> CycInt:
    """The zero value at the given conductor, one shared instance per
    conductor (CycInt is immutable in use)."""
    return CycInt(conductor, (0,) * euler_phi(conductor))


def cyc_integer(c: int, conductor: int = 1) -> CycInt:
    """The rational integer c viewed at the given conductor."""
    coeffs = [0] * euler_phi(conductor)
    coeffs[0] = c
    return CycInt(conductor, coeffs)


def cyc_root(conductor: int, k: int = 1) -> CycInt:
    """zeta_conductor^k in canonical form (k may be any integer)."""
    return root_sum(conductor, {k: 1})


def root_sum(conductor: int, counts: Mapping[int, int]) -> CycInt:
    """Canonical form of sum_k counts[k] * zeta_conductor^k.

    Keys are exponents (any ints, folded mod conductor). This is the
    one path from exponent counts to canonical values.
    """
    if conductor < 1:
        raise UsageError(f"conductor must be >= 1, got {conductor}")
    vec = [0] * conductor
    for k, c in counts.items():
        if c:
            vec[k % conductor] += c
    return CycInt(conductor, _canonical(conductor, vec))


def _require_same_conductor(a: CycInt, b: CycInt, op: str) -> None:
    if a.conductor != b.conductor:
        raise UsageError(
            f"{op} needs equal conductors, got {a.conductor} and {b.conductor}; "
            f"use cyc_embed first"
        )


def cyc_add(a: CycInt, b: CycInt) -> CycInt:
    """a + b; both operands must share one conductor."""
    _require_same_conductor(a, b, "cyc_add")
    return CycInt(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_neg(a: CycInt) -> CycInt:
    """-a."""
    return CycInt(a.conductor, tuple(-x for x in a.coeffs))


def cyc_scale(a: CycInt, c: int) -> CycInt:
    """c * a for a rational integer c."""
    return CycInt(a.conductor, tuple(c * x for x in a.coeffs))


def cyc_mul(a: CycInt, b: CycInt) -> CycInt:
    """a * b; both operands must share one conductor."""
    _require_same_conductor(a, b, "cyc_mul")
    M = a.conductor
    vec = [0] * M
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                if cb:
                    vec[(i + j) % M] += ca * cb
    return CycInt(M, _canonical(M, vec))


def cyc_pow(a: CycInt, k: int) -> CycInt:
    """a**k for k >= 0 by repeated squaring."""
    if k < 0:
        raise UsageError(f"cyc_pow requires k >= 0, got {k}")
    out = cyc_integer(1, a.conductor)
    base = a
    while k:
        if k & 1:
            out = cyc_mul(out, base)
        base_needed = k >> 1
        if base_needed:
            base = cyc_mul(base, base)
        k = base_needed
    return out


def cyc_galois(a: CycInt, j: int) -> CycInt:
    """Galois action zeta -> zeta^j; requires gcd(j, conductor) = 1."""
    M = a.conductor
    j %= M
    if gcd(j, M) != 1:
        raise UsageError(f"cyc_galois needs gcd(j, {M}) = 1, got j = {j}")
    return root_sum(M, {i * j: c for i, c in enumerate(a.coeffs)})


def cyc_embed(a: CycInt, conductor: int) -> CycInt:
    """Rewrite a at a larger conductor; the old one must divide the new."""
    if conductor % a.conductor != 0:
        raise UsageError(
            f"cyc_embed target {conductor} is not a multiple of {a.conductor}"
        )
    step = conductor // a.conductor
    return root_sum(conductor, {i * step: c for i, c in enumerate(a.coeffs)})


def try_as_integer(a: CycInt) -> int | None:
    """coeffs[0] if the value is a rational integer, else None."""
    if any(a.coeffs[1:]):
        return None
    return a.coeffs[0]
