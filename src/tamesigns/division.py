"""Level-one self-dual representations of tame division algebras.

A level-one (depth-zero) irreducible representation of the unit group of
a central division algebra of degree n over a p-adic field with residue
size q is parametrized, after restriction to the tame quotient, by a
pair (chi, w): chi a character of the unramified torus F_{q^f}^x for
some f | n that is regular (its Galois orbit under x -> x^q has size
exactly f), and w = +-1 a scalar at a uniformizer slot. The character
exponent a is recorded relative to a fixed abstract generator of the
cyclic group F_{q^f}^x, so only its orbit data matters.

The finite model is the metacyclic group C_{q^n-1} x| C_{2n} with the
torus generator x, conjugation by s = q (Frobenius), and t a normalizer
with t^n central. The representation is induced from (f, a', c) where
a' rescales a into Z/(q^n-1) and c encodes w as the scalar at t^f.

Self-duality (contragredient-invariance) of the induced representation
holds for the quadratic characters at f = 1 (2a = 0 mod q - 1), whose
sign is +1, and otherwise forces f = 2d even together with (q^d - 1) | a,
where the orthogonal/symplectic sign has the closed form w. An
independent oracle recomputes the sign as the Frobenius-Schur indicator
of the finite model. Both routes are exposed and never merged. The
enumeration covers the even f only; the f = 1 data are not yet among
its rows. It writes a self-dual exponent as a = (q^d - 1) * k; since
q^f - 1 = (q^d - 1)(q^d + 1), multiplying a by q mod q^f - 1 multiplies
k by q mod q^d + 1, so it walks each Galois orbit once in
orbit_partition(q, q^d + 1) and keeps the orbits of size f.

Where each check of the enumeration runs: per (q, n) cell, the model
group is built once and the row count is checked against its Moebius
count; per f, one orbit_irreps call builds the models of all kept
orbits, checking irreducibility once per class d = m/gcd(a, m) of their
exponents (G.orbit_sizes keeps the class on the shared model group, so
no later scan or division_model there checks it again); per orbit, the
constructor of the w = +1 datum checks regularity and decides
self-duality once for both w, since neither depends on w; per entry,
checked_sign runs the closed form, whose guard reads that decision and
which checks (q - 1) | a, against the FS indicator of the entry's model,
and the entry keeps that one checked sign with that model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .cyclotomic import divisors, factorize
from .errors import InternalConsistencyError, UsageError
from .metacyclic import (
    Irrep,
    fs_indicator,
    make_group,
    orbit_irreps,
    orbit_of,
    orbit_partition,
)

__all__ = [
    "TameCharacter",
    "SelfdualEntry",
    "is_prime_power",
    "prime_power_base",
    "is_regular",
    "is_selfdual_division",
    "sign_division_closed_form",
    "checked_sign",
    "division_model",
    "is_division_model",
    "sign_division_oracle",
    "enumerate_level1_selfdual",
    "selfdual_row_count",
    "selfdual_rows_at_degree",
]


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and some k >= 1.

    Calls the uncached factorize, so filtering a q range caches nothing.
    """
    return q >= 2 and len(factorize.__wrapped__(q)) == 1


def prime_power_base(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, p prime; UsageError if q is not a prime power."""
    if q < 2:
        raise UsageError(f"q must be a prime power >= 2, got {q}")
    fac = factorize(q)
    if len(fac) != 1:
        pretty = " * ".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in fac
        )
        raise UsageError(f"q must be a prime power, got {q} = {pretty}")
    return fac[0]


@dataclass(frozen=True)
class TameCharacter:
    """A level-one character datum (q, f, a, w), valid and regular.

    q: residue field size (prime power). f: degree of the unramified
    torus F_{q^f}^x carrying the character. a: exponent of the character
    against a fixed generator, taken mod q^f - 1. w: the sign +-1 at the
    uniformizer slot. The constructor checks each, then regularity, so
    every TameCharacter is regular and no consumer re-checks it. It then
    decides self-duality once, by the rule is_selfdual_division states,
    into the derived field selfdual, which that function reads.
    """

    q: int
    f: int
    a: int
    w: int
    # q^f - 1 and the self-duality of the datum; derived, so not in
    # repr, == or hash
    torus_order: int = field(init=False, repr=False, compare=False)
    selfdual: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prime_power_base(self.q)
        if self.f < 1:
            raise UsageError(f"f must be >= 1, got {self.f}")
        order = self.q**self.f - 1
        object.__setattr__(self, "torus_order", order)
        if not 0 <= self.a < max(order, 1):
            raise UsageError(f"need 0 <= a < q^f - 1 = {order}, got a={self.a}")
        if self.w not in (1, -1):
            raise UsageError(f"w must be +1 or -1, got {self.w}")
        if not is_regular(self):
            raise UsageError(f"character is not regular: {self}")
        object.__setattr__(
            self, "selfdual", _selfdual_rule(self.q, self.f, self.a, order)
        )


def is_regular(chi: TameCharacter) -> bool:
    """Whether the Galois orbit of the character has full size f."""
    return len(orbit_of(chi.a, chi.q, chi.torus_order)) == chi.f


def _selfdual_rule(q: int, f: int, a: int, order: int) -> bool:
    # the one implementation of the self-duality rule for a regular datum
    # (q, f, a) with order = q^f - 1; w does not enter it
    if f == 1:
        return 2 * a % order == 0
    if f % 2 != 0:
        return False
    return (a * (q ** (f // 2) + 1)) % order == 0


def is_selfdual_division(chi: TameCharacter) -> bool:
    """Whether the associated representation is self-dual.

    The value is decided once, when chi is built (dataclasses.replace
    builds anew), and depends on (q, f, a) only, so it is the same for
    both w and on both sides. chi is regular by construction. At f = 1
    the condition is 2a = 0 (mod q - 1): chi is a quadratic character of
    F_q^x (a = 0, or a = (q-1)/2 for q odd), whose representation is
    chi o Nrd. Otherwise it is f = 2d even and a * (q^d + 1) = 0
    (mod q^f - 1), equivalently (q^d - 1) | a.
    """
    return chi.selfdual


def sign_division_closed_form(chi: TameCharacter) -> int:
    """Closed-form orthogonal/symplectic sign of the self-dual datum.

    At f = 1 it is +1 whatever w is: the representation is a character,
    real-valued when chi is quadratic. At even f it is w. A self-dual
    datum of even f automatically has (q - 1) | a; that divisibility is
    verified here and a failure raises InternalConsistencyError, since it
    would falsify the closed form's derivation. At f = 1 it holds only
    for a = 0, so it is not checked there.
    """
    if not is_selfdual_division(chi):
        raise UsageError(f"closed-form sign needs a self-dual datum, got {chi}")
    if chi.f == 1:
        return 1
    if chi.a % (chi.q - 1) != 0:
        raise InternalConsistencyError(
            f"self-dual datum with a not divisible by q-1: {chi}"
        )
    return chi.w


def division_model(n: int, chi: TameCharacter) -> Irrep:
    """The finite model of the degree-n division algebra representation.

    The Irrep (f, a * (q^n-1)/(q^f-1), c) on its group psi.group =
    C_{q^n-1} x| C_{2n} with s = q, where c = 0 encodes w = +1 and
    c = n/f encodes w = -1 (the scalar at t^f). Requires f | n. chi is
    regular by construction, so its model exponent's orbit has size f,
    and orbit_irreps checks the Irrep irreducible once per class
    d = m/gcd(a, m) of its group; every route then trusts it there.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if n % chi.f != 0:
        raise UsageError(f"f = {chi.f} must divide n = {n}")
    G = make_group(chi.q**n - 1, 2 * n, chi.q)
    a_big = _model_exponent(chi.q, n, chi.f, chi.a)
    c = _model_c(n, chi.f, chi.w)
    return orbit_irreps(G, chi.f, (a_big,), (c,))[0]


def _model_exponent(q: int, n: int, f: int, a: int) -> int:
    # a rescaled from Z/(q^f - 1) into the model's Z/(q^n - 1)
    m = q**n - 1
    return (a * (m // (q**f - 1))) % m


def _model_c(n: int, f: int, w: int) -> int:
    # the scalar at t^f that encodes w: 0 for w = +1, n/f for w = -1
    return 0 if w == 1 else n // f


def is_division_model(psi: object, n: int, chi: TameCharacter) -> bool:
    """Whether psi is the Irrep division_model(n, chi).

    The inverse of division_model's encoding, decided by integer
    comparisons alone: psi must be an Irrep on C_{q^n-1} x| C_{2n} with
    s = q, with inducing data (f, a * (q^n-1)/(q^f-1), c) and c = 0 for
    w = +1, n/f for w = -1. False when f does not divide n, or n < 1,
    since chi then has no model of degree n. No group or model is built.
    """
    f = chi.f
    if type(psi) is not Irrep or n < 1 or n % f:
        return False
    G = psi.group
    # _model_exponent and _model_c, written inline: sign_weil_closed_form
    # calls this once per Weil parameter
    m = chi.q**n - 1
    return (
        G.m == m
        and G.N == 2 * n
        and G.s == chi.q % m
        and psi.f == f
        and psi.a == chi.a * (m // chi.torus_order) % m
        and psi.c == (0 if chi.w == 1 else n // f)
    )


def sign_division_oracle(n: int, chi: TameCharacter) -> int:
    """Oracle sign: the Frobenius-Schur indicator of the finite model.

    Independent of the closed form; a vanishing indicator for a self-dual
    datum raises InternalConsistencyError.
    """
    if not is_selfdual_division(chi):
        raise UsageError(f"oracle sign needs a self-dual datum, got {chi}")
    psi = division_model(n, chi)
    ind = fs_indicator(psi.group, psi)
    if ind == 0:
        raise InternalConsistencyError(
            f"model of self-dual datum {chi} at n={n} has vanishing indicator: "
            f"psi={psi}"
        )
    return ind


def checked_sign(chi: TameCharacter, psi: Irrep) -> int:
    """sign_division_closed_form(chi), checked against chi's model psi.

    psi is division_model(n, chi), with G = psi.group and n = G.N / 2:
    its callers pass a model for which is_division_model(psi, n, chi)
    holds, and it does not check this itself; anything but an Irrep
    raises UsageError. Its Frobenius-Schur indicator must equal the
    closed form, so 0 fails too, with InternalConsistencyError naming
    chi, n, psi (whose repr names G) and both values. The one place a
    closed form meets an indicator: the scan calls it per entry,
    sign_weil_closed_form per parameter (n = f), on the model its
    caller passes, and the `sign` command on the division side. No model
    is built here.
    """
    if type(psi) is not Irrep:
        raise UsageError(f"checked_sign needs a model Irrep, got psi={psi!r}")
    closed = sign_division_closed_form(chi)
    G = psi.group
    ind = fs_indicator(G, psi)
    if ind != closed:
        raise InternalConsistencyError(
            f"closed-form sign {closed} disagrees with the Frobenius-Schur "
            f"indicator {ind} for {chi} at n={G.N // 2}: psi={psi}"
        )
    return closed


# the uniformizer signs w in entry order: w = +1 before w = -1
_SIGNS = (1, -1)


def _with_sign(chi: TameCharacter, w: int) -> TameCharacter:
    # chi with uniformizer sign w = +-1, of chi's own type, built without
    # __post_init__: its checks other than w's, regularity's orbit walk
    # among them, and its self-duality depend on (q, f, a) only, and chi
    # has passed and decided them
    twin = object.__new__(type(chi))
    twin.__dict__.update(chi.__dict__, w=w)
    return twin


class SelfdualEntry(NamedTuple):
    """One enumerated self-dual representation: its sign, the closed form
    that checked_sign has compared with the FS indicator of its model,
    and that model, the Irrep division_model(n, chi) on the cell's group."""

    chi: TameCharacter
    sign: int
    model: Irrep


def enumerate_level1_selfdual(q: int, n: int) -> list[SelfdualEntry]:
    """All level-one self-dual representations for degree n over size q.

    One entry per (Galois orbit, w), ordered by (f ascending, minimal
    orbit exponent a ascending, w = +1 before w = -1). Every self-dual
    datum has f = 2d even and a = (q^d - 1) * k, and a -> q*a mod q^f - 1
    is k -> q*k mod q^d + 1, so the scan keeps the orbits of size f in
    orbit_partition(q, q^d + 1); a grows with k on 0 <= k <= q^d, so
    each orbit's least k gives its least a.

    The cell's model group G = C_{q^n-1} x| C_{2n} is built once, at the
    first even f; an odd n has none and builds no group. Per f,
    the scan reads the orbits as orbit_partition(q, q^d + 1).get(f, []),
    forms each one's model exponent a * (q^n-1)/(q^f-1) once, and makes
    one orbit_irreps call for them all, which checks irreducibility once
    per class d = m/gcd(a, m) of G and gives each orbit's two inducing
    data: c = 0 for w = +1 and c = n/f for w = -1, as in division_model.
    Each orbit's w = +1 datum is built as a TameCharacter, checked in
    full by its constructor, and its w = -1 twin is copied from it with
    only w changed. Each entry's sign comes from checked_sign on its
    Irrep: the closed form, whose guard checks self-duality, compared
    with the FS indicator. A datum refused there, two routes that
    disagree and a cell off its Moebius row count each raise
    InternalConsistencyError. An entry keeps chi, its checked sign and
    the Irrep checked_sign ran on, so at f = n verify-flip hands that
    Irrep, which is division_model(n, chi), to sign_weil_closed_form.
    """
    prime_power_base(q)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    entries: list[SelfdualEntry] = []
    for f in divisors(n):
        if f % 2 != 0:
            continue
        # shared per cell by make_group, and built only when an even f
        # needs it: an odd n has none
        G = make_group(q**n - 1, 2 * n, q)
        step = q ** (f // 2) - 1
        cs = tuple(_model_c(n, f, w) for w in _SIGNS)
        ks = orbit_partition(q, step + 2).get(f, [])
        exponents = [_model_exponent(q, n, f, step * k) for k in ks]
        models = iter(orbit_irreps(G, f, exponents, cs))
        for k in ks:
            a = step * k
            # zip draws w first, so each orbit takes exactly its two models
            for w, psi in zip(_SIGNS, models):
                try:
                    # _SIGNS lists w = +1 first: its datum is built and
                    # checked, and the w = -1 datum is its twin
                    chi = TameCharacter(q, f, a, w) if w == 1 else _with_sign(chi, w)
                    sign = checked_sign(chi, psi)
                except UsageError as exc:
                    raise InternalConsistencyError(
                        f"enumeration at q={q}, n={n} emitted an invalid "
                        f"datum (f={f}, a={a}, w={w}): {exc}"
                    ) from exc
                entries.append(SelfdualEntry(chi, sign, psi))
    predicted = selfdual_row_count(q, n)
    if len(entries) != predicted:
        raise InternalConsistencyError(
            f"enumeration at q={q}, n={n} found {len(entries)} self-dual "
            f"rows, but the Moebius count predicts {predicted}"
        )
    return entries


def _moebius(r: int) -> int:
    fac = factorize(r)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


def selfdual_row_count(q: int, n: int) -> int:
    """Number of entries enumerate_level1_selfdual(q, n) returns, by formula.

    The sum over f | n of selfdual_rows_at_degree(q, f). It forms no
    group and walks no orbit; the enumeration checks every cell against
    it.
    """
    return sum(selfdual_rows_at_degree(q, f) for f in divisors(n))


def selfdual_rows_at_degree(q: int, f: int) -> int:
    """Number of enumerated entries of torus degree f, by formula.

    0 for odd f; for even f, (2/f) * sum_{e | f} mu(f/e) gcd(q^(f/2)+1,
    q^e-1): the Moebius sum counts the self-dual exponents whose orbit
    has exact size f, so it is f times the number of such orbits, and
    each orbit gives two entries (w = +-1).
    """
    if f % 2 != 0:
        return 0
    exact = sum(
        _moebius(f // e) * gcd(q ** (f // 2) + 1, q**e - 1) for e in divisors(f)
    )
    return 2 * exact // f
