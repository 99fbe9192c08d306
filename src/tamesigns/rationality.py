"""Fields of character values for the induced representations.

The character of the induced representation attached to (f, a, c) takes
values in Z[zeta_M] with M = lcm(m, N/f). The Galois group (Z/M)^x acts
on values through exponents: the unit j carries the character of
(f, a, c) to the character of (f, j*a, j*c), so j fixes every value
exactly when j*a stays in the orbit of a and j*c = c (mod N/f). The
field of values is the fixed field of that stabilizer; its degree is
phi(M) divided by the stabilizer size. Realness (j = -1 in the
stabilizer) is equivalent to a nonvanishing Frobenius-Schur indicator,
which the test suite checks value-by-value on small groups.

The stabilizer is a union of cosets, so it is built without scanning
Z/M. With m_a = m/gcd(a, m) and n_c = (N/f)/gcd(c, N/f),

    j*a = a*s^k (mod m)  <=>  j = s^k (mod m_a),
    j*c = c (mod N/f)    <=>  j = 1 (mod n_c).

For each residue r in {s^k mod m_a} the two congruences meet in one
class mod L = lcm(m_a, n_c) (or in none), and the stabilizer collects
the units among that class's lifts to Z/M. The work is proportional to
the stabilizer's size, not to M; the test suite keeps the full scan of
Z/M as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclotomic import euler_phi
from .errors import InternalConsistencyError
from .metacyclic import (
    Irrep,
    MetacyclicGroup,
    SubgroupCharacter,
    _char_conductor,
    _require_irreducible,
    orbit_of,
)

__all__ = ["CharacterField", "character_field", "is_real_character"]


@dataclass(frozen=True)
class CharacterField:
    """The field of values: ambient conductor, stabilizer, and degree."""

    conductor: int
    stabilizer: tuple[int, ...]
    degree: int

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    @property
    def is_real(self) -> bool:
        # conjugation is the unit -1; residues are stored in [0, M)
        return (-1) % self.conductor in self.stabilizer


def character_field(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> CharacterField:
    """Field of character values of the induced irreducible for psi.

    Works at exponent level: the stabilizer of the value vector inside
    (Z/M)^x is {j : j*a in orbit(a), j*c = c mod N/f}. It is assembled
    coset by coset (see the module docstring): j = s^k mod m/gcd(a, m)
    and j = 1 mod (N/f)/gcd(c, N/f), lifted to the units of Z/M and
    sorted. The degree phi(M)/|stabilizer| must divide exactly; a
    remainder would contradict the group structure and raises
    InternalConsistencyError.
    """
    _require_irreducible(G, psi)
    f, a, c = psi.f, psi.a, psi.c
    Nf = G.N // f
    M = _char_conductor(G, psi)
    m_a = G.m // gcd(a, G.m)
    n_c = Nf // gcd(c, Nf)
    L = lcm(m_a, n_c)
    stab: list[int] = []
    for r in {p % m_a for p in G.s_powers}:
        # the lift of r to Z/L that is 1 mod n_c, if there is one
        j0 = next((j for j in range(r, L, m_a) if j % n_c == 1 % n_c), None)
        if j0 is not None:
            stab.extend(j for j in range(j0, M, L) if gcd(j, M) == 1)
    stab.sort()
    phi = euler_phi(M)
    if phi % len(stab) != 0:
        raise InternalConsistencyError(
            f"stabilizer size {len(stab)} does not divide phi({M}) = {phi} "
            f"for psi={psi} on {G}"
        )
    return CharacterField(
        conductor=M, stabilizer=tuple(stab), degree=phi // len(stab)
    )


def is_real_character(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> bool:
    """Whether every character value is fixed by complex conjugation.

    Exponent-level test: -a must lie in the orbit of a and -c must equal
    c mod N/f. Equivalent to a nonvanishing Frobenius-Schur indicator.
    """
    _require_irreducible(G, psi)
    f, a, c = psi.f, psi.a, psi.c
    Nf = G.N // f
    return (-a) % G.m in set(orbit_of(a, G.s, G.m)) and (-c) % Nf == c % Nf
