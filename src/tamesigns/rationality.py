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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclotomic import euler_phi
from .errors import InternalConsistencyError
from .metacyclic import (
    MetacyclicGroup,
    SubgroupCharacter,
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


def character_field(G: MetacyclicGroup, psi: SubgroupCharacter) -> CharacterField:
    """Field of character values of the induced irreducible for psi.

    Works at exponent level: the stabilizer of the value vector inside
    (Z/M)^x is {j : j*a in orbit(a), j*c = c mod N/f}. The degree
    phi(M)/|stabilizer| must divide exactly; a remainder would
    contradict the group structure and raises InternalConsistencyError.
    """
    _require_irreducible(G, psi)
    f, a, c = psi
    Nf = G.N // f
    M = lcm(G.m, Nf)
    orbit = set(orbit_of(a, G.s, G.m))
    stab = tuple(
        j
        for j in range(M)
        if gcd(j, M) == 1
        and (j * a) % G.m in orbit
        and (j * c) % Nf == c % Nf
    )
    phi = euler_phi(M)
    if phi % len(stab) != 0:
        raise InternalConsistencyError(
            f"stabilizer size {len(stab)} does not divide phi({M}) = {phi}"
        )
    return CharacterField(conductor=M, stabilizer=stab, degree=phi // len(stab))


def is_real_character(G: MetacyclicGroup, psi: SubgroupCharacter) -> bool:
    """Whether every character value is fixed by complex conjugation.

    Exponent-level test: -a must lie in the orbit of a and -c must equal
    c mod N/f. Equivalent to a nonvanishing Frobenius-Schur indicator.
    """
    _require_irreducible(G, psi)
    f, a, c = psi
    Nf = G.N // f
    return (-a) % G.m in set(orbit_of(a, G.s, G.m)) and (-c) % Nf == c % Nf
