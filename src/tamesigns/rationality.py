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

The stabilizer is found without scanning Z/M. With m_a = m/gcd(a, m)
and n_c = (N/f)/gcd(c, N/f),

    j*a = a*s^k (mod m)  <=>  j = s^k (mod m_a),
    j*c = c (mod N/f)    <=>  j = 1 (mod n_c),

so membership depends on j mod L = lcm(m_a, n_c) only. For each r in
{s^k mod m_a} the two congruences meet in one unit class mod L (or in
none). The stabilizer is the preimage of the group H_L of those
classes under (Z/M)^x -> (Z/L)^x, which is onto with fibres of size
phi(M)/phi(L), so the degree is phi(L)/|H_L| and the field is real
when -1 mod L is in H_L. H_L has at most N elements, whatever M is;
the test suite keeps the full scan of Z/M, reduced mod L, as the oracle.
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
)

__all__ = ["CharacterField", "character_field"]


@dataclass(frozen=True)
class CharacterField:
    """The field of values: conductor M, modulus L, H_L sorted in [0, L), degree."""

    conductor: int
    modulus: int
    stabilizer: tuple[int, ...]
    degree: int

    @property
    def is_real(self) -> bool:
        # conjugation is the unit -1
        return (-1) % self.modulus in self.stabilizer


def character_field(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> CharacterField:
    """Field of character values of the induced irreducible for psi.

    Works at exponent level: the stabilizer of the value vector inside
    (Z/M)^x is {j : j*a in orbit(a), j*c = c mod N/f}, the preimage of
    its image H_L in (Z/L)^x (see the module docstring). H_L holds, for
    each r = s^k mod m/gcd(a, m), the class mod L that is r there and
    1 mod (N/f)/gcd(c, N/f), if there is one. The degree phi(L)/|H_L|
    must divide exactly; a remainder would contradict the group
    structure and raises InternalConsistencyError.
    """
    _require_irreducible(G, psi)
    f, a, c = psi.f, psi.a, psi.c
    Nf = G.N // f
    m_a = G.m // gcd(a, G.m)
    n_c = Nf // gcd(c, Nf)
    L = lcm(m_a, n_c)
    # each r = s^k mod m_a meets 1 mod n_c in at most one class mod L
    residues = {p % m_a for p in G.s_powers}
    stab = sorted(j for r in residues for j in range(r, L, m_a) if j % n_c == 1 % n_c)
    phi = euler_phi(L)
    if phi % len(stab) != 0:
        raise InternalConsistencyError(
            f"stabilizer size {len(stab)} does not divide phi({L}) = {phi} "
            f"for psi={psi} on {G}"
        )
    return CharacterField(_char_conductor(G, psi), L, tuple(stab), phi // len(stab))
