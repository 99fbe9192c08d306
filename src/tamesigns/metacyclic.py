"""Metacyclic groups and their induced characters, exactly.

The groups handled here are split metacyclic:

    G = C_m x| C_N = < x, t | x^m = 1, t^N = 1, t x t^-1 = x^s >

with s^N = 1 (mod m). Elements are written x^i t^j with 0 <= i < m and
0 <= j < N, multiplied by (i1, j1)(i2, j2) = (i1 + s^j1 * i2, j1 + j2).

Every irreducible representation is induced: pick an orbit O of
multiplication by s on Z/m, let f = |O| and a = min(O), pick c with
0 <= c < N/f, and induce the character psi of S = < x, t^f > given by
psi(x) = zeta_m^a, psi(t^f) = zeta_{N/f}^c up to G. This enumerates the
irreducibles exactly once each, and sum of (dim)^2 = m*N.

Character sums over G (Frobenius-Schur, norms, twisted pairings) are
evaluated by collapsing the sum over the normal subgroup <x> with the
complete-sum identity sum_i zeta_m^(K*i) = m*[K == 0 mod m]. The
collapse is an exact integer identity, not an approximation; the test
suite re-derives the same quantities by literal sums over all group
elements on small groups.

Every power of s is read from one table, s^k mod m for 0 <= k < N
(MetacyclicGroup.s_powers). The group builds it once, when it is
constructed, and checks s^N = 1 (mod m) from its last entry. make_group
returns one shared group per (m, N, s): the group is frozen, so it is
built and checked once per process, and a refused (m, N, s) raises on
every call, since a raised error is not cached. The Galois
orbit has one walk, orbit_of, a separate running product, and one
partition, orbit_partition, which walks each orbit of Z/m once with it.
enumerate_irreps iterates orbit_partition(s, m); the division-side scan
calls it at (q, q^(f/2) + 1); the irreducibility cross-check compares
an orbit's size with the norm route, which reads the table.

The cross-check runs when an irrep is built, not when it is used, and
once per orbit (f, a): the norm route does not depend on c, so one
check covers every c of the orbit. orbit_irreps is that step: it checks
the orbit once and then emits its Irreps. enumerate_irreps iterates it
over orbit_partition(s, m), and the division-side scan calls it once
per self-dual orbit for the two c it needs. An Irrep is bound to its
group, and the character routes (fs_indicator, fs_indicator_raw,
theta_sign, and rationality's character_field and is_real_character)
trust an Irrep only on the group it was checked on. Any other psi, a
plain SubgroupCharacter or an Irrep of another group, is checked again
on every call.

Most irreps are not self-dual, and each sign route decides their 0 by
its own orbit test, after the irreducibility guard and before any
cyclotomic arithmetic: fs_indicator_raw returns cyc_zero(N/f) when -a
is not in the orbit of a (no j has a*s^j = -a), and theta_sign returns
0 when -u*a is not (no seed survives). Every other psi goes through
root_sum and, in theta_sign, the seed projection with its symmetry
check; fs_indicator's three checks run on every sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

from .cyclotomic import CycInt, cyc_root, cyc_zero, root_sum, try_as_integer
from .errors import InternalConsistencyError, UsageError

__all__ = [
    "MetacyclicGroup",
    "GroupElem",
    "SubgroupCharacter",
    "Irrep",
    "InvolutionSpec",
    "make_group",
    "elements",
    "elem_mul",
    "elem_inv",
    "orbit_of",
    "orbit_partition",
    "make_subgroup_character",
    "orbit_irreps",
    "enumerate_irreps",
    "induced_character",
    "is_irreducible_induced",
    "fs_indicator",
    "fs_indicator_raw",
    "involution_count",
    "det_exponents",
    "matrix_model",
    "matrix_of",
    "make_involution",
    "identity_involution",
    "apply_involution",
    "theta_sign",
]


@dataclass(frozen=True)
class MetacyclicGroup:
    """The group C_m x| C_N with conjugation exponent s."""

    m: int
    N: int
    s: int
    # s^k mod m for 0 <= k < N; derived, so not in repr, == or hash
    s_powers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1 or self.N < 1:
            raise UsageError(f"need m >= 1 and N >= 1, got m={self.m}, N={self.N}")
        m, s = self.m, self.s % self.m
        object.__setattr__(self, "s", s)
        powers = [1 % m]
        for _ in range(self.N - 1):
            powers.append(powers[-1] * s % m)
        if powers[-1] * s % m != 1 % m:
            raise UsageError(f"s^N must be 1 mod m: s={s}, N={self.N}, m={m}")
        object.__setattr__(self, "s_powers", tuple(powers))

    @property
    def order(self) -> int:
        return self.m * self.N

    def s_pow(self, k: int) -> int:
        """s^k mod m for any integer k (negatives use s^-1 = s^(N-1))."""
        return self.s_powers[k % self.N]


class GroupElem(NamedTuple):
    """The element x^i t^j, with 0 <= i < m and 0 <= j < N."""

    i: int
    j: int


@cache
def make_group(m: int, N: int, s: int) -> MetacyclicGroup:
    """C_m x| C_N with t x t^-1 = x^s (s^N = 1 mod m), shared per (m, N, s)."""
    return MetacyclicGroup(m, N, s)


def elements(G: MetacyclicGroup) -> Iterator[GroupElem]:
    """All m*N elements in lexicographic (i, j) order."""
    for i in range(G.m):
        for j in range(G.N):
            yield GroupElem(i, j)


def elem_mul(G: MetacyclicGroup, g: GroupElem, h: GroupElem) -> GroupElem:
    """Group product: (i1, j1)(i2, j2) = (i1 + s^j1 * i2, j1 + j2)."""
    return GroupElem(
        (g.i + G.s_pow(g.j) * h.i) % G.m,
        (g.j + h.j) % G.N,
    )


def elem_inv(G: MetacyclicGroup, g: GroupElem) -> GroupElem:
    """Group inverse: (i, j)^-1 = (-s^-j * i, -j)."""
    return GroupElem((-G.s_pow(-g.j) * g.i) % G.m, (-g.j) % G.N)


def orbit_of(a: int, s: int, m: int) -> list[int]:
    """Orbit of a mod m (m >= 1) under multiplication by s, starting at a."""
    a %= m
    out = [a]
    cur = (a * s) % m
    while cur != a:
        out.append(cur)
        cur = (cur * s) % m
    return out


def orbit_partition(s: int, m: int) -> list[tuple[int, int]]:
    """The orbits of multiplication by s (a unit) on Z/m, as (size, min).

    Sorted by (size, min). Each orbit is walked once, with orbit_of from
    its least element, the first residue no earlier walk has reached.
    """
    seen = bytearray(m)
    orbits: list[tuple[int, int]] = []
    for a in range(m):
        if seen[a]:
            continue
        orbit = orbit_of(a, s, m)
        for b in orbit:
            seen[b] = 1
        orbits.append((len(orbit), a))
    orbits.sort()
    return orbits


class SubgroupCharacter(NamedTuple):
    """Inducing data (f, a, c) for an induced representation of G.

    The subgroup is S = < x, t^f > with f | N; the character sends
    x -> zeta_m^a and t^f -> zeta_{N/f}^c. Well-definedness requires
    a * (s^f - 1) = 0 (mod m), i.e. the orbit size of a divides f.
    The induced representation has dimension f and is irreducible
    exactly when the orbit size of a equals f.
    """

    f: int
    a: int
    c: int


def make_subgroup_character(
    G: MetacyclicGroup, f: int, a: int, c: int
) -> SubgroupCharacter:
    """Validated inducing data; see SubgroupCharacter for the conditions."""
    if f < 1 or G.N % f != 0:
        raise UsageError(f"f must divide N={G.N}, got f={f}")
    a %= G.m
    if not 0 <= c < G.N // f:
        raise UsageError(f"need 0 <= c < N/f = {G.N // f}, got c={c}")
    if (a * (G.s_pow(f) - 1)) % G.m != 0:
        raise UsageError(
            f"a={a} is not fixed by t^f: a*(s^f - 1) != 0 mod {G.m}"
        )
    return SubgroupCharacter(f, a, c)


class _IrrepFields(NamedTuple):
    f: int
    a: int
    c: int
    group: MetacyclicGroup


class Irrep(_IrrepFields):
    """Inducing data (f, a, c) checked irreducible on its group.

    The irreducibility cross-check has run on `group`, so the character
    routes take it there without checking again. orbit_irreps builds
    these after one check per orbit; built any other way (the
    constructor, _make, _replace, unpickling), an Irrep is validated
    like make_subgroup_character and checked before it exists.
    """

    __slots__ = ()

    def __new__(cls, f: int, a: int, c: int, group: MetacyclicGroup) -> Irrep:
        psi = make_subgroup_character(group, f, a, c)
        _require_irreducible(group, psi)
        return tuple.__new__(cls, (*psi, group))

    @classmethod
    def _make(cls, iterable) -> Irrep:
        return cls(*iterable)


def orbit_irreps(
    G: MetacyclicGroup, f: int, a: int, cs: Iterable[int]
) -> list[Irrep]:
    """The Irreps (f, a, c) of G for each c in cs, in order, after one
    irreducibility check of the orbit (f, a).

    a, with 0 <= a < m, is in an orbit of multiplication by s on Z/m,
    and f is that orbit's size as the caller's partition reports it.
    (f, a) is validated like make_subgroup_character and checked once,
    with c = 0, by both
    irreducibility routes: the norm route does not depend on c. A
    disagreement raises InternalConsistencyError naming psi, G and both
    values, and an orbit both routes call reducible raises
    InternalConsistencyError too. Each c is range-checked.
    """
    # a is not reduced mod m: the Irreps share the caller's int, which
    # the caller's partition holds anyway
    if not 0 <= a < G.m:
        raise UsageError(f"need 0 <= a < m = {G.m}, got a={a}")
    if not is_irreducible_induced(G, make_subgroup_character(G, f, a, 0)):
        raise InternalConsistencyError(
            f"orbit of a={a} has size {f} but does not induce "
            f"irreducibly on {G}"
        )
    Nf = G.N // f
    out = []
    for c in cs:
        if not 0 <= c < Nf:
            raise UsageError(f"need 0 <= c < N/f = {Nf}, got c={c}")
        out.append(tuple.__new__(Irrep, (f, a, c, G)))
    return out


def enumerate_irreps(G: MetacyclicGroup) -> list[Irrep]:
    """All irreducible representations of G, one Irrep each.

    Irreps are sorted by (f, a, c), with a the minimum of its orbit.
    The list has sum of f^2 equal to |G|. Each orbit (f, a) of
    orbit_partition is checked once, by orbit_irreps.
    """
    out: list[Irrep] = []
    for f, a in orbit_partition(G.s, G.m):
        out += orbit_irreps(G, f, a, range(G.N // f))
    return out


def _char_conductor(G: MetacyclicGroup, psi: SubgroupCharacter | Irrep) -> int:
    return lcm(G.m, G.N // psi.f)


def induced_character(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep, g: GroupElem
) -> CycInt:
    """Value of the induced character at x^i t^j.

    Zero unless f | j; otherwise
    zeta_{N/f}^(c*j/f) * sum_rho zeta_m^(a * s^rho * i), rho over [0, f).
    The result lives at conductor lcm(m, N/f).
    """
    f, a, c = psi.f, psi.a, psi.c
    Nf = G.N // f
    M0 = _char_conductor(G, psi)
    j = g.j % G.N
    if j % f != 0:
        return cyc_zero(M0)
    t_exp = ((c * (j // f)) % Nf) * (M0 // Nf)
    counts: dict[int, int] = {}
    step_m = M0 // G.m
    for p in G.s_powers[:f]:
        e = ((a * p * g.i) % G.m) * step_m + t_exp
        e %= M0
        counts[e] = counts.get(e, 0) + 1
    return root_sum(M0, counts)


def is_irreducible_induced(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> bool:
    """Whether the induced representation is irreducible.

    Two routes, checked against each other on every call: the norm-square
    sum over G, collapsed to m * (N/f) * #{(rho, rho') : a s^rho = a s^rho'},
    must equal |G| exactly when the orbit of a has size f.
    """
    f, a = psi.f, psi.a
    m = G.m
    orbit = orbit_of(a, G.s, m)
    pow_list = [a * p % m for p in G.s_powers[:f]]
    pairs = sum(map(pow_list.count, pow_list))
    norm_raw = m * (G.N // f) * pairs
    by_norm = norm_raw == G.order
    by_orbit = len(orbit) == f
    if by_norm != by_orbit:
        raise InternalConsistencyError(
            f"norm route and orbit route disagree for psi={psi} on {G}: "
            f"norm sum {norm_raw} vs |G| = {G.order}, "
            f"orbit size {len(orbit)} vs f = {f}"
        )
    return by_orbit


def _require_irreducible(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> None:
    # an Irrep was checked when it was built, but only on its own group
    if type(psi) is Irrep and psi.group is G:
        return
    if not is_irreducible_induced(G, psi):
        raise UsageError(f"psi={psi} does not induce irreducibly on {G}")


def fs_indicator_raw(G: MetacyclicGroup, psi: SubgroupCharacter | Irrep) -> CycInt:
    """The unnormalized Frobenius-Schur sum, a CycInt at conductor N/f.

    The sum over g in G of the character at g^2, which is |G| times the
    indicator; fs_indicator reads it, and tests compare it against
    literal element-by-element evaluation.

    A j survives the collapse iff a*s^j = -a (mod m). When none does,
    -a is not in the orbit of a, psi is not self-dual, and the sum is
    cyc_zero(N/f), returned without calling root_sum; otherwise root_sum
    canonicalises the surviving terms, which may still cancel to 0.
    """
    _require_irreducible(G, psi)
    # Collapsed: (x^i t^j)^2 = x^(i(1+s^j)) t^(2j). Summing over i kills
    # every j with a*(1+s^j) != 0 (mod m) and contributes m*f *
    # psi(t^(2j mod N)) otherwise; psi vanishes off <x, t^f>, and f | 2j
    # exactly when f/gcd(f, 2) | j. Keys are exponents of zeta_{N/f}.
    f, a, c = psi.f, psi.a, psi.c
    N, m = G.N, G.m
    Nf = N // f
    spow = G.s_powers
    counts: dict[int, int] = {}
    for j in range(0, N, f // gcd(f, 2)):
        if (a * (1 + spow[j])) % m == 0:
            e = (c * (((2 * j) % N) // f)) % Nf
            counts[e] = counts.get(e, 0) + m * f
    if not counts:
        # no j survives: -a is not in the orbit of a, and the sum is 0
        return cyc_zero(Nf)
    return root_sum(Nf, counts)


def fs_indicator(G: MetacyclicGroup, psi: SubgroupCharacter | Irrep) -> int:
    """Frobenius-Schur indicator of the induced irreducible: -1, 0 or +1.

    Reads fs_indicator_raw as |G| * c. The sum must be a rational
    integer, |G| must divide it, and c must be in {-1, 0, +1}; any other
    value raises InternalConsistencyError rather than being rounded.
    """
    raw = fs_indicator_raw(G, psi)
    total = try_as_integer(raw)
    if total is None:
        raise InternalConsistencyError(
            f"FS sum for psi={psi} on {G} is not a rational integer: "
            f"conductor {raw.conductor}, coefficients {raw.coeffs}"
        )
    if total % G.order != 0:
        raise InternalConsistencyError(
            f"FS sum for psi={psi} on {G} is not |G| * c: sum={total}"
        )
    ind = total // G.order
    if ind not in (-1, 0, 1):
        raise InternalConsistencyError(
            f"FS indicator for psi={psi} on {G} out of range: {ind}"
        )
    return ind


def involution_count(G: MetacyclicGroup) -> int:
    """Number of solutions of g^2 = identity, by exact closed form.

    g = x^i t^j squares to x^(i(1+s^j)) t^(2j); j must satisfy 2j = 0
    (mod N) and then i ranges over the gcd(1 + s^j, m) solutions of
    (1 + s^j) i = 0 (mod m).
    """
    total = 0
    js = [0] + ([G.N // 2] if G.N % 2 == 0 else [])
    for j in js:
        K = (1 + G.s_pow(j)) % G.m
        total += gcd(K, G.m) if K else G.m
    return total


def _orbit_sum(G: MetacyclicGroup, psi: SubgroupCharacter | Irrep) -> int:
    # sum over rho in [0, f) of a * s^rho, mod m; equals the det exponent
    # of pi(x) since the diagonal of pi(x) carries the orbit of a.
    f, a = psi.f, psi.a
    return sum(a * p % G.m for p in G.s_powers[:f]) % G.m


def det_exponents(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Determinants of pi(x) and pi(t) as (conductor, exponent) pairs.

    det pi(x) = zeta_m^(sum of the orbit of a); det pi(t) =
    (-1)^(f-1) * zeta_{N/f}^c, returned at conductor lcm(2, N/f).
    """
    f, c = psi.f, psi.c
    Nf = G.N // f
    M1 = lcm(2, Nf)
    kx = _orbit_sum(G, psi)
    kt = (((f - 1) % 2) * (M1 // 2) + (c % Nf) * (M1 // Nf)) % M1
    return (G.m, kx), (M1, kt)


# ---------------------------------------------------------------------------
# explicit monomial matrices


def matrix_of(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep, g: GroupElem
) -> list[list[CycInt]]:
    """The monomial matrix of x^i t^j on the basis e_0 .. e_{f-1}.

    The model: pi(x) e_rho = zeta_m^(a * s^-rho) e_rho, pi(t) e_rho =
    e_{rho+1} for rho < f-1 and pi(t) e_{f-1} = psi(t^f) e_0. Entries
    live at conductor lcm(m, N/f).
    """
    f, a, c = psi.f, psi.a, psi.c
    Nf = G.N // f
    M0 = _char_conductor(G, psi)
    step_m = M0 // G.m
    step_t = M0 // Nf
    i, j = g.i % G.m, g.j % G.N
    sinv_pows = [G.s_pow(-r) for r in range(f)]
    rows = [[cyc_zero(M0) for _ in range(f)] for _ in range(f)]
    for alpha in range(f):
        mu = (alpha + j) % f
        k = (alpha + j) // f
        e = (((i * a * sinv_pows[mu]) % G.m) * step_m + ((c * k) % Nf) * step_t) % M0
        rows[mu][alpha] = cyc_root(M0, e)
    return rows


def matrix_model(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> dict[str, list[list[CycInt]]]:
    """Matrices of the two generators x and t for the induced model."""
    return {
        "x": matrix_of(G, psi, GroupElem(1 % G.m, 0)),
        "t": matrix_of(G, psi, GroupElem(0, 1 % G.N)),
    }


# ---------------------------------------------------------------------------
# involutions of G and twisted orthogonality


@dataclass(frozen=True)
class InvolutionSpec:
    """An order-<=2 automorphism theta(x) = x^u, theta(t) = x^v t^w."""

    u: int
    v: int
    w: int


def _twisted_prefix(G: MetacyclicGroup, w: int) -> list[int]:
    # T[j] = sum over l in [0, j) of s^(w*l), mod m, for 0 <= j <= N.
    spow, N, m = G.s_powers, G.N, G.m
    T = [0] * (N + 1)
    for j in range(N):
        T[j + 1] = (T[j] + spow[(w * j) % N]) % m
    return T


def make_involution(G: MetacyclicGroup, u: int, v: int, w: int) -> InvolutionSpec:
    """Validated involution data; raises UsageError unless theta is an
    automorphism with theta^2 = identity.

    Conditions, with all congruences mod m unless noted:
    u^2 = 1; w^2 = 1 (mod N); u*s^w = u*s (theta respects t x t^-1 = x^s);
    v * sum_{l<N} s^(w l) = 0 (theta(t)^N = 1);
    u*v + v * sum_{l<w} s^(w l) = 0 (theta^2(t) = t).
    """
    u %= G.m
    v %= G.m
    w %= G.N
    if (u * u - 1) % G.m != 0:
        raise UsageError(f"u^2 != 1 mod m: u={u}, m={G.m}")
    if (w * w - 1) % G.N != 0:
        raise UsageError(f"w^2 != 1 mod N: w={w}, N={G.N}")
    if (u * (G.s_pow(w) - G.s)) % G.m != 0:
        raise UsageError(f"theta breaks the conjugation relation: u={u}, w={w}")
    T = _twisted_prefix(G, w)
    if (v * T[G.N]) % G.m != 0:
        raise UsageError(f"theta(t)^N != 1: v={v}, w={w}")
    if (u * v + v * T[w]) % G.m != 0:
        raise UsageError(f"theta^2(t) != t: u={u}, v={v}, w={w}")
    return InvolutionSpec(u, v, w)


def identity_involution(G: MetacyclicGroup) -> InvolutionSpec:
    """The identity automorphism as an InvolutionSpec."""
    return make_involution(G, 1 % G.m, 0, 1 % G.N)


def apply_involution(
    G: MetacyclicGroup, theta: InvolutionSpec, g: GroupElem
) -> GroupElem:
    """theta(x^i t^j) = x^(u i + v * sum_{l<j} s^(w l)) t^(w j)."""
    i, j = g.i % G.m, g.j % G.N
    return GroupElem(
        (theta.u * i + theta.v * _twisted_prefix(G, theta.w)[j]) % G.m,
        (theta.w * j) % G.N,
    )


def theta_sign(
    G: MetacyclicGroup, theta: InvolutionSpec, psi: SubgroupCharacter | Irrep
) -> int:
    """Sign of the theta-twisted invariant bilinear form: -1, 0 or +1.

    Projects elementary-matrix seeds E_{mu,nu} (row-major order) by the
    exact average B = sum_g pi(g)^T E pi(theta(g)). The space of
    invariant forms is at most one-dimensional, so the first seed with a
    nonzero projection decides: B symmetric gives +1, antisymmetric -1;
    all projections zero gives 0. A nonzero B that is neither raises
    InternalConsistencyError. With theta the identity this computes the
    Frobenius-Schur indicator by an independent route.

    The sum over the normal subgroup <x> is collapsed exactly: the seed
    survives only if a*s^-mu = -u*a*s^-nu (mod m), and the remaining
    sum over j in [0, N) is accumulated at exponent level.

    Where 0 is decided: some seed survives iff -u*a is in the orbit
    {a*s^r : 0 <= r < f}, which depends on u and not on v, w or c. When
    it is not, the sign is 0 before any seed is built. Otherwise -u*a =
    a*s^r, the surviving seeds are the f pairs (mu, mu + r mod f), they
    are projected in turn, and 0 means every projection vanished.
    """
    _require_irreducible(G, psi)
    f, a, c = psi.f, psi.a, psi.c
    N, m = G.N, G.m
    Nf = N // f
    u, v, w = theta.u, theta.v, theta.w
    spow = G.s_powers
    # a*s^-mu = -u*a*s^-nu iff -u*a = a*s^(nu-mu); the orbit has exactly
    # f points, so row mu has one seed, nu = mu + r, or none has any
    orbit = [a * p % m for p in spow[:f]]
    target = (-u * a) % m
    if target not in orbit:
        return 0
    r = orbit.index(target)
    sinv_pows = [spow[-k % N] for k in range(f)]
    T = _twisted_prefix(G, w)
    M0 = _char_conductor(G, psi)
    step_m = M0 // m
    step_t = M0 // Nf

    for mu in range(f):
        nu = (mu + r) % f
        vas = v * a * sinv_pows[nu] % m  # em below is v*T[j]*a*s^-nu
        cells: dict[tuple[int, int], dict[int, int]] = {}
        for j in range(N):
            alpha = (mu - j) % f
            k1 = (alpha + j) // f
            jp = (w * j) % N
            beta = (nu - jp) % f
            k2 = (beta + jp) // f
            em = T[j] * vas % m
            et = (c * (k1 + k2)) % Nf
            e = (em * step_m + et * step_t) % M0
            ctr = cells.setdefault((alpha, beta), {})
            ctr[e] = ctr.get(e, 0) + 1
        # shrink to the smallest conductor the exponents actually need
        g_all = 0
        for ctr in cells.values():
            for e in ctr:
                g_all = gcd(g_all, e)
        g_all = gcd(g_all, M0) or M0
        Meff = M0 // g_all
        vals = {
            key: root_sum(Meff, {e // g_all: n for e, n in ctr.items()})
            for key, ctr in cells.items()
        }
        if not any(bool(val) for val in vals.values()):
            continue
        zero = cyc_zero(Meff)
        sym = all(
            vals.get((b_, a_), zero) == vals.get((a_, b_), zero)
            for a_ in range(f)
            for b_ in range(f)
        )
        if sym:
            return 1
        anti = all(
            vals.get((b_, a_), zero) == -vals.get((a_, b_), zero)
            for a_ in range(f)
            for b_ in range(f)
        )
        if anti:
            return -1
        raise InternalConsistencyError(
            f"twisted form for psi={psi}, theta={theta} on {G} is "
            f"neither symmetric nor antisymmetric at seed (mu, nu) = "
            f"({mu}, {nu})"
        )
    return 0
