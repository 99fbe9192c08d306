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

Character sums over G (Frobenius-Schur, norms, the invariant bilinear
form) are evaluated by collapsing the sum over the normal subgroup <x>
with the complete-sum identity sum_i zeta_m^(K*i) = m*[K == 0 mod m]. The
collapse is an exact integer identity, not an approximation; the test
suite re-derives the same quantities by literal sums over all group
elements on small groups.

Every power of s is read from one table, s^k mod m for 0 <= k < N
(MetacyclicGroup.s_powers), built and checked (s^N = 1 mod m) once per
(m, N, s): make_group shares one frozen group per triple, and a refused
triple raises on every call. The geometric sums sum_{l<j} s^l mod m,
0 <= j <= N, are a second table built with it (MetacyclicGroup.s_prefix),
which det_exponents reads.
orbit_of checks s and runs the one orbit walk; orbit_partition, the one
partition of Z/m into orbits, checks s once and walks each orbit once.

Validated data is bound to its group and trusted only there. An Irrep
has passed the irreducibility cross-check on its group: orbit_irreps,
which takes every orbit of one size and serves both enumerations and
division_model, runs it once per class d = m/gcd(a, m) of the group,
since the orbit size, the norm route's pair count and well-definedness
depend on a only through d; G.orbit_sizes keeps the size checked for
each class. The character routes (fs_indicator, fs_indicator_raw,
theta_sign, and rationality's character_field) check any other psi
again on every call, from make_subgroup_character's validation on;
det_exponents, induced_character and matrix_of validate it as
make_subgroup_character does.

Most irreps are not self-dual, and each sign route decides their 0 by
its own orbit test, before any cyclotomic arithmetic. Both tests depend
on a only through d: a*(1+s^j) = 0 (mod m) iff d | 1+s^j, and
-a = a*s^r (mod m) iff d | s^r+1. Each route keeps its answers on
the group, one entry per class, built on the class's first call. The
Frobenius-Schur sum depends on psi only through (f, d, c), so
G.fs_values keeps one (sum, indicator) entry per class (f, d, c): its
one builder, _fs_value, forms the collapsed sum with root_sum and runs
the indicator's three checks once per class, and fs_indicator_raw and
fs_indicator both read it. theta_sign, the sign of the invariant
bilinear form, reads its shift r, or None, from G.theta_shifts, keyed
by (f, d), and returns 0 on None. The two share no table. Their keys
are small-int tuples, which hash without the Python-level call a
frozen group's hash makes, and they go away with their group. G.order
(m*N) is a stored field, like G.s_powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence

from .cyclotomic import CycInt, cyc_neg, cyc_root, cyc_zero, root_sum, try_as_integer
from .errors import InternalConsistencyError, UsageError

__all__ = [
    "MetacyclicGroup",
    "GroupElem",
    "SubgroupCharacter",
    "Irrep",
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
    "matrix_of",
    "identity_involution",
    "theta_sign",
]


@dataclass(frozen=True)
class MetacyclicGroup:
    """The group C_m x| C_N with conjugation exponent s."""

    m: int
    N: int
    s: int
    # derived, so not in repr, == or hash: s^k mod m for 0 <= k < N,
    # sum_{l<j} s^l mod m for 0 <= j <= N, m*N, and the per-class memos
    # of orbit_irreps and the two sign routes, filled on demand
    s_powers: tuple[int, ...] = field(init=False, repr=False, compare=False)
    s_prefix: tuple[int, ...] = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)
    orbit_sizes: dict[int, int] = field(init=False, repr=False, compare=False)
    fs_values: dict[tuple[int, int, int], tuple[CycInt, int]] = field(
        init=False, repr=False, compare=False
    )
    theta_shifts: dict[tuple[int, int], int | None] = field(
        init=False, repr=False, compare=False
    )

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
        prefix = tuple(total % m for total in accumulate(powers, initial=0))
        object.__setattr__(self, "s_prefix", prefix)
        object.__setattr__(self, "order", m * self.N)
        object.__setattr__(self, "orbit_sizes", {})
        object.__setattr__(self, "fs_values", {})
        object.__setattr__(self, "theta_shifts", {})

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


def _refuse_walk(s: int, m: int) -> NoReturn:
    # the walk returns to its start only when s is a unit mod m >= 1
    if m < 1:
        raise UsageError(f"need m >= 1, got m={m}")
    raise UsageError(f"s={s} is not a unit mod m={m}, so its orbits do not close")


def orbit_of(a: int, s: int, m: int) -> list[int]:
    """Orbit of a mod m (m >= 1) under multiplication by s, starting at a.

    s must be a unit mod m; any other s or m raises UsageError before
    the walk, which would otherwise never return to a.
    """
    if m < 1 or gcd(s, m) != 1:
        _refuse_walk(s, m)
    return _orbit_walk(a % m, s, m)


def _orbit_walk(a: int, s: int, m: int) -> list[int]:
    # the one orbit walk, for 0 <= a < m and s a unit mod m >= 1
    out = [a]
    cur = (a * s) % m
    while cur != a:
        out.append(cur)
        cur = (cur * s) % m
    return out


def orbit_partition(s: int, m: int) -> dict[int, list[int]]:
    """The orbits of multiplication by s (a unit) on Z/m: {size: least
    elements of the orbits of that size}, sizes and elements ascending.

    Each orbit is walked once, from the first residue no earlier walk
    has reached. A non-unit s or an m < 1 raises UsageError, as in
    orbit_of, before any table of Z/m is made.
    """
    if m < 1 or gcd(s, m) != 1:
        _refuse_walk(s, m)
    seen = bytearray(m)
    by_size: dict[int, list[int]] = {}
    a = 0
    while a != -1:
        orbit = _orbit_walk(a, s, m)
        for b in orbit:
            seen[b] = 1
        by_size.setdefault(len(orbit), []).append(a)
        a = seen.find(0, a + 1)
    return dict(sorted(by_size.items()))


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
    these after one check per class d = m/gcd(a, m) of the group;
    built any other way (the constructor, _make, _replace, unpickling),
    an Irrep is validated like make_subgroup_character and checked
    before it exists.
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
    G: MetacyclicGroup, f: int, avals: Iterable[int], cs: Sequence[int]
) -> list[Irrep]:
    """The Irreps (f, a, c) of G for each a in avals, then each c in cs,
    after one irreducibility check per class d = m/gcd(a, m) of G.

    Each a (0 <= a < m) is in an orbit of s on Z/m of the size f the
    caller reports. f | N and each 0 <= c < N/f are validated first,
    once. A class's first orbit is validated like make_subgroup_character
    and checked at c = 0 by both irreducibility routes, and G.orbit_sizes
    keeps its size. InternalConsistencyError names psi, G and both values
    if the routes disagree, the orbit if both call it reducible, and a,
    f, d, the kept size and G for a later orbit of the class off that
    size: orbit size, norm route and well-definedness depend on a via d.
    """
    if f < 1 or G.N % f != 0:
        raise UsageError(f"f must divide N={G.N}, got f={f}")
    Nf = G.N // f
    for c in cs:
        if not 0 <= c < Nf:
            raise UsageError(f"need 0 <= c < N/f = {Nf}, got c={c}")
    m, sizes = G.m, G.orbit_sizes
    out: list[Irrep] = []
    for a in avals:
        if not 0 <= a < m:
            raise UsageError(f"need 0 <= a < m = {m}, got a={a}")
        d = m // gcd(a, m)
        size = sizes.get(d)
        if size is None:
            if not is_irreducible_induced(G, make_subgroup_character(G, f, a, 0)):
                raise InternalConsistencyError(
                    f"orbit of a={a} has size {f} but does not induce "
                    f"irreducibly on {G}"
                )
            sizes[d] = f
        elif size != f:
            raise InternalConsistencyError(
                f"orbit of a={a} has size {f}, but its class "
                f"d = m/gcd(a, m) = {d} was checked at size {size} on {G}"
            )
        # the class check stands in for the constructor's; a stays unreduced
        for c in cs:
            out.append(tuple.__new__(Irrep, (f, a, c, G)))
    return out


def enumerate_irreps(G: MetacyclicGroup) -> list[Irrep]:
    """All irreducible representations of G, one Irrep each.

    Irreps are sorted by (f, a, c), with a the minimum of its orbit, and
    sum of f^2 is |G|. One orbit_irreps call per orbit size checks
    irreducibility once per class d = m/gcd(a, m) of G.
    """
    out: list[Irrep] = []
    for f, avals in orbit_partition(G.s, G.m).items():
        out += orbit_irreps(G, f, avals, range(G.N // f))
    return out


def _char_conductor(G: MetacyclicGroup, psi: SubgroupCharacter | Irrep) -> int:
    return lcm(G.m, G.N // psi.f)


def induced_character(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep, g: GroupElem
) -> CycInt:
    """Value of the induced character at x^i t^j.

    Zero unless f | j; otherwise
    zeta_{N/f}^(c*j/f) * sum_rho zeta_m^(a * s^rho * i), rho over [0, f).
    The result lives at conductor lcm(m, N/f). A psi that is not an
    Irrep on G is validated first, as by make_subgroup_character.
    """
    if type(psi) is not Irrep or psi.group is not G:
        make_subgroup_character(G, psi.f, psi.a, psi.c)
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
    must equal |G| exactly when the orbit of a has size f. psi is first
    validated like make_subgroup_character, so ill-defined or
    out-of-range data raises its UsageError.
    """
    make_subgroup_character(G, psi.f, psi.a, psi.c)
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
    indicator fs_indicator returns; tests compare it against literal
    element-by-element evaluation. It is read from the group's memo
    G.fs_values, one (sum, indicator) entry per class (f, d, c) of G with
    d = m/gcd(a, m), built on the class's first call by _fs_value; see
    there for why the class decides the sum. The builder also runs the
    indicator's checks, so a sum that fails them raises
    InternalConsistencyError from this route too.
    """
    if type(psi) is not Irrep or psi.group is not G:
        _require_irreducible(G, psi)
    key = (psi.f, G.m // gcd(psi.a, G.m), psi.c)
    try:
        return G.fs_values[key][0]
    except KeyError:
        return _fs_value(G, psi, key)[0]


def fs_indicator(G: MetacyclicGroup, psi: SubgroupCharacter | Irrep) -> int:
    """Frobenius-Schur indicator of the induced irreducible: -1, 0 or +1.

    The indicator c of fs_indicator_raw's sum, |G| * c, read from the
    same entry of G.fs_values. When its class's entry was built, the sum
    had to be a rational integer that |G| divides, with c in {-1, 0, +1};
    any other value raised InternalConsistencyError rather than being
    rounded, and was not kept.
    """
    if type(psi) is not Irrep or psi.group is not G:
        _require_irreducible(G, psi)
    key = (psi.f, G.m // gcd(psi.a, G.m), psi.c)
    try:
        return G.fs_values[key][1]
    except KeyError:
        return _fs_value(G, psi, key)[1]


def _fs_value(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep, key: tuple[int, int, int]
) -> tuple[CycInt, int]:
    """Build, check and keep the FS entry (sum, indicator) of psi's class.

    key is (f, d, c) with d = m/gcd(a, m). The sum is collapsed exactly:
    (x^i t^j)^2 = x^(i(1+s^j)) t^(2j), psi vanishes off <x, t^f>, and
    f | 2j exactly when f/gcd(f, 2) | j. Summing over i kills every j
    with a*(1+s^j) != 0 (mod m), that is every j with d not dividing
    1+s^j, and each surviving j adds m*f * zeta_{N/f}^(c*k) with k =
    (2j mod N)/f. So the sum and the indicator are functions of (f, d, c)
    on G. root_sum canonicalises the surviving terms, which may cancel to
    0; when no j survives, -a is not in the orbit of a, psi is not
    self-dual, and the sum is root_sum's empty sum. The sum must be a
    rational integer that |G| divides, with quotient in {-1, 0, +1}; any
    other value raises InternalConsistencyError naming psi and G, and no
    entry is kept.
    """
    f, d, c = key
    N, spow = G.N, G.s_powers
    Nf = N // f
    mf = G.m * f
    counts: dict[int, int] = {}  # exponents of zeta_{N/f} -> coefficient
    for j in range(0, N, f // gcd(f, 2)):
        if (1 + spow[j]) % d == 0:
            e = c * ((2 * j % N) // f) % Nf
            counts[e] = counts.get(e, 0) + mf
    raw = root_sum(Nf, counts)
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
    entry = G.fs_values[key] = (raw, ind)
    return entry


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
        total += gcd(K, G.m)
    return total


def det_exponents(
    G: MetacyclicGroup, psi: SubgroupCharacter | Irrep
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Determinants of pi(x) and pi(t) as (conductor, exponent) pairs.

    det pi(x) = zeta_m^(sum of the orbit of a); det pi(t) =
    (-1)^(f-1) * zeta_{N/f}^c, returned at conductor lcm(2, N/f). A psi
    that is not an Irrep on G is validated first, as by
    make_subgroup_character.
    """
    if type(psi) is not Irrep or psi.group is not G:
        make_subgroup_character(G, psi.f, psi.a, psi.c)
    f, c = psi.f, psi.c
    Nf = G.N // f
    M1 = lcm(2, Nf)
    # the diagonal of pi(x) carries the orbit a * s^rho, 0 <= rho < f, so
    # its exponents sum to a * (s^0 + ... + s^(f-1)) mod m
    kx = psi.a * G.s_prefix[f] % G.m
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
    live at conductor lcm(m, N/f). A psi that is not an Irrep on G is
    validated first, as by make_subgroup_character.
    """
    if type(psi) is not Irrep or psi.group is not G:
        make_subgroup_character(G, psi.f, psi.a, psi.c)
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


# ---------------------------------------------------------------------------
# the invariant bilinear form


# the identity automorphism: it has no fields, so it is valid on every group
_IDENTITY = object()


def identity_involution(G: MetacyclicGroup) -> object:
    """The identity automorphism of G, the one theta that theta_sign takes.

    It stays only for the benchmark's call theta_sign(G, theta, psi); the
    argument goes when that call changes (ROADMAP item 10, "Pairings").
    """
    return _IDENTITY


def _theta_shift(G: MetacyclicGroup, f: int, d: int) -> int | None:
    # the least r in [0, f) with -a = a*s^r (mod m), or None when -a is
    # not in the orbit of a; the congruence is d | s^r + 1 with
    # d = m/gcd(a, m), so the shift is one per class (f, d) of G:
    # G.theta_shifts keeps it
    for r, p in enumerate(G.s_powers[:f]):
        if (p + 1) % d == 0:
            return r
    return None


def theta_sign(
    G: MetacyclicGroup, theta: object, psi: SubgroupCharacter | Irrep
) -> int:
    """Sign of the invariant bilinear form of the induced irreducible:
    -1, 0 or +1, the Frobenius-Schur indicator by an independent route.

    theta must be identity_involution(G), of any group (see there for
    when the argument goes); anything else raises UsageError.

    Projects the elementary-matrix seed E = E_{0,r} by the exact average
    B = sum_g pi(g)^T E pi(g). The space of invariant forms is at most
    one-dimensional, so B decides: symmetric gives +1, antisymmetric -1,
    B = 0 gives 0; a nonzero B that is neither raises
    InternalConsistencyError.

    The sum over <x> is collapsed exactly: E_{mu,nu} survives only if
    -a = a*s^r (mod m) with nu = mu + r (mod f), that is iff d =
    m/gcd(a, m) divides s^r+1. The least such r in [0, f), or None, is
    read from the memo G.theta_shifts, built on a class's first call
    with one entry per class (f, d) of G and used by this route only; on
    None the sign is 0 before any seed is built.

    One seed is enough: re-indexing the sum gives P(pi(h)^T E pi(h)) =
    P(E) for every h, and for h = t^k the left side is a nonzero root of
    unity times one seed in row mu-k. Row 0's only seed is (0, r), so if
    any seed (mu, mu+r) has a nonzero projection, so has (0, r). The sum
    over j in [0, N) fills the cells (-j, r - j) mod f with powers of
    zeta_{N/f}, and every transpose is filled (2r = 0 mod f), so one
    pass over the cells, each against its transpose, decides B^T = B,
    B^T = -B, or both (B = 0).
    """
    if type(psi) is not Irrep or psi.group is not G:
        _require_irreducible(G, psi)
    if theta is not _IDENTITY:
        raise UsageError(
            "theta_sign computes only the untwisted invariant form: theta "
            f"must be identity_involution(G), got {theta!r}"
        )
    f, c = psi.f, psi.c
    key = (f, G.m // gcd(psi.a, G.m))
    try:
        r = G.theta_shifts[key]
    except KeyError:
        r = G.theta_shifts[key] = _theta_shift(G, *key)
    if r is None:
        return 0
    Nf = G.N // f
    cells: dict[tuple[int, int], dict[int, int]] = {}
    for j in range(G.N):
        alpha, beta = -j % f, (r - j) % f
        e = c * ((alpha + j) // f + (beta + j) // f) % Nf
        ctr = cells.setdefault((alpha, beta), {})
        ctr[e] = ctr.get(e, 0) + 1
    # shrink to the smallest conductor the exponents actually need
    g_all = gcd(Nf, *(e for ctr in cells.values() for e in ctr))
    Meff = Nf // g_all
    vals = {
        cell: root_sum(Meff, {e // g_all: n for e, n in ctr.items()})
        for cell, ctr in cells.items()
    }
    sym = anti = True
    for (alpha, beta), val in vals.items():
        other = vals[beta, alpha]
        sym = sym and other == val
        anti = anti and other == cyc_neg(val)
    if sym and anti:  # B = 0
        return 0
    if sym or anti:
        return 1 if sym else -1
    raise InternalConsistencyError(
        f"invariant form for psi={psi} on {G} is neither symmetric nor "
        f"antisymmetric at seed (mu, nu) = (0, {r})"
    )
