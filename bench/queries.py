"""The seeded stream of single-datum `sign` queries (workload sign_queries).

Every query is drawn from a fixed pool: a list of configurations
(side, q, n, f, kind), each with a few candidate exponents a and both
signs w, plus a list of invalid invocations whose expected result is
exit code 1. The pool does not depend on the seed, so reference.json
can hold one reply digest for every pool entry and every seed is checked
in full. The seed only chooses which candidates fill each
configuration's share of a pass, and their order.

The mix is an assumption, not measured user traffic: no record of the
calls users make exists. It covers what the workload has to cover (both
sides, self-dual and non-self-dual data, a small invalid share, and
field conductors from 4 to 531,440) by one rule: every configuration
gets the same number of queries per pass as the others of its conductor
class (PER_PASS), and every invalid invocation gets INVALID_PER_PASS.
The class counts were picked so that the latency distribution keeps its
shape for every seed: cheap queries are three in four and set the
median, and the 33 large ones hold the top ranks, so the 99th
percentile (nine samples above it) falls inside one cost class, not on
a boundary. A gain on sign_queries is a gain on this mix, not on a
measured workload.

Labels (self-dual or not) are computed here from the orbit of a under
multiplication by q, independently of the package: a self-dual datum
has f even and -a in the orbit; a non-self-dual one has -a outside it.
"""

from __future__ import annotations

import random
from math import lcm

CANDIDATES = 4  # exponents a per configuration; each is used with w = +1 and -1
# Above this conductor a configuration has one exponent, so the large
# queries (which set the 99th percentile and the peak RSS through their
# stabilizer tuples) are the same for every seed.
LARGE_CONDUCTOR = 100_000
# Queries per pass for each configuration, by conductor class: cheap
# (below 1,000), medium (below 200,000) and large.
PER_PASS = ((1_000, 24), (200_000, 10), (None, 3))
INVALID_PER_PASS = 6

# (side, q, n, f, kind); n is unused on the weil side
CONFIGS = (
    # cheap: conductor 4 .. 728
    ("division", 2, 2, 2, "selfdual"),
    ("division", 2, 4, 2, "selfdual"),
    ("division", 2, 4, 4, "selfdual"),
    ("division", 3, 2, 2, "selfdual"),
    ("division", 3, 4, 2, "selfdual"),
    ("division", 3, 4, 4, "selfdual"),
    ("division", 4, 2, 2, "selfdual"),
    ("division", 5, 2, 2, "selfdual"),
    ("division", 2, 6, 6, "selfdual"),
    ("division", 7, 2, 2, "selfdual"),
    ("division", 3, 6, 6, "selfdual"),
    ("division", 4, 4, 4, "selfdual"),
    ("division", 5, 2, 1, "nonselfdual"),
    ("division", 2, 3, 3, "nonselfdual"),
    ("division", 3, 3, 3, "nonselfdual"),
    ("division", 2, 4, 4, "nonselfdual"),
    ("division", 4, 2, 1, "nonselfdual"),
    ("division", 8, 2, 2, "nonselfdual"),
    ("division", 5, 4, 4, "nonselfdual"),
    ("weil", 2, 0, 2, "selfdual"),
    ("weil", 3, 0, 2, "selfdual"),
    ("weil", 3, 0, 4, "selfdual"),
    ("weil", 5, 0, 2, "selfdual"),
    ("weil", 2, 0, 4, "selfdual"),
    ("weil", 9, 0, 2, "selfdual"),
    ("weil", 2, 0, 6, "selfdual"),
    ("weil", 2, 0, 3, "nonselfdual"),
    ("weil", 5, 0, 1, "nonselfdual"),
    ("weil", 3, 0, 3, "nonselfdual"),
    ("weil", 4, 0, 4, "nonselfdual"),
    # medium: conductor 2,400 .. 131,070
    ("division", 7, 4, 4, "selfdual"),
    ("division", 2, 12, 12, "selfdual"),
    ("division", 3, 8, 8, "selfdual"),
    ("division", 5, 6, 6, "selfdual"),
    ("division", 11, 4, 4, "selfdual"),
    ("division", 2, 14, 14, "selfdual"),
    ("division", 3, 10, 10, "selfdual"),
    ("division", 4, 8, 8, "selfdual"),
    ("weil", 3, 0, 8, "selfdual"),
    ("weil", 5, 0, 6, "selfdual"),
    ("weil", 13, 0, 4, "selfdual"),
    ("weil", 2, 0, 16, "selfdual"),
    ("division", 2, 13, 13, "nonselfdual"),
    ("division", 3, 9, 9, "nonselfdual"),
    ("division", 7, 5, 5, "nonselfdual"),
    ("weil", 2, 0, 15, "nonselfdual"),
    # large: conductor 390,624 .. 531,440
    ("division", 5, 8, 8, "selfdual"),
    ("weil", 5, 0, 8, "selfdual"),
    ("division", 2, 18, 18, "selfdual"),
    ("weil", 2, 0, 18, "selfdual"),
    ("division", 4, 9, 9, "nonselfdual"),
    ("division", 3, 12, 12, "selfdual"),
    ("division", 3, 12, 6, "selfdual"),
    ("weil", 3, 0, 12, "selfdual"),
    ("division", 9, 6, 6, "selfdual"),
    ("weil", 9, 0, 6, "selfdual"),
    ("division", 9, 6, 3, "nonselfdual"),
)

# argv after "sign"; each must exit 1 with empty stdout
INVALID = (
    "--side division --q 6 --n 4 --f 2 --a 1 --w 1",  # q not a prime power
    "--side weil --q 12 --f 2 --a 3 --w -1",  # q not a prime power
    "--side division --q 2 --n 4 --f 4 --a 5 --w 1",  # a not regular
    "--side weil --q 3 --f 4 --a 10 --w 1",  # a not regular
    "--side division --q 3 --n 4 --f 3 --a 1 --w 1",  # f does not divide n
    "--side division --q 2 --f 4 --a 1 --w 1",  # division side needs --n
    "--side weil --q 2 --n 4 --f 4 --a 1 --w 1",  # weil side takes no --n
    "--side division --q 5 --n 4 --f 2 --a 24 --w 1",  # a >= q^f - 1
    "--side weil --q 3 --f 2 --a 2 --w 0",  # w is not a sign
    "--side division --q 3 --n 4 --f 2 --w 1",  # --a missing
    "--side mixed --q 3 --f 2 --a 2 --w 1",  # unknown side
)


def _orbit(a: int, q: int, order: int) -> set[int]:
    a %= order
    out = {a}
    cur = (a * q) % order
    while cur != a:
        out.add(cur)
        cur = (cur * q) % order
    return out


def conductor(side: str, q: int, n: int, f: int) -> int:
    """lcm(m, N/f) of the model group: the size of the character-field scan."""
    m, N = (q**n - 1, 2 * n) if side == "division" else (q**f - 1, 2 * f)
    return lcm(m, N // f)


def _candidates(q: int, f: int, kind: str, count: int) -> list[int]:
    """count regular exponents of the given kind, spread over [1, q^f - 1)."""
    order = q**f - 1
    if kind == "selfdual":
        step = q ** (f // 2) - 1
        pool = [
            k * step
            for k in range(1, q ** (f // 2) + 1)
            if len(_orbit(k * step, q, order)) == f
        ]
    else:
        pool = []
        for i in range(count):
            a = 1 + i * (order - 1) // count
            while len(_orbit(a, q, order)) != f or (-a) % order in _orbit(a, q, order):
                a += 1
            pool.append(a)
    picks = sorted({pool[i * len(pool) // count] for i in range(count)})
    for a in picks:  # the labels the stream checks replies against
        orbit = _orbit(a, q, order)
        if len(orbit) != f or ((-a) % order in orbit) != (kind == "selfdual"):
            raise AssertionError(f"bad candidate q={q} f={f} a={a} kind={kind}")
    return picks


def pool() -> list[tuple[tuple[str, ...], str, int]]:
    """Every possible query as (argv, label, share index), in a fixed order.

    label is "selfdual", "nonselfdual" or "invalid". Entries with the
    same share index fill one configuration's share of a pass.
    """
    out = []
    for index, (side, q, n, f, kind) in enumerate(CONFIGS):
        n_args = ("--n", str(n)) if side == "division" else ()
        count = 1 if conductor(side, q, n, f) > LARGE_CONDUCTOR else CANDIDATES
        for a in _candidates(q, f, kind, count):
            for w in ("+1", "-1"):
                argv = (
                    "sign", "--side", side, "--q", str(q), *n_args,
                    "--f", str(f), "--a", str(a), "--w", w, "--format", "json",
                )
                out.append((argv, kind, index))
    for index, text in enumerate(INVALID, start=len(CONFIGS)):
        out.append((("sign", *text.split(), "--format", "json"), "invalid", index))
    return out


def per_pass(conductor_: int) -> int:
    """Queries per pass of a configuration with this conductor."""
    return next(count for bound, count in PER_PASS if bound is None or conductor_ < bound)


def shares() -> list[int]:
    """Queries per pass for each share index used by pool()."""
    return ([per_pass(conductor(*c[:4])) for c in CONFIGS]
            + [INVALID_PER_PASS] * len(INVALID))


QUERIES_PER_PASS = sum(shares())


def stream(seed: int) -> list[tuple[tuple[str, ...], str]]:
    """One pass of queries as (argv, label); a pure function of seed."""
    rng = random.Random(seed)
    by_share: dict[int, list] = {}
    for argv, label, index in pool():
        by_share.setdefault(index, []).append((argv, label))
    out = []
    for index, count in enumerate(shares()):
        choices = by_share[index]
        out.extend(choices[rng.randrange(len(choices))] for _ in range(count))
    rng.shuffle(out)
    return out
