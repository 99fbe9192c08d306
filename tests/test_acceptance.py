"""End-to-end acceptance sweep at desk scale.

Eight checks, all zero tolerance: dual-route sign agreement on both
sides, flip-law consistency for the PR recipe, mechanical falsification
of the SZ recipe, sign-calculus identities, engine invariants on every
model group in range, constructed self-dual witnesses, and byte-level
CLI determinism across processes with different hash seeds.
"""

from __future__ import annotations

import time

from tamesigns.cyclotomic import cyc_integer
from tamesigns.division import (
    TameCharacter,
    division_model,
    enumerate_level1_selfdual,
    is_regular,
    is_selfdual_division,
    sign_division_closed_form,
    sign_division_oracle,
)
from tamesigns.metacyclic import (
    enumerate_irreps,
    fs_indicator,
    fs_indicator_raw,
    identity_involution,
    involution_count,
    make_group,
    theta_sign,
)
from tamesigns.signs import casewise_sign, flip_sign, transfer_sign, verify_flip
from tamesigns.weil import sign_weil_closed_form

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
DEGREES = (2, 4, 6)
TORUS_BOUND = 10**6

# small exemplar groups exercised alongside the model grid
EXEMPLARS = [
    (1, 4, 0),
    (3, 4, 2),
    (4, 2, 1),
    (5, 2, 4),
    (9, 6, 2),
    (15, 8, 2),
    (16, 4, 3),
]


def grid_cells():
    for q in PRIME_POWERS:
        for n in DEGREES:
            if q**n - 1 <= TORUS_BOUND:
                yield q, n


def test_division_signs_dual_routes_agree_full_grid():
    start = time.monotonic()
    cells = 0
    entries_seen = 0
    for q, n in grid_cells():
        cells += 1
        for entry in enumerate_level1_selfdual(q, n):
            entries_seen += 1
            assert entry.sign == sign_division_closed_form(entry.chi), (q, n, entry)
            assert entry.sign == sign_division_oracle(n, entry.chi), (q, n, entry)
    elapsed = time.monotonic() - start
    assert cells == 21
    assert entries_seen > 0
    assert elapsed < 600.0, f"grid sweep took {elapsed:.1f}s"


def test_weil_signs_dual_routes_agree_full_grid():
    # a clean return from the closed form certifies its determinant
    # checks; equality with the model indicator is asserted here
    for q in PRIME_POWERS:
        for f in DEGREES:
            if q**f - 1 > TORUS_BOUND:
                continue
            for entry in enumerate_level1_selfdual(q, f):
                chi = entry.chi  # the parameter model is at n = chi.f, not f
                closed = sign_weil_closed_form(chi, division_model(chi.f, chi))
                assert closed == sign_division_oracle(chi.f, chi), (q, f, entry)


def test_flip_law_consistent_for_pr_recipe_full_grid():
    for q, n in grid_cells():
        rows = verify_flip(q, n, "PR")
        assert rows, (q, n)
        failures = [row for row in rows if not row.consistent]
        assert not failures, (q, n, failures)


def test_sz_recipe_falsified_at_degree_four():
    bad = [(row.f, row.e) for row in verify_flip(2, 4, "SZ") if not row.consistent]
    assert bad
    assert all((f, e) == (2, 2) for f, e in bad)
    assert all(row.consistent for row in verify_flip(2, 4, "PR"))


def test_sign_calculus_identities_exhaustive():
    start = time.monotonic()
    for n in range(1, 65):
        for sign in (1, -1):
            if n % 2 and sign == -1:
                continue
            assert flip_sign(n, sign) == transfer_sign(1, n, sign)
    for m in range(1, 17):
        for d in range(1, 17):
            for sign in (1, -1):
                if m % 2 and d % 2 and sign == -1:
                    continue
                assert casewise_sign(m, d, sign) == transfer_sign(m, d, sign)
    for m in range(1, 65):
        for sign in (1, -1):
            if m % 2 and sign == -1:
                continue
            assert transfer_sign(m, 1, sign) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"identity sweep took {elapsed:.3f}s"


def test_engine_invariants_on_every_model_group():
    groups = [(q**n - 1, 2 * n, q) for q, n in grid_cells()]
    groups.extend(EXEMPLARS)
    for m, N, s in groups:
        G = make_group(m, N, s)
        irreps = enumerate_irreps(G)
        assert sum(p.f * p.f for p in irreps) == G.order, (m, N, s)
        theta = identity_involution(G)
        weighted = 0
        for psi in irreps:
            ind = fs_indicator(G, psi)
            assert ind in (-1, 0, 1), (m, N, s, psi)
            raw = fs_indicator_raw(G, psi)
            assert raw == cyc_integer(G.order * ind, raw.conductor), (
                m, N, s, psi,
            )
            assert theta_sign(G, theta, psi) == ind, (m, N, s, psi)
            weighted += psi.f * ind
        assert weighted == involution_count(G), (m, N, s)


def test_constructed_selfdual_witnesses_pass_all_predicates():
    # the canonical witness of degree f, a = q^(f/2) - 1 with w = +1,
    # is built by hand and must pass every predicate in every cell
    for q, n in grid_cells():
        for f in DEGREES:
            if f > n or n % f or f % 2:
                continue
            chi = TameCharacter(q, f, q ** (f // 2) - 1, 1)
            assert is_regular(chi)
            assert is_selfdual_division(chi)
            assert sign_division_closed_form(chi) == sign_division_oracle(
                n, chi
            )
            assert sign_weil_closed_form(
                chi, division_model(chi.f, chi)
            ) == sign_division_oracle(f, chi)


def test_cli_output_is_byte_identical_across_processes(run_cli):
    # run_cli is `sys.executable -m tamesigns` with the imported source
    # root on PYTHONPATH, so the child runs the code under test rather
    # than whatever console script is on PATH; the two children hash
    # strings differently, so no output may depend on set or dict order
    argv = [
        "verify-flip", "--q", "2..5", "--n", "2..6",
        "--recipe", "both", "--format", "json",
    ]
    runs = [
        run_cli(argv, timeout=600, env={"PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout  # non-empty payload
