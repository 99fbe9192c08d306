"""Oracles for the Weil-parameter side.

The model of mu is the division model at n = f, division_model(f, mu);
frozen values: for mu = (q=2, f=2, a=1, w=-1) it is C_3 x| C_4 with
inducing datum (2, 1, 1). Every closed-form call compares the sign with
that model's Frobenius-Schur indicator, and with the determinant
characterization at even f (a literal mu^2 = 1 at f = 1); breaking any
of these guards must raise, and exit 2 in the CLI.
"""

from __future__ import annotations

import pytest

import tamesigns.division
import tamesigns.weil
from tamesigns.cli import main
from tamesigns.division import (
    TameCharacter,
    division_model,
    enumerate_level1_selfdual,
    sign_division_closed_form,
    sign_division_oracle,
)
from tamesigns.errors import InternalConsistencyError, UsageError
from tamesigns.metacyclic import Irrep
from tamesigns.weil import attach_parameter, sign_weil_closed_form, sp_sign


def test_weil_model_frozen_example():
    mu = TameCharacter(2, 2, 1, -1)
    G, psi = division_model(mu.f, mu)
    assert (G.m, G.N, G.s) == (3, 4, 2)
    assert type(psi) is Irrep and psi == (2, 1, 1, G) and psi.group is G
    mu_plus = TameCharacter(2, 2, 1, 1)
    _, psi_plus = division_model(mu_plus.f, mu_plus)
    assert type(psi_plus) is Irrep and psi_plus == (2, 1, 0, G)


def test_weil_model_rejects_non_regular():
    # a non-regular mu is refused when it is built, before any model
    with pytest.raises(UsageError, match="not regular"):
        TameCharacter(2, 2, 0, 1)


def test_sp_sign():
    assert [sp_sign(e) for e in (1, 2, 3, 4, 5)] == [1, -1, 1, -1, 1]
    with pytest.raises(UsageError):
        sp_sign(0)


def test_closed_form_sign_and_det_characterization():
    # the det cross-check runs inside sign_weil_closed_form
    assert sign_weil_closed_form(TameCharacter(2, 2, 1, 1)) == 1
    assert sign_weil_closed_form(TameCharacter(2, 2, 1, -1)) == -1
    with pytest.raises(UsageError):
        sign_weil_closed_form(TameCharacter(2, 4, 1, 1))  # not self-dual


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("f", [2, 4])
def test_closed_form_matches_oracle(q, f):
    for entry in enumerate_level1_selfdual(q, f):
        if entry.chi.f != f:
            continue
        assert sign_weil_closed_form(entry.chi) == entry.chi.w
        assert sign_division_oracle(f, entry.chi) == entry.chi.w


def test_det_route_break_raises_and_exits_two(monkeypatch, capsys):
    # flip det at t from +-1 to -+1 on the models `broken` accepts: the
    # det route must disagree with w
    real = tamesigns.weil.det_exponents
    broken = lambda G, psi: True

    def shifted(G, psi):
        (Mx, kx), (Mt, kt) = real(G, psi)
        if broken(G, psi):
            kt = (kt + Mt // 2) % Mt
        return (Mx, kx), (Mt, kt)

    monkeypatch.setattr(tamesigns.weil, "det_exponents", shifted)
    with pytest.raises(InternalConsistencyError, match="det route disagrees"):
        sign_weil_closed_form(TameCharacter(2, 2, 1, -1))
    for argv in (
        ["verify-flip", "--q", "2", "--n", "4"],
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "SZ"],
        ["verify-flip", "--q", "2", "--n", "4", "--recipe", "both"],
        ["sign", "--side", "weil", "--q", "2", "--f", "2", "--a", "1", "--w", "-1"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "internal consistency failure: det route disagrees" in err
    # break only (q, f, a, w) = (2, 4, 3, -1), whose model is C_15 x| C_8
    # with inducing datum (4, 3, 1): every distinct datum of the cell
    # runs the det route, so verify-flip still exits 2
    broken = lambda G, psi: (G.m, G.N, psi[:3]) == (15, 8, (4, 3, 1))
    assert sign_weil_closed_form(TameCharacter(2, 4, 3, 1)) == 1
    assert main(["verify-flip", "--q", "2", "--n", "4", "--recipe", "both"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "det route disagrees" in err and "f=4, a=3, w=-1" in err


@pytest.mark.parametrize(
    "exponents,message",
    [
        (
            ((3, 1), (2, 0)),
            "det of self-dual {} with model psi=SubgroupCharacter(f=2, a=1, c=1) "
            "on MetacyclicGroup(m=3, N=4, s=2) is nontrivial on the torus: zeta_3^1",
        ),
        (
            ((3, 0), (4, 1)),
            "det at t for self-dual {} with model psi=SubgroupCharacter(f=2, a=1, "
            "c=1) on MetacyclicGroup(m=3, N=4, s=2) is not a sign: zeta_4^1",
        ),
        (
            ((3, 0), (2, 1)),
            "det route disagrees with w for {} with model psi=SubgroupCharacter("
            "f=2, a=1, c=1) on MetacyclicGroup(m=3, N=4, s=2): det_t=-1, w=-1",
        ),
    ],
    ids=["torus", "not-a-sign", "disagrees"],
)
def test_det_shape_faults_raise(monkeypatch, exponents, message):
    mu = TameCharacter(2, 2, 1, -1)
    monkeypatch.setattr(tamesigns.weil, "det_exponents", lambda G, psi: exponents)
    with pytest.raises(InternalConsistencyError) as info:
        sign_weil_closed_form(mu)
    assert str(info.value) == message.format(mu)


def test_q_minus_one_guard_raises(monkeypatch):
    # (3, 2, 1) is regular but not self-dual, and 2 does not divide a = 1
    chi = TameCharacter(3, 2, 1, 1)
    real = tamesigns.division.is_selfdual_division
    monkeypatch.setattr(
        tamesigns.division,
        "is_selfdual_division",
        lambda c: (c.q, c.f, c.a) == (3, 2, 1) or real(c),
    )
    for closed_form in (sign_division_closed_form, sign_weil_closed_form):
        with pytest.raises(InternalConsistencyError, match="not divisible by q-1"):
            closed_form(chi)


def test_attach_parameter_recipes():
    chi = TameCharacter(2, 2, 1, 1)
    # n = 4, f = 2, e = 2: PR exponent e(f-1) = 2 keeps w, SZ exponent 1 flips
    assert attach_parameter(4, chi, "PR") == 1
    assert attach_parameter(4, chi, "SZ") == -1
    # n = 4, f = 4, e = 1: both recipes use exponent 3 and flip
    chi4 = TameCharacter(2, 4, 3, 1)
    assert attach_parameter(4, chi4, "PR") == -1
    assert attach_parameter(4, chi4, "SZ") == -1
    # n = 2, f = 2, e = 1: exponent 1 for both, flip
    assert attach_parameter(2, chi, "PR") == -1
    assert attach_parameter(2, chi, "SZ") == -1
    # the twist acts on w alone: w = -1 goes to the other sign
    chi_minus = TameCharacter(2, 2, 1, -1)
    assert attach_parameter(4, chi_minus, "PR") == -1
    assert attach_parameter(4, chi_minus, "SZ") == 1


def test_attach_parameter_validation():
    chi = TameCharacter(2, 2, 1, 1)
    with pytest.raises(UsageError):
        attach_parameter(4, chi, "XX")
    with pytest.raises(UsageError):
        attach_parameter(3, chi, "PR")
    with pytest.raises(UsageError):
        attach_parameter(8, TameCharacter(2, 4, 1, 1), "PR")  # not self-dual


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_f_one_closed_forms_are_plus_one_on_the_quadratic_characters(q):
    # f = 1: self-dual exactly when 2a = 0 (mod q - 1), with sign +1 for
    # either w on both sides; both FS oracles agree, at n = 1 and n = 2
    for a in range(max(q - 1, 1)):
        for w in (1, -1):
            mu = TameCharacter(q, 1, a, w)
            if 2 * a % (q - 1):
                for closed_form in (sign_division_closed_form, sign_weil_closed_form):
                    with pytest.raises(UsageError, match="self-dual"):
                        closed_form(mu)
                continue
            assert sign_weil_closed_form(mu) == sign_division_closed_form(mu) == 1
            assert sign_division_oracle(1, mu) == sign_division_oracle(2, mu) == 1
            assert attach_parameter(2, mu, "PR") == attach_parameter(2, mu, "SZ") == w


def test_f_one_oracle_disagreement_raises(monkeypatch):
    mu = TameCharacter(5, 1, 2, -1)
    monkeypatch.setattr(tamesigns.division, "fs_indicator", lambda G, psi: -1)
    with pytest.raises(InternalConsistencyError) as info:
        sign_weil_closed_form(mu)
    assert str(info.value) == (
        f"closed-form sign 1 disagrees with the Frobenius-Schur indicator -1 "
        f"for {mu} at n=1: psi=SubgroupCharacter(f=1, a=2, c=1) on "
        "MetacyclicGroup(m=4, N=2, s=1)"
    )


def test_f_one_character_that_is_not_quadratic_raises(monkeypatch):
    mu = TameCharacter(5, 1, 2, 1)
    monkeypatch.setattr(
        tamesigns.weil, "det_exponents", lambda G, psi: ((4, 1), (2, 0))
    )
    with pytest.raises(InternalConsistencyError) as info:
        sign_weil_closed_form(mu)
    assert str(info.value) == (
        f"self-dual {mu} with model psi=SubgroupCharacter(f=1, a=2, c=0) on "
        "MetacyclicGroup(m=4, N=2, s=1) is not quadratic: "
        "mu(x) = zeta_4^1, mu(t) = zeta_2^0"
    )
