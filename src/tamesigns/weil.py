"""Tame Weil parameters and their orthogonal/symplectic signs.

A tame discrete parameter of degree n = e * f is sigma = mu (x) sp(e):
mu an irreducible f-dimensional representation of the Weil group induced
from a regular character of the unramified degree-f extension, and sp(e)
the e-dimensional special (twisted Steinberg) block. mu is recorded by
the same (q, f, a, w) datum as on the division side, with w now the
Frobenius-slot sign of mu.

The finite model of mu is C_{q^f-1} x| C_{2f} with s = q and t^f the
scalar w: it is the division-side model at n = f, division_model(f, mu),
so the parameter side has no model builder of its own.
sign_weil_closed_form is the one place the parameter side's routes
run, all on that one model: for self-dual mu, division's checked_sign
compares the closed form (w at even f, +1 at f = 1) with the model's
Frobenius-Schur indicator at every f, and the closed form is then
compared with the determinant (det mu nontrivial iff mu orthogonal) at
even f. At f = 1 a self-dual mu is a quadratic character and the
determinant is mu itself, so that route is replaced there by a literal
mu^2 = 1. sp(e) is orthogonal for e odd and
symplectic for e even, and signs multiply across the tensor factor.

attach_parameter gives the Frobenius-slot sign of the parameter a
division-side datum predicts under a chosen twisting recipe: recipe
"PR" twists w by (-1)^(e(f-1)), recipe "SZ" by (-1)^(f-1). The
parameter keeps (q, f, a), so at even f its datum is
(q, f, a, w * (-1)^e) under PR and (q, f, a, -w) under SZ, and at
f = 1 both recipes keep w: either way one of the same (q, f, a)'s
self-dual data. The two recipes disagree exactly when e and f are both
even; the flip verification in the sign calculus is the arbiter
between them.
"""

from __future__ import annotations

from .division import (
    TameCharacter,
    checked_sign,
    division_model,
    is_selfdual_division,
)
from .errors import InternalConsistencyError, UsageError
from .metacyclic import Irrep, MetacyclicGroup, SubgroupCharacter, det_exponents

__all__ = [
    "RECIPES",
    "sign_weil_closed_form",
    "sp_sign",
    "attach_parameter",
]

RECIPES = ("PR", "SZ")


def sign_weil_closed_form(mu: TameCharacter) -> int:
    """Closed-form sign of a self-dual mu: w at even f, +1 at f = 1.

    All routes run on one model, the Irrep division_model(f, mu) on G.
    checked_sign(mu, G, psi) gives the closed form, with its guards, and
    compares it with the model's Frobenius-Schur indicator at every f;
    then det_exponents reads the model's determinants. For f even and
    self-dual mu, det mu is trivial on the torus and equals -w at t, so
    det mu is nontrivial exactly when mu is orthogonal. At f = 1 mu is
    its own determinant, and that relation does not hold: there
    mu^2 = 1 is read literally off mu(x) and mu(t). Any mismatch raises
    InternalConsistencyError naming mu, the model datum psi and G, and
    the values it read. This is the one place the parameter side's
    routes run: verify-flip's per-cell table calls it once per datum.
    """
    G, psi = division_model(mu.f, mu)
    w = checked_sign(mu, G, psi)
    (Mx, kx), (Mt, kt) = det_exponents(G, psi)
    if mu.f == 1:
        if 2 * kx % Mx or 2 * kt % Mt:
            raise InternalConsistencyError(
                f"self-dual {_model_text(mu, G, psi)} is not quadratic: "
                f"mu(x) = zeta_{Mx}^{kx}, mu(t) = zeta_{Mt}^{kt}"
            )
        return w
    if kx % Mx != 0:
        raise InternalConsistencyError(
            f"det of self-dual {_model_text(mu, G, psi)} is nontrivial on "
            f"the torus: zeta_{Mx}^{kx}"
        )
    # det at t is a sign since f is even: kt = 0 means +1, Mt/2 means -1
    if kt == 0:
        det_t = 1
    elif 2 * kt == Mt:
        det_t = -1
    else:
        raise InternalConsistencyError(
            f"det at t for self-dual {_model_text(mu, G, psi)} is not a "
            f"sign: zeta_{Mt}^{kt}"
        )
    if det_t != -w:
        raise InternalConsistencyError(
            f"det route disagrees with w for {_model_text(mu, G, psi)}: "
            f"det_t={det_t}, w={w}"
        )
    return w


def _model_text(mu: TameCharacter, G: MetacyclicGroup, psi: Irrep) -> str:
    # mu and its model for an error text: psi's inducing data is printed
    # as a SubgroupCharacter, without its group, then G; formed only on a
    # fault, since building it costs as much as a route's lookup
    return f"{mu} with model psi={SubgroupCharacter(psi.f, psi.a, psi.c)} on {G}"


def sp_sign(e: int) -> int:
    """Sign of the special block sp(e): +1 for e odd, -1 for e even."""
    if e < 1:
        raise UsageError(f"e must be >= 1, got {e}")
    return 1 if e % 2 else -1


def attach_parameter(n: int, chi: TameCharacter, recipe: str) -> int:
    """Frobenius-slot sign of the parameter chi predicts under a recipe.

    The parameter shares (q, f, a) with chi and has e = n/f; its
    Frobenius-slot sign is chi.w twisted by the recipe's power of the
    unramified quadratic character: exponent e*(f-1) for "PR", f-1 for
    "SZ". Requires chi self-dual and f | n.
    """
    if recipe not in RECIPES:
        raise UsageError(f"recipe must be one of {RECIPES}, got {recipe!r}")
    if n < 1 or n % chi.f != 0:
        raise UsageError(f"f = {chi.f} must divide n = {n}")
    if not is_selfdual_division(chi):
        raise UsageError(f"attach_parameter needs a self-dual datum, got {chi}")
    exponent = (n // chi.f) * (chi.f - 1) if recipe == "PR" else chi.f - 1
    return -chi.w if exponent % 2 else chi.w
