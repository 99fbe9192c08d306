"""Tame Weil parameters and their orthogonal/symplectic signs.

A tame discrete parameter of degree n = e * f is sigma = mu (x) sp(e):
mu an irreducible f-dimensional representation of the Weil group induced
from a regular character of the unramified degree-f extension, and sp(e)
the e-dimensional special (twisted Steinberg) block. mu is recorded by
the same (q, f, a, w) datum as on the division side, with w now the
Frobenius-slot sign of mu.

The finite model of mu is an Irrep, which carries its group
C_{q^f-1} x| C_{2f} with s = q and t^f the scalar w: it is the
division-side model at n = f, division_model(f, mu), so the parameter
side has no model builder of its own. The caller passes that Irrep:
verify-flip's scan has already built it for every datum of degree
f = n, and the `sign` command has built it for its query.
sign_weil_closed_form is the one place the parameter side's routes run,
all on that one model, which division's is_division_model checks is
mu's own: for self-dual mu, division's checked_sign compares the closed
form (w at even f, +1 at f = 1) with the model's Frobenius-Schur
indicator at every f, and the determinant route then makes one
prediction. At even f it is det mu = 1 on the torus and -w at t (det mu
nontrivial iff mu orthogonal). At f = 1 a self-dual mu is a quadratic
character and the determinant is mu itself, so the prediction there is
a literal mu^2 = 1. sp(e) is orthogonal for e odd and symplectic for e
even, and signs multiply across the tensor factor.

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
    is_division_model,
    is_selfdual_division,
)
from .errors import InternalConsistencyError, UsageError
from .metacyclic import Irrep, det_exponents

__all__ = [
    "RECIPES",
    "sign_weil_closed_form",
    "sp_sign",
    "attach_parameter",
]

RECIPES = ("PR", "SZ")


def sign_weil_closed_form(mu: TameCharacter, psi: Irrep) -> int:
    """Closed-form sign of a self-dual mu: w at even f, +1 at f = 1.

    psi is mu's model division_model(f, mu), built by the caller: the
    Irrep with inducing data (f, a, c), c encoding w as division_model
    does, on its group G = psi.group = C_{q^f-1} x| C_{2f} with s = q.
    Anything else, a bare SubgroupCharacter among them, raises
    UsageError naming mu and psi; is_division_model(psi, f, mu) decides
    this, and no model is built here. All routes run on that model.
    checked_sign(mu, psi) gives the closed form, with its guards, and
    compares it with the model's Frobenius-Schur indicator at every f;
    then det_exponents reads the model's determinants, and the
    determinant route makes one prediction. For f even and self-dual mu,
    det mu is trivial on the torus and equals -w at t, so det mu is
    nontrivial exactly when mu is orthogonal. At f = 1 mu is its own
    determinant, and the prediction is mu^2 = 1, read literally off
    mu(x) and mu(t). A failed prediction raises InternalConsistencyError
    naming mu, its model psi, the closed form and both determinant
    values. This is the one place the parameter side's routes run:
    verify-flip's per-cell table calls it once per datum, and
    `sign --side weil` once per query.
    """
    f = mu.f
    if not is_division_model(psi, f, mu):
        raise UsageError(
            f"sign_weil_closed_form needs division_model({f}, mu) for "
            f"mu={mu}, got psi={psi!r}"
        )
    w = checked_sign(mu, psi)
    (Mx, kx), (Mt, kt) = det_exponents(psi.group, psi)
    if f == 1:
        predicted = 2 * kx % Mx == 0 and 2 * kt % Mt == 0
    else:
        # det at t is -w: Mt/2 is the exponent of -1 and 0 that of +1
        predicted = kx % Mx == 0 and 2 * kt == (Mt if w == 1 else 0)
    if not predicted:
        raise InternalConsistencyError(
            f"det route disagrees with the closed form {w} for self-dual "
            f"{mu} with model psi={psi}: det(x) = zeta_{Mx}^{kx}, "
            f"det(t) = zeta_{Mt}^{kt}"
        )
    return w


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
