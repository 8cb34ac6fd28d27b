"""Schubert-variety stabilizers and the x_P-eigenlevel dimension profiles of
shifted tangent spaces, the per-cell data that `wp` lists.

`cli` imports this module inside `wp` only, so no other command loads it.
"""

from __future__ import annotations

from collections import namedtuple

from .deformed import _ValueRecord
from .roots import ExactnessError


class DjProfile(_ValueRecord, namedtuple("DjProfile", "d subject")):
    """d_1 .. d_{m_o}, and the subject ("w-at-w", w) or ("w-at-v", v, beta, w)."""

    __slots__ = ()

    @property
    def total(self):
        return sum(self.d)


def _is_neg(vec):
    for x in vec:
        if x:
            return x < 0
    return False


# ---------------------------------------------------------------------------
# stabilizers of Schubert varieties


def stabilizer_simple_roots(ct, w) -> frozenset:
    """Delta(Q_w) for the largest standard parabolic Q_w stabilising X_w, as
    the frozenset of nodes i with alpha_i in it.

    Computed as Delta cap (w w_o^P) R-, and checked against the equivalent
    description Delta cap w(R_l+ u R-).
    """
    w = ct.canonical(w)
    wg = ct.wg
    R = wg.system
    P = ct.parabolic
    w0p = wg.longest(sorted(P.levi_simple))
    what_inv, w_inv = wg.inverse(wg.mul(w, w0p)), wg.inverse(w)
    out, check = set(), set()
    for i in range(1, R.rank + 1):
        alpha = tuple(int(t == i - 1) for t in range(R.rank))
        if _is_neg(wg.act_root(what_inv, alpha)):
            out.add(i)
        # cross-check: alpha_i in w(R_l+ u R-)  <=>  w^{-1} alpha_i in R_l+ u R-
        pre = wg.act_root(w_inv, alpha)
        if _is_neg(pre) or (R.is_positive_root(pre) and P.in_levi(pre)):
            check.add(i)
    if out != check:
        raise ExactnessError("stabilizer descriptions disagree (convention bug)")
    return frozenset(out)


def cell_in_stabilizer_orbit(ct, v, beta, w):
    """For a cover v -> w along beta: is the codim-one cell C_v inside the
    open Q_w-orbit of X_w?  Happens exactly when beta in Delta(Q_w); such a
    beta is necessarily simple."""
    if not ct.is_cover(v, beta, w):
        raise ValueError("(v, beta, w) is not a cover in W^P")
    return sum(beta) == 1 and (beta.index(1) + 1) in stabilizer_simple_roots(ct, w)


# ---------------------------------------------------------------------------
# x_P-eigenlevel profiles of shifted tangent spaces


def dj_profile(ct, w) -> DjProfile:
    """Level dimensions of T_e(w^{-1} X_w): d_j counts gamma in R- cap w^{-1}R+
    with (-gamma)(x_P) = j."""
    w = ct.canonical(w)
    P = ct.parabolic
    d = [0] * P.m_o
    for delta in ct.wg.inversion_set(w):  # delta > 0, w delta < 0; -delta spans the tangent
        j = P.root_at_xp(delta)
        if not 1 <= j <= P.m_o:
            raise ExactnessError("Levi root in the inversion set of a minimal rep")
        d[j - 1] += 1
    return DjProfile(d=tuple(d), subject=("w-at-w", w))


def dj_profile_at_cover(ct, v, beta, w) -> DjProfile:
    """Level dimensions of T_e(v^{-1} X_w) for a cover v -> w along beta:
    the profile of v plus one increment at level alpha(x_P), alpha = v^{-1}beta."""
    if not ct.is_cover(v, beta, w):
        raise ValueError("(v, beta, w) is not a cover in W^P")
    P = ct.parabolic
    alpha = ct.wg.act_root(ct.wg.inverse(v), beta)
    j = P.root_at_xp(alpha)
    if not (ct.wg.system.is_positive_root(alpha) and 1 <= j <= P.m_o):
        raise ExactnessError(f"cover root pulls back to {alpha!r} at level {j} "
                             f"(convention bug)")
    base = dj_profile(ct, v).d
    d = tuple(x + int(k == j - 1) for k, x in enumerate(base))
    return DjProfile(d=d, subject=("w-at-v", v, beta, w))


def cover_level_identity(ct, v, beta, w):
    """Exact bookkeeping identity along a cover:

        1 + sum_{j>=2} (j-1) (d_j(w) - d_j(v))  =  <rho, beta^vee> * alpha(x_P)

    with alpha = v^{-1} beta.  Returns (lhs, rhs)."""
    P = ct.parabolic
    R = ct.wg.system
    dw = dj_profile(ct, w).d
    dv = dj_profile(ct, v).d
    lhs = 1 + sum((j - 1) * (dw[j - 1] - dv[j - 1]) for j in range(2, P.m_o + 1))
    alpha = ct.wg.act_root(ct.wg.inverse(v), beta)
    rhs = R.coroot_pairing(R.rho, beta) * P.root_at_xp(alpha)
    return lhs, rhs
