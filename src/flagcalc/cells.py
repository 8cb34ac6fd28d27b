"""Schubert-variety stabilizers and the x_P-eigenlevel dimension profiles of
shifted tangent spaces, the per-cell data that `wp` lists.  The cover
lemmas built on them live in `flagcalc.oracle`.

`cli` imports this module inside `wp` only, so no other command loads it.
"""

from __future__ import annotations

from collections import namedtuple

from .deformed import _ValueRecord
from .roots import ExactnessError


class DjProfile(_ValueRecord, namedtuple("DjProfile", "d subject")):
    """d_1 .. d_{m_o}, and the subject ("w-at-w", w) or, for
    oracle.dj_profile_at_cover, ("w-at-v", v, beta, w)."""

    __slots__ = ()


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
