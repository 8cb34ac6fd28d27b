"""The deformed cup product on H*(G/P), Levi-movability, Schubert-variety
stabilizers, and the x_P-eigenlevel dimension profiles of shifted tangent
spaces.

The character chi_w attached to w in W^P is computed by both of its defining
expressions and the two are checked equal (ExactnessError otherwise):

    chi_w = sum of (R+ \\ R_l+) cap w^{-1} R+        (root-sum form)
    chi_w = rho - 2 rho^L + w^{-1} rho               (closed form)

A structure constant survives the deformation exactly when the chi-defect
(chi_w - chi_u - chi_v) vanishes on every x_k with alpha_k crossed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .roots import ExactnessError
from .schubert import CupRing, SchubertBasisRing


@dataclass(frozen=True)
class ChiCharacter:
    weight: tuple          # fundamental coordinates (ambient)
    root_coords: tuple     # the same weight in simple-root coordinates (ints)
    owner: object          # the W^P element
    levi_coords: tuple     # restriction: pairings with the Levi simple coroots


@dataclass(frozen=True)
class DjProfile:
    d: tuple               # d_1 .. d_{m_o}
    subject: tuple         # ("w-at-w", w) or ("w-at-v", v, beta, w)

    @property
    def total(self):
        return sum(self.d)

    @property
    def weighted(self):
        return sum((j + 1) * dj for j, dj in enumerate(self.d))


@dataclass(frozen=True)
class StabilizerData:
    delta_qw: frozenset    # nodes i with alpha_i in Delta(Q_w)


class DeformedRing(SchubertBasisRing):
    """Deformed-product layer over a CupRing for one (G, P)."""

    def __init__(self, ring: CupRing):
        self.ring = ring
        self.ct = ring.ct
        self.parabolic = ring.parabolic
        self._chi = {}
        self._rows = {}

    # -- chi characters -------------------------------------------------------

    def chi(self, w) -> ChiCharacter:
        ct = self.ct
        w = ct.canonical(w)
        if w in self._chi:
            return self._chi[w]
        R = ct.wg.system
        P = self.parabolic
        n = R.rank
        total = [0] * n
        for beta in R.positive_roots:
            if P.in_levi(beta):
                continue
            img = ct.wg.act_root(w, beta)
            if not _is_neg(img):
                for j in range(n):
                    total[j] += beta[j]
        root_coords = tuple(total)
        fund = R.fund_of_root(root_coords)
        # closed form rho - 2 rho^L + w^{-1} rho
        winv_rho = ct.wg.inv_act_weight(w, R.rho)
        closed = tuple(R.rho[j] - 2 * P.rho_levi[j] + winv_rho[j] for j in range(n))
        if closed != fund:
            raise ExactnessError("chi expressions disagree (convention bug)")
        levi = tuple(fund[i - 1] for i in sorted(P.levi_simple))
        out = ChiCharacter(weight=fund, root_coords=root_coords, owner=w, levi_coords=levi)
        self._chi[w] = out
        return out

    def chi_defect_vanishes(self, u, v, w):
        """True iff (chi_w - chi_u - chi_v)(x_k) = 0 for every crossed node k."""
        cu, cv, cw = self.chi(u).root_coords, self.chi(v).root_coords, self.chi(w).root_coords
        return all(cw[k - 1] - cu[k - 1] - cv[k - 1] == 0 for k in self.parabolic.crossed)

    # -- deformed multiplication ----------------------------------------------

    def row(self, u, v):
        key = self._pair(u, v)
        if key not in self._rows:
            u, v = key
            self._rows[key] = {w: c for w, c in self.ring.row(u, v).items()
                               if self.chi_defect_vanishes(u, v, w)}
        return self._rows[key]

    def is_levi_movable(self, ws):
        """Numeric criterion: expected total degree and nonzero deformed top."""
        if sum(w.length for w in ws) != (len(ws) - 1) * self.parabolic.dim_gp:
            return False
        return self.top_coefficient(ws) > 0


def _is_neg(vec):
    for x in vec:
        if x:
            return x < 0
    return False


# ---------------------------------------------------------------------------
# stabilizers of Schubert varieties


def stabilizer_simple_roots(ct, w) -> StabilizerData:
    """Delta(Q_w) for the largest standard parabolic Q_w stabilising X_w.

    Computed as Delta cap (w w_o^P) R-, and asserted against the equivalent
    description Delta cap w(R_l+ u R-).
    """
    w = ct.canonical(w)
    wg = ct.wg
    R = wg.system
    P = ct.parabolic
    w0p = wg.longest(sorted(P.levi_simple))
    what = wg.mul(w, w0p)
    out = set()
    for i in range(1, R.rank + 1):
        alpha = tuple(int(t == i - 1) for t in range(R.rank))
        if _is_neg(wg.act_root(wg.inverse(what), alpha)):
            out.add(i)
    # cross-check: alpha_i in w(R_l+ u R-)  <=>  w^{-1} alpha_i in R_l+ u R-
    check = set()
    for i in range(1, R.rank + 1):
        alpha = tuple(int(t == i - 1) for t in range(R.rank))
        pre = wg.act_root(wg.inverse(w), alpha)
        if _is_neg(pre) or (R.is_positive_root(pre) and P.in_levi(pre)):
            check.add(i)
    assert out == check, "stabilizer descriptions disagree (convention bug)"
    return StabilizerData(delta_qw=frozenset(out))


def cell_in_stabilizer_orbit(ct, v, beta, w):
    """For a cover v -> w along beta: is the codim-one cell C_v inside the
    open Q_w-orbit of X_w?  Happens exactly when beta in Delta(Q_w); such a
    beta is necessarily simple."""
    if (v, w, beta) not in set(ct.covers):
        raise ValueError("(v, beta, w) is not a cover in W^P")
    nodes = stabilizer_simple_roots(ct, w).delta_qw
    inside = sum(beta) == 1 and (beta.index(1) + 1) in nodes
    if inside:
        assert sum(beta) == 1
    return inside


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
        assert 1 <= j <= P.m_o, "Levi root in the inversion set of a minimal rep"
        d[j - 1] += 1
    return DjProfile(d=tuple(d), subject=("w-at-w", w))


def dj_profile_at_cover(ct, v, beta, w) -> DjProfile:
    """Level dimensions of T_e(v^{-1} X_w) for a cover v -> w along beta:
    the profile of v plus one increment at level alpha(x_P), alpha = v^{-1}beta."""
    if (v, w, beta) not in set(ct.covers):
        raise ValueError("(v, beta, w) is not a cover in W^P")
    P = ct.parabolic
    alpha = ct.wg.act_root(ct.wg.inverse(v), beta)
    assert ct.wg.system.is_positive_root(alpha)
    j = P.root_at_xp(alpha)
    assert 1 <= j <= P.m_o
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
