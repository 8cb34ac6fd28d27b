"""The deformed cup product on H*(G/P), Levi-movability, Schubert-variety
stabilizers, and the x_P-eigenlevel dimension profiles of shifted tangent
spaces.

The character chi_w attached to w in W^P is computed by both of its defining
expressions and the two are checked equal (ExactnessError otherwise):

    chi_w = sum of (R+ \\ R_l+) cap w^{-1} R+        (root-sum form)
          = sum of R+ \\ R_l+  -  sum of N(w),  N(w) = R+ cap w^{-1} R-
    chi_w = rho - 2 rho^L + w^{-1} rho               (closed form)

Belkale-Kumar criterion (Invent. Math. 166, 2006; DeformedRing.chi_balanced):
the deformed top coefficient of w_1, ..., w_s is the ordinary one when sum_j
chi_{w_j} - chi_e vanishes at every crossed node, and 0 otherwise.  As chi_w +
chi_dual(w) = chi_e there, c^w_{u,v} survives iff (u, v, dual(w)) meets it.
"""

from __future__ import annotations

from collections import namedtuple

from .roots import ExactnessError, Memo
from .schubert import CupRing, SchubertBasisRing


class _ValueRecord:
    """Equality and hashing of a namedtuple record by value, never equal to
    a bare tuple or to a record of another class."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class ChiCharacter(_ValueRecord, namedtuple("ChiCharacter", "weight root_coords levi_coords")):
    """chi_w in fundamental coordinates (ambient), the same weight in
    simple-root coordinates (ints), and its restriction: the pairings with
    the Levi simple coroots."""

    __slots__ = ()


class DjProfile(_ValueRecord, namedtuple("DjProfile", "d subject")):
    """d_1 .. d_{m_o}, and the subject ("w-at-w", w) or ("w-at-v", v, beta, w)."""

    __slots__ = ()

    @property
    def total(self):
        return sum(self.d)

    @property
    def weighted(self):
        return sum((j + 1) * dj for j, dj in enumerate(self.d))


class DeformedRing(SchubertBasisRing):
    """Deformed-product layer over a CupRing for one (G, P)."""

    def __init__(self, ring: CupRing):
        self.ring = ring
        self.ct = ring.ct
        self.parabolic = ring.parabolic
        R, P = ring.system, ring.parabolic
        self._outside = [sum(beta[j] for beta in R.positive_roots if not P.in_levi(beta))
                         for j in range(R.rank)]  # sum of R+ minus R_l+
        self._chi = Memo(self._chi_of)      # canonical w -> chi_w
        self._columns = Memo(self._column)  # index -> chi at the crossed nodes
        self._rows = Memo(self._row)        # (i, j), i <= j -> ring.row(i, j) where it survives

    # -- chi characters -------------------------------------------------------

    def chi(self, w) -> ChiCharacter:
        return self._chi[self.ct.canonical(w)]

    def _chi_of(self, w):
        ct = self.ct
        R = ct.wg.system
        P = self.parabolic
        n = R.rank
        # chi_w = sum(R+ minus R_l+) - sum N(w)
        inversions = ct.wg.inversion_set(w)
        if any(P.in_levi(beta) for beta in inversions):
            raise ExactnessError("Levi root in the inversion set of a minimal rep")
        total = list(self._outside)
        for beta in inversions:
            for j in range(n):
                total[j] -= beta[j]
        root_coords = tuple(total)
        fund = R.fund_of_root(root_coords)
        # closed form rho - 2 rho^L + w^{-1} rho
        winv_rho = ct.wg.inv_act_weight(w, R.rho)
        closed = tuple(R.rho[j] - 2 * P.rho_levi[j] + winv_rho[j] for j in range(n))
        if closed != fund:
            raise ExactnessError("chi expressions disagree (convention bug)")
        levi = tuple(fund[i - 1] for i in sorted(P.levi_simple))
        return ChiCharacter(weight=fund, root_coords=root_coords, levi_coords=levi)

    def _column(self, i):
        """chi of the i-th class at the crossed nodes, in simple-root coordinates."""
        coords = self.chi(self.ct.elements[i]).root_coords
        return tuple(coords[k - 1] for k in self.parabolic.crossed)

    def chi_balanced(self, idx):
        """True iff the classes with coset-table indices idx meet the
        Belkale-Kumar criterion (module docstring)."""
        return self._columns[idx[-1]] == self._completing_column(idx[:-1])

    def _completing_column(self, prefix):
        """The column at the crossed nodes of the one class c for which
        prefix + (c,) meets the criterion: chi_e's minus the prefix's sum."""
        cols = self._columns
        return tuple(e - sum(x) for e, *x in zip(cols[0], *(cols[i] for i in prefix)))

    # -- deformed multiplication ----------------------------------------------

    def row(self, i, j):
        return self._rows[(i, j) if i <= j else (j, i)]

    def _row(self, key):
        i, j = key
        dual = self.ct.dual_index
        return {k: c for k, c in self.ring.row(i, j).items()
                if self.chi_balanced((i, j, dual[k]))}

    def tops_run(self, prefix, lasts):
        """[(ordinary top, deformed top) of prefix + (c,)] for c in lasts, from
        one pairing per tuple (SchubertBasisRing.top_run): the deformed top is
        the ordinary one when it is nonzero and the classes meet the
        criterion, which is read off one column per run (chi_balanced)."""
        tops = self.ring.top_run(prefix, lasts)
        if not any(tops):
            return [(0, 0)] * len(tops)
        cols, need = self._columns, self._completing_column(prefix)
        return [(t, t if t and cols[c] == need else 0) for t, c in zip(tops, lasts)]

    def is_levi_movable(self, ws):
        """Numeric criterion: nonzero deformed top (0 off the expected degree)."""
        return self.top_coefficient(ws) > 0


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
