"""The deformed cup product on H*(G/P): chi characters and the
Belkale-Kumar criterion that selects the Levi-movable structure constants.
The stabilizers and level profiles that `wp` lists live in `flagcalc.cells`.

The character chi_w attached to w in W^P is computed by both of its defining
expressions and the two are checked equal (ExactnessError otherwise):

    chi_w = sum of (R+ \\ R_l+) cap w^{-1} R+        (root-sum form)
          = sum of R+ \\ R_l+  -  sum of N(w),  N(w) = R+ cap w^{-1} R-
    chi_w = rho - 2 rho^L + w^{-1} rho               (closed form)

Belkale-Kumar criterion (Invent. Math. 166, 2006):
the deformed top coefficient of w_1, ..., w_s is the ordinary one when sum_j
chi_{w_j} - chi_e vanishes at every crossed node, and 0 otherwise.  As chi_w +
chi_dual(w) = chi_e there, c^w_{u,v} survives iff (u, v, dual(w)) meets it.
Where the ordinary top is nonzero, that defect is at most 0 at every crossed
node (Belkale-Kumar's inequality, which makes the deformed product defined);
tops_run and the deformed rows raise ExactnessError where it is positive.
"""

from __future__ import annotations

from collections import namedtuple
from operator import gt

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

    def _completing_column(self, prefix):
        """The column at the crossed nodes of the one class c for which
        prefix + (c,) meets the criterion: chi_e's minus the prefix's sum."""
        cols = self._columns
        return tuple(e - sum(x) for e, *x in zip(cols[0], *(cols[i] for i in prefix)))

    # -- deformed multiplication ----------------------------------------------

    def row(self, i, j):
        return self._rows[(i, j) if i <= j else (j, i)]

    def _row(self, key):
        """ring.row(i, j) cut to the c^k_{i,j} whose (i, j, dual(k)) meets the
        criterion; every other one must meet the inequality."""
        row = self.ring.row(*key)
        if not row:
            return {}
        dual, cols, need = self.ct.dual_index, self._columns, self._completing_column(key)
        return {k: c for k, c in row.items()
                if cols[dual[k]] == need or _unbalanced(cols[dual[k]], need, (*key, dual[k]))}

    def tops_run(self, prefix, lasts):
        """[(ordinary top, deformed top) of prefix + (c,)] for c in lasts, from
        one pairing per tuple (SchubertBasisRing.top_run): the deformed top is
        the ordinary one when it is nonzero and the classes meet the
        criterion, which is read off one column per run (_completing_column); a
        nonzero top that misses it must meet the inequality."""
        tops = self.ring.top_run(prefix, lasts)
        if not any(tops):
            return [(0, 0)] * len(tops)
        cols, need = self._columns, self._completing_column(prefix)
        return [(t, t) if not t or cols[c] == need
                else (t, _unbalanced(cols[c], need, (*prefix, c))) for t, c in zip(tops, lasts)]

    def top_run(self, prefix, lasts):
        """The deformed tops of a run, the deformed half of tops_run: the
        inherited top_coefficient reads a tuple's deformed top through the
        criterion, not by folding deformed rows."""
        return [d for _, d in self.tops_run(prefix, lasts)]


def _unbalanced(col, need, idx):
    """0, the deformed top of the classes with indices idx, whose ordinary top
    is nonzero and whose last column misses the completing column `need` of
    the others, once Belkale-Kumar's inequality is checked: col lies at or
    below need at every crossed node."""
    if any(map(gt, col, need)):
        raise ExactnessError(f"nonzero top of the classes {idx} breaks "
                             f"Belkale-Kumar's inequality (convention bug)")
    return 0
