"""Exact Cartan/root data for the finite types A-D and G2.

Weights are plain tuples in the fundamental-weight basis; roots are integer
tuples in the simple-root basis.  Everything is exact (ints and Fractions),
no floating point anywhere.

Simple roots are numbered as in the Bourbaki plates (1-based):

    A_l   1 - 2 - ... - l
    B_l   1 - 2 - ... - (l-1) => l     (alpha_l short)
    C_l   1 - 2 - ... - (l-1) <= l     (alpha_l long)
    D_l   1 - ... - (l-2) with fork to (l-1) and l
    G_2   1 <<= 2                      (alpha_1 short)
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

SUPPORTED_RANKS = {
    "A": range(1, 8),
    "B": range(2, 6),
    "C": range(2, 6),
    "D": range(4, 6),
    "G": range(2, 3),
}

WEYL_ORDER_FORMULA = {
    "A": lambda l: factorial(l + 1),
    "B": lambda l: 2**l * factorial(l),
    "C": lambda l: 2**l * factorial(l),
    "D": lambda l: 2 ** (l - 1) * factorial(l),
    "G": lambda l: 12,
}


class ExactnessError(AssertionError):
    """An exactness invariant failed: an inexact division, a noninteger or
    negative count, two formulas that must agree did not, or a structural
    cross-check (a length, a level bound) was broken.  Raised by an explicit
    check, so it also fires under ``python -O``."""


class Memo(dict):
    """A memo that fills itself: memo[key] computes fn(key) on the first read
    and stores it.  If fn raises, the key stays absent.  get, `in`,
    setdefault and dict(memo) never call fn."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# ---------------------------------------------------------------------------
# small exact linear algebra on tuple matrices


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_inverse(a):
    """Exact inverse over the rationals (Gauss-Jordan)."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def cartan_matrix(type_letter, rank):
    """Bourbaki Cartan matrix with entries a[i][j] = <alpha_j, alpha_i^vee>."""
    l = rank
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def edge(i, j):  # single bond, 0-based
        a[i][j] = a[j][i] = -1

    if type_letter == "A":
        for i in range(l - 1):
            edge(i, i + 1)
    elif type_letter in ("B", "C"):
        for i in range(l - 2):
            edge(i, i + 1)
        if type_letter == "B":  # alpha_l short: <alpha_{l-1}, alpha_l^vee> = -2
            a[l - 2][l - 1] = -1
            a[l - 1][l - 2] = -2
        else:  # C: alpha_l long: <alpha_l, alpha_{l-1}^vee> = -2
            a[l - 2][l - 1] = -2
            a[l - 1][l - 2] = -1
    elif type_letter == "D":
        for i in range(l - 2):
            edge(i, i + 1)
        edge(l - 3, l - 1)
    elif type_letter == "G":
        a[0][1] = -3  # <alpha_2, alpha_1^vee>
        a[1][0] = -1
    else:
        raise ValueError(f"unsupported type {type_letter!r}")
    return tuple(tuple(row) for row in a)


def _symmetrizers(cartan):
    """Positive integers d_i with d_i a_ij = d_j a_ji (per component minimal):
    ratios d_j = d_i a_ij / a_ji along the edges of each component, then one
    scaling to coprime integers."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start], comp = Fraction(1), [start]
        for i in comp:  # grows while it is walked: one pass per component
            for j in range(n):
                if d[j] is None and cartan[i][j]:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    comp.append(j)
        scale = lcm(*(d[i].denominator for i in comp))
        common = gcd(*(int(d[i] * scale) for i in comp))
        for i in comp:
            d[i] = int(d[i] * scale) // common
    if any(d[i] * cartan[i][j] != d[j] * cartan[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Cartan matrix is not symmetrizable")
    return tuple(d)


def _positive_roots(cartan):
    """Closure of the simple roots under the simple reflections that raise a
    root: where <beta, alpha_i^vee> = c < 0, s_i beta = beta - c alpha_i is a
    root of greater height (WeylGroup._reflect_root's rule), and every positive
    root is reached so; sorted by (height, tuple)."""
    n = len(cartan)
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    todo = list(roots)
    while todo:
        beta = todo.pop()
        for i, row in enumerate(cartan):
            c = sum(a * b for a, b in zip(row, beta))
            if c < 0 and (up := beta[:i] + (beta[i] - c,) + beta[i + 1:]) not in roots:
                roots.add(up)
                todo.append(up)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


class RootSystem:
    """Root-system data attached to one (possibly decomposable) Cartan matrix.

    The named types are built with :func:`build`; Levi subsystems reuse the
    same class via :meth:`sub_system`.
    """

    def __init__(self, cartan, label="", type_letter=None, rank=None):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        n = len(self.cartan)
        for i, row in enumerate(self.cartan):
            if len(row) != n or row[i] != 2 or any(row[j] > 0 for j in range(n) if j != i):
                raise ValueError("not a valid Cartan matrix")
        self.rank = n
        self.label = label
        self.type_letter = type_letter
        self.inverse_cartan = mat_inverse(self.cartan) if n else ()
        # root_scale * inverse_cartan is an integer matrix
        self._root_scale = lcm(*(x.denominator for row in self.inverse_cartan for x in row))
        self._scaled_inverse = tuple(tuple(int(x * self._root_scale) for x in row)
                                     for row in self.inverse_cartan)
        self.symmetrizers = _symmetrizers(self.cartan)
        self.positive_roots = _positive_roots(self.cartan)
        self._posroot_set = set(self.positive_roots)
        self._weyl_group = None  # weyl.group(self), built on first use
        self.rho = (1,) * n
        maximal = [b for b in self.positive_roots
                   if sum(b) == max((sum(r) for r in self.positive_roots), default=0)]
        self.theta = maximal[0] if len(maximal) == 1 else None

    # -- basis conversions --------------------------------------------------

    def fund_of_root(self, beta):
        """Fundamental coordinates of a root-lattice vector."""
        return mat_vec(self.cartan, beta)

    def lattice_coords(self, weight):
        """Integer simple-root coordinates of an integral weight, or None when
        it lies off the root lattice."""
        out = []
        for row in self._scaled_inverse:
            q, r = divmod(sum(a * x for a, x in zip(row, weight)), self._root_scale)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def is_positive_root(self, beta):
        return tuple(beta) in self._posroot_set

    def sub_system(self, nodes):
        """Root subsystem generated by a subset of simple roots (1-based)."""
        nodes = sorted(nodes)
        sub = tuple(tuple(self.cartan[i - 1][j - 1] for j in nodes) for i in nodes)
        return RootSystem(sub, label=f"{self.label}|levi{nodes}")

    def __repr__(self):
        return f"RootSystem({self.label or self.cartan})"


@lru_cache(maxsize=None)
def build(type_letter, rank):
    """Root system of a named simple type at the given rank.

    Supported: A 1-7, B 2-5, C 2-5, D 4-5, G 2.  Larger ranks are rejected
    so every Weyl group stays comfortably enumerable.
    """
    letter = str(type_letter).upper()
    if letter not in SUPPORTED_RANKS:
        raise ValueError(f"unsupported type {type_letter!r} (expected one of A,B,C,D,G)")
    if rank not in SUPPORTED_RANKS[letter]:
        lo, hi = SUPPORTED_RANKS[letter][0], SUPPORTED_RANKS[letter][-1]
        raise ValueError(f"rank {rank} out of supported range {lo}..{hi} for type {letter}")
    return RootSystem(cartan_matrix(letter, rank), label=f"{letter}{rank}",
                      type_letter=letter, rank=rank)


def weyl_order(R):
    if R.type_letter is None:
        raise ValueError("order formula only available for named types")
    return WEYL_ORDER_FORMULA[R.type_letter](R.rank)


class ParabolicData:
    """A standard parabolic: the set Delta(P) of uncrossed simple nodes plus
    the derived quantities (Levi positive roots, rho^L, dim G/P, m_o)."""

    def __init__(self, system, levi_simple):
        self.system = system
        self.levi_simple = frozenset(int(i) for i in levi_simple)
        if not self.levi_simple <= set(range(1, system.rank + 1)):
            raise ValueError("levi_simple must be a subset of the node set")
        self.crossed = tuple(i for i in range(1, system.rank + 1)
                             if i not in self.levi_simple)
        self.levi_positive_roots = tuple(filter(self.in_levi, system.positive_roots))
        # rho^L in fundamental coordinates: half of 2 rho^L, the Levi roots' sum
        two = mat_vec(system.cartan, [sum(b[j] for b in self.levi_positive_roots)
                                      for j in range(system.rank)])
        self.rho_levi = tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in two)
        self.dim_gp = len(system.positive_roots) - len(self.levi_positive_roots)
        self.m_o = self.root_at_xp(system.theta) if system.theta and self.crossed else 0

    def root_at_xp(self, beta):
        """beta(x_P) for a root-lattice vector: sum of crossed coordinates."""
        return sum(beta[j - 1] for j in self.crossed)

    def in_levi(self, beta):
        return all(beta[j - 1] == 0 for j in self.crossed)

    def __repr__(self):
        return f"ParabolicData({self.system.label}, crossed={list(self.crossed)})"


def parabolic(R, levi_simple=None, crossed=None):
    """Build ParabolicData from either Delta(P) or its complement."""
    if (levi_simple is None) == (crossed is None):
        raise ValueError("give exactly one of levi_simple / crossed")
    if crossed is not None:
        nodes, crossed = set(range(1, R.rank + 1)), {int(i) for i in crossed}
        if not crossed <= nodes:
            raise ValueError(f"crossed nodes {sorted(crossed - nodes)} are not among "
                             f"the simple nodes 1..{R.rank}")
        levi_simple = nodes - crossed
    return ParabolicData(R, levi_simple)
