"""Independent reference routes that the tests check production against;
no production module imports this one.

  * `ReferenceBGG`: BGG representatives in the textbook normalisation, a
    second route to the structure constants of `schubert.CupRing`;
  * Kostant's partition function and Steinberg's `tensor_multiplicity`, a
    second route to the counts of `levi.LeviSystem`, on the whole system they
    are given (on an unsplit Levi they check the per-factor product);
  * `bruhat_le`, the Bruhat order that `weyl.CosetTable.covers` must match;
  * `structure_constant` and `restrict`, element-level reads for the tests.
"""

from __future__ import annotations

from fractions import Fraction

from .roots import ExactnessError, weyl_order
from .schubert import padd, pmul_linear, psub, walk_down
from .weyl import group


def pmul(f, g):
    """Product of two polynomials {exponent tuple: coefficient}."""
    if len(f) > len(g):
        f, g = g, f
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                del out[m]
    return out


class ReferenceBGG:
    """Textbook-normalised representatives in simple-root variables.

    Seeds with prod(R+)/|W| exactly and divides by the variable alpha_i
    itself, so this path is independent of the realization coordinates.
    Quadratic blowup in the substitution step: small ranks only.
    """

    def __init__(self, R):
        self.system = R
        self.wg = group(R)
        n = R.rank
        f = {tuple(0 for _ in range(n)): Fraction(1, weyl_order(R))}
        for beta in R.positive_roots:
            f = pmul_linear(f, {j: beta[j] for j in range(n) if beta[j]})
        self._table = {self.wg.longest().inv: f}

    def _s_apply(self, i0, f):
        R = self.system
        n = R.rank
        images = []
        for j in range(n):
            form = {tuple(int(t == j) for t in range(n)): 1}
            a = R.cartan[i0][j]
            if a:
                m = tuple(int(t == i0) for t in range(n))
                form[m] = form.get(m, 0) - a
            images.append({m: c for m, c in form.items() if c})
        out = {}
        for m, c in f.items():
            term = {tuple(0 for _ in range(n)): c}
            for j, e in enumerate(m):
                for _ in range(e):
                    term = pmul(term, images[j])
            out = padd(out, term)
        return out

    def ddiff(self, i0, f):
        g = psub(f, self._s_apply(i0, f))
        out = {}
        for m, c in g.items():
            if m[i0] < 1:
                raise ExactnessError("inexact division (convention bug)")
            out[tuple(e - 1 if k == i0 else e for k, e in enumerate(m))] = c
        return out

    def rep(self, w):
        """{exponent tuple in the simple roots: Fraction}, of degree ell(w);
        rep(w0) = prod(R+)/|W| and rep(e) = 1."""
        return walk_down(self.wg, self._table, w, self.ddiff)


def structure_constant(ring, u, v, w):
    """c^w_{u,v} of a SchubertBasisRing, read off the row of (u, v); 0 off
    the degree codim(u) + codim(v) = codim(w)."""
    ct = ring.ct
    i, j, k = ct.index_of(u), ct.index_of(v), ct.index_of(w)
    if ct.codim(u) + ct.codim(v) != ct.codim(w):
        return 0
    return ring.row(i, j).get(k, 0)


# -- Kostant partition function and Steinberg's formula ------------------------

_kpf = {}  # the positive roots of a system, largest first -> {(vec, idx): count}


def kostant_partition(L, vec):
    """Number of ways to write vec (simple-root coordinates) as a
    nonnegative integer combination of the positive roots of the
    LeviSystem L."""
    vec = tuple(int(x) for x in vec)
    if any(x < 0 for x in vec):
        return 0
    roots = tuple(sorted(L.system.positive_roots, key=lambda b: -sum(b)))
    memo = _kpf.setdefault(roots, {})

    def count(v, idx):
        if not any(v):
            return 1
        if idx == len(roots):
            return 0
        key = (v, idx)
        if key in memo:
            return memo[key]
        total = 0
        beta = roots[idx]
        cur = v
        while True:
            total += count(cur, idx + 1)
            nxt = tuple(a - b for a, b in zip(cur, beta))
            if any(x < 0 for x in nxt):
                break
            cur = nxt
        memo[key] = total
        return total

    return count(vec, 0)


def tensor_multiplicity(L, lam, mu, nu):
    """Multiplicity of V(nu) in V(lam) (x) V(mu) for the LeviSystem L, by
    Steinberg's formula: sum over (u, v) in W x W of sign(uv)
    P(u(lam+rho)+v(mu+rho)-nu-2rho)."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    for w in (lam, mu, nu):
        if not L.is_dominant(w):
            raise ValueError(f"{w!r} is not dominant")
    R, wg = L.system, L.wg
    lam_rho = tuple(x + 1 for x in lam)
    mu_rho = tuple(x + 1 for x in mu)
    shift = tuple(n + 2 for n in nu)  # nu + 2 rho
    total = 0
    elements = wg.all_elements()
    images_l = [(1 if u.length % 2 == 0 else -1, wg.act_weight(u, lam_rho))
                for u in elements]
    images_m = [(1 if v.length % 2 == 0 else -1, wg.act_weight(v, mu_rho))
                for v in elements]
    for su, ul in images_l:
        for sv, vm in images_m:
            arg = tuple(a + b - c for a, b, c in zip(ul, vm, shift))
            sr = R.root_of_fund(arg)
            if any(Fraction(x).denominator != 1 or x < 0 for x in sr):
                continue
            total += su * sv * kostant_partition(L, tuple(int(x) for x in sr))
    if total < 0:
        raise ExactnessError("negative Steinberg multiplicity (convention bug)")
    return total


def restrict(L, ambient_fund):
    """Levi coordinates of an ambient weight: its pairings at the nodes of
    the LeviSystem L, refused (ValueError) unless they are integers."""
    out = tuple(Fraction(ambient_fund[i - 1]) for i in L.nodes)
    if any(x.denominator != 1 for x in out):
        raise ValueError(f"{tuple(ambient_fund)!r} pairs nonintegrally with the "
                         f"Levi nodes {list(L.nodes)}")
    return tuple(int(x) for x in out)


# -- Bruhat order ----------------------------------------------------------------

def bruhat_le(wg, v, w):
    """v <= w in the Bruhat order of the WeylGroup wg, by the lifting
    property: for the left descent s_i of w that starts its word, v <= w iff
    min(v, s_i v) <= s_i w."""
    while v.length <= w.length:
        if v.length == 0:
            return True
        i = w.word[0]
        w = wg.left_gen(i, w)  # shorter
        if v.key[i - 1] < 0:  # ell(s_i v) < ell(v)
            v = wg.left_gen(i, v)
    return False
