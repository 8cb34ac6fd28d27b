"""Independent reference routes that the tests check production against,
and the checks built on them; no production module imports this one.

  * `ReferenceBGG`: BGG representatives in the textbook normalisation, a
    second route to the structure constants of `schubert.CupRing`;
  * Kostant's partition function and Steinberg's `tensor_multiplicity` over
    `all_elements(wg)`, a second route to the counts of `levi.LeviSystem`,
    on the whole system they are given (on an unsplit Levi they check the
    per-factor product);
  * the Bruhat covers of W^P, `covers` and the one-triple `is_cover`, found
    by reflecting along every positive root (`reflect`, `coroot_pairing`),
    checked against the Bruhat order `bruhat_le` (its step s_i w is
    `left_gen`), and the cover lemmas of
    the `cells` data: `cell_in_stabilizer_orbit`, `dj_profile_at_cover` and
    `cover_level_identity`;
  * `grassmannian_cell` and `grassmannian_bijection`, the partition-to-cell
    route that `lr.grassmannian_partition` inverts;
  * `structure_constant`, `restrict`, `root_of_fund`, `chi_balanced` and
    `hom_dimension`, element-level reads for the tests.
"""

from __future__ import annotations

from fractions import Fraction

from .cells import DjProfile, dj_profile, stabilizer_simple_roots
from .lr import normalize
from .roots import ExactnessError, mat_vec, weyl_order
from .schubert import padd, pmul_linear, psub, walk_down
from .weyl import _ascending_closure, group


# -- roots and Weyl group elements ---------------------------------------------

def root_of_fund(R, weight):
    """Simple-root coordinates (rational) of a weight in fund coordinates."""
    return mat_vec(R.inverse_cartan, weight)


def coroot_pairing(R, weight, beta):
    """<weight, beta^vee> = 2(weight, beta)/(beta, beta), exact, in the form
    (alpha_i, alpha_j) = d_i a_ij of the symmetrizers d_i, so that
    (omega_i, alpha_j) = d_j delta_ij."""
    d, a = R.symmetrizers, R.cartan
    num = 2 * sum(x * dj * b for x, dj, b in zip(weight, d, beta))
    den = sum(x * d[i] * a[i][j] * y for i, x in enumerate(beta) for j, y in enumerate(beta))
    val = Fraction(num, den)
    return int(val) if val.denominator == 1 else val


def reflect(R, f, beta):
    """s_beta on a weight in fundamental coordinates: f - <f, beta^vee> beta."""
    c = coroot_pairing(R, f, beta)
    return tuple(x - c * b for x, b in zip(f, R.fund_of_root(beta)))


def from_word(wg, word):
    """The product of the simple reflections in word, an element of the
    WeylGroup wg; the word need not be reduced."""
    return wg._element(wg._key_of_word(word))


def all_elements(wg):
    """Every element of the WeylGroup wg, sorted by (length, word); small
    ranks only."""
    return _ascending_closure(wg, ())


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
    elements = all_elements(wg)
    images_l = [(1 if u.length % 2 == 0 else -1, wg.act_weight(u, lam_rho))
                for u in elements]
    images_m = [(1 if v.length % 2 == 0 else -1, wg.act_weight(v, mu_rho))
                for v in elements]
    for su, ul in images_l:
        for sv, vm in images_m:
            arg = tuple(a + b - c for a, b, c in zip(ul, vm, shift))
            sr = root_of_fund(R, arg)
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


# -- the central characters ----------------------------------------------------

def chi_balanced(dr, idx):
    """True iff the classes with coset-table indices idx meet Belkale-Kumar's
    criterion on the DeformedRing dr: sum_j chi_{w_j} - chi_e vanishes at
    every crossed node, summed from the chi characters themselves."""
    els, crossed = dr.ct.elements, dr.parabolic.crossed
    total = [sum(col) for col in zip(*(dr.chi(els[i]).root_coords for i in idx))]
    chi_e = dr.chi(els[0]).root_coords
    return all(total[k - 1] == chi_e[k - 1] for k in crossed)


def hom_dimension(cx, ws, n=1):
    """Multiplicity of V(n chi_e) in the tensor product of the V(n chi_{w_i}),
    as representations of the full Levi of a FlagContext cx: the semisimple
    invariant count of cx.levi when the central characters match
    (chi_balanced), and 0 otherwise."""
    dr = cx.deformed
    if not chi_balanced(dr, [dr.ct.index_of(w) for w in ws]):
        return 0
    return cx.levi.invariant_dimension([dr.chi(w).levi_coords for w in ws], n=n)


# -- Bruhat order and covers ---------------------------------------------------

def left_gen(wg, i, w):
    """s_i w in the WeylGroup wg."""
    return wg._element(wg._reflect(w.key, i - 1))


def bruhat_le(wg, v, w):
    """v <= w in the Bruhat order of the WeylGroup wg, by the lifting
    property: for the left descent s_i of w that starts its word, v <= w iff
    min(v, s_i v) <= s_i w."""
    while v.length <= w.length:
        if v.length == 0:
            return True
        i = w.word[0]
        w = left_gen(wg, i, w)  # shorter
        if v.key[i - 1] < 0:  # ell(s_i v) < ell(v)
            v = left_gen(wg, i, v)
    return False


def _cover_of(ct, v, beta):
    """w = s_beta v if it lies in W^P with ell(w) = ell(v) + 1, else None."""
    k = ct._pos.get(reflect(ct.wg.system, v.key, beta))
    return ct.elements[k] if k is not None and ct.lengths[k] == v.length + 1 else None


def covers(ct):
    """The Bruhat covers of the CosetTable ct, in v-major, root-minor order:
    triples (v, w, beta) with w = s_beta v, ell(w) = ell(v) + 1, both in W^P
    and beta a positive root."""
    return tuple((v, w, beta) for v in ct.elements for beta in ct.wg.system.positive_roots
                 if (w := _cover_of(ct, v, beta)) is not None)


def is_cover(ct, v, beta, w):
    """(v, w, beta) in covers(ct), tested on that one triple."""
    return (v.key in ct._pos and ct.wg.system.is_positive_root(beta)
            and _cover_of(ct, v, beta) == w)


def cell_in_stabilizer_orbit(ct, v, beta, w):
    """For a cover v -> w along beta: is the codim-one cell C_v inside the
    open Q_w-orbit of X_w?  Happens exactly when beta in Delta(Q_w); such a
    beta is necessarily simple."""
    if not is_cover(ct, v, beta, w):
        raise ValueError("(v, beta, w) is not a cover in W^P")
    return sum(beta) == 1 and (beta.index(1) + 1) in stabilizer_simple_roots(ct, w)


def dj_profile_at_cover(ct, v, beta, w) -> DjProfile:
    """Level dimensions of T_e(v^{-1} X_w) for a cover v -> w along beta:
    the profile of v plus one increment at level alpha(x_P), alpha = v^{-1}beta."""
    if not is_cover(ct, v, beta, w):
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
    rhs = coroot_pairing(R, R.rho, beta) * P.root_at_xp(alpha)
    return lhs, rhs


# -- Grassmannian cells --------------------------------------------------------

def _word_from_oneline(perm):
    """Reduced word (1-based) for a permutation given in one-line notation."""
    p = list(perm)
    rev = []
    while True:
        i = next((i for i in range(len(p) - 1) if p[i] > p[i + 1]), None)
        if i is None:
            break
        p[i], p[i + 1] = p[i + 1], p[i]
        rev.append(i + 1)
    return tuple(reversed(rev))


def grassmannian_cell(ct, lam):
    """The W^P element whose Schubert cell has dimension |lam|.

    lam must fit in the r x (n-r) box, r the crossed node of Gr(r, n).
    """
    P = ct.parabolic
    r = P.crossed[0]
    n = P.system.rank + 1
    k = n - r
    lam = normalize(lam)
    if len(lam) > r or (lam and lam[0] > k):
        raise ValueError(f"partition {lam!r} does not fit in the {r}x{k} box")
    full = lam + (0,) * (r - len(lam))
    head = [full[r - i] + i for i in range(1, r + 1)]
    tail = sorted(set(range(1, n + 1)) - set(head))
    w = ct.element_from_word(_word_from_oneline(head + tail))
    if w.length != sum(lam):
        raise ExactnessError(f"cell of {lam!r} has length {w.length}")
    return w


def grassmannian_bijection(ct, lam):
    """Partition in P_k(r) -> the codimension-|lam| Schubert basis index."""
    return ct.dual[grassmannian_cell(ct, lam)]
