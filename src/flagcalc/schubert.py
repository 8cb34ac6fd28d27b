"""Cup-product structure constants of H*(G/P, Z) in the Schubert basis.

Engine: divided-difference calculus on exact integer polynomials.  Per type
we pick coordinates in which the simple reflections act as signed monomial
maps (types A-D) or as a one-variable substitution (G2), seed the calculus
with a representative of the top class, and walk down with

    d_i f = (f - s_i f) / alpha_i .

Classes are indexed by W^P in the homological grading ([X_w] of codimension
dim G/P - ell(w)); internally everything is transported to the codimension
grading through the duality w -> w0 w w0^P.  Coefficient extraction applies
d along a reduced word of the target index and reads the constant term,
which is insensitive to the ideal of positive-degree invariants, so any
representative of the top class yields the same constants.

`bgg_representatives` is a separate small reference path that follows the
textbook normalisation (top = prod(R+)/|W|, polynomials in the simple
roots); it doubles as an independent cross-check of the fast engine.
"""

from __future__ import annotations

from fractions import Fraction

from .roots import ExactnessError, weyl_order
from .weyl import group, minimal_coset_reps

# polynomials are dicts {exponent tuple: coefficient}; no zero values stored.


def padd(f, g):
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def psub(f, g):
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) - c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pmul(f, g):
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


def pmul_linear(f, form):
    out = {}
    for m, c in f.items():
        for var, fc in form.items():
            mm = tuple(e + 1 if k == var else e for k, e in enumerate(m))
            v = out.get(mm, 0) + c * fc
            if v:
                out[mm] = v
            else:
                del out[mm]
    return out


def divide_linear(f, form):
    """Exact division of f by a 1- or 2-term linear form; raises
    ExactnessError when the division leaves a remainder."""
    items = sorted(form.items())
    if len(items) == 1:
        (p, cp), = items
        out = {}
        for m, c in f.items():
            if m[p] < 1 or c % cp:
                raise ExactnessError("inexact division (convention bug)")
            out[tuple(e - 1 if k == p else e for k, e in enumerate(m))] = c // cp
        return out
    (p, cp), (q, cq) = items
    layers = {}
    for m, c in f.items():
        rest = tuple(0 if t == p else e for t, e in enumerate(m))
        layers.setdefault(m[p], {})[rest] = c
    out = {}
    prev_q = {}  # quotient layer Q_k while scanning k+1 -> k
    for k in range(max(layers, default=0), -1, -1):
        rk = dict(layers.get(k, {}))
        for m, c in prev_q.items():
            mm = tuple(e + 1 if t == q else e for t, e in enumerate(m))
            v = rk.get(mm, 0) - cq * c
            if v:
                rk[mm] = v
            else:
                rk.pop(mm, None)
        if k == 0:
            if rk:
                raise ExactnessError("inexact division (convention bug)")
            break
        cur = {}
        for m, c in rk.items():
            if c % cp:
                raise ExactnessError("inexact division (convention bug)")
            cur[m] = c // cp
        for m, c in cur.items():
            out[tuple(k - 1 if t == p else e for t, e in enumerate(m))] = c
        prev_q = cur
    return out


class Realization:
    """Per-type coordinates for the fast divided-difference calculus."""

    def __init__(self, R):
        self.system = R
        letter, l = R.type_letter, R.rank
        if letter == "A":
            self.nvars = l + 1
            self.alpha_forms = [{i: 1, i + 1: -1} for i in range(l)]
            self._mono = [("swap", i, i + 1) for i in range(l)]
        elif letter in ("B", "C"):
            self.nvars = l
            self.alpha_forms = [{i: 1, i + 1: -1} for i in range(l - 1)]
            self.alpha_forms.append({l - 1: 1} if letter == "B" else {l - 1: 2})
            self._mono = [("swap", i, i + 1) for i in range(l - 1)] + [("neg", l - 1)]
        elif letter == "D":
            self.nvars = l
            self.alpha_forms = [{i: 1, i + 1: -1} for i in range(l - 1)]
            self.alpha_forms.append({l - 2: 1, l - 1: 1})
            self._mono = [("swap", i, i + 1) for i in range(l - 1)] + [("swapneg", l - 2, l - 1)]
        elif letter == "G":
            # fundamental-weight coordinates; s_i rewrites only y_i
            self.nvars = l
            self.alpha_forms = [
                {k: R.cartan[k][i] for k in range(l) if R.cartan[k][i]}
                for i in range(l)
            ]
            self._mono = [None] * l
        else:
            raise ValueError(f"no realization for type {letter!r}")

    def root_form(self, beta):
        out = {}
        for j, bj in enumerate(beta):
            if bj:
                for var, c in self.alpha_forms[j].items():
                    v = out.get(var, 0) + bj * c
                    if v:
                        out[var] = v
                    else:
                        del out[var]
        return out

    def seed(self):
        """A representative of the top class, scaled to integer coefficients.

        Types B/C/D/G seed with prod(R+) at scale |W|; type A seeds with the
        staircase monomial (the same class modulo the invariant ideal), which
        keeps the whole type-A calculus at scale 1 with small polynomials.
        """
        R = self.system
        if R.type_letter == "A":
            n = self.nvars
            return {tuple(range(n - 1, -1, -1)): 1}, 1
        f = {tuple(0 for _ in range(self.nvars)): 1}
        for beta in R.positive_roots:
            f = pmul_linear(f, self.root_form(beta))
        return f, weyl_order(R)

    def s_apply(self, i0, f):
        """Action of s_{i0+1} on a polynomial (0-based generator index)."""
        rule = self._mono[i0]
        if rule is None:
            return self._s_subst(i0, f)
        out = {}
        if rule[0] == "swap":
            _, a, b = rule
            for m, c in f.items():
                mm = list(m)
                mm[a], mm[b] = mm[b], mm[a]
                out[tuple(mm)] = c
        elif rule[0] == "neg":
            _, a = rule
            for m, c in f.items():
                out[m] = -c if m[a] % 2 else c
        else:  # swapneg
            _, a, b = rule
            for m, c in f.items():
                mm = list(m)
                mm[a], mm[b] = mm[b], mm[a]
                out[tuple(mm)] = -c if (m[a] + m[b]) % 2 else c
        return out

    def _s_subst(self, i0, f):
        # y_{i0} -> y_{i0} - alpha_{i0}; other variables fixed
        image = {tuple(int(k == i0) for k in range(self.nvars)): 1}
        for var, c in self.alpha_forms[i0].items():
            m = tuple(int(k == var) for k in range(self.nvars))
            image[m] = image.get(m, 0) - c
        image = {m: c for m, c in image.items() if c}
        powers = {0: {tuple(0 for _ in range(self.nvars)): 1}}

        def power(k):
            if k not in powers:
                powers[k] = pmul(power(k - 1), image)
            return powers[k]

        out = {}
        for m, c in f.items():
            rest = tuple(0 if t == i0 else e for t, e in enumerate(m))
            for mm, cc in power(m[i0]).items():
                key = tuple(a + b for a, b in zip(rest, mm))
                v = out.get(key, 0) + c * cc
                if v:
                    out[key] = v
                else:
                    del out[key]
        return out

    def ddiff(self, i0, f):
        return divide_linear(psub(f, self.s_apply(i0, f)), self.alpha_forms[i0])


def walk_down(wg, table, w, ddiff):
    """table[w], filling the table on the way: climb from w by the smallest
    right ascent until an entry is found, then apply ddiff(i0, f) back down."""
    if w in table:
        return table[w]
    stack = []  # (element, ascent letter): cur = element * s_letter
    cur = w
    while cur not in table:
        i = next(i for i in range(1, wg.system.rank + 1) if not wg.descends_right(cur, i))
        stack.append((cur, i))
        cur = wg.right_gen(cur, i)
    f = table[cur]
    for below, i in reversed(stack):
        f = ddiff(i - 1, f)
        table[below] = f
    return f


class SchubertEngine:
    """Scaled representative table and coefficient extraction for one W."""

    def __init__(self, R):
        self.system = R
        self.wg = group(R)
        self.realization = Realization(R)
        seed, scale = self.realization.seed()
        self.scale = scale
        self._table = {self.wg.longest(): seed}

    def rep(self, w):
        """scale * (representative of the codim-ell(w) class indexed by w)."""
        return walk_down(self.wg, self._table, w, self.realization.ddiff)

    def extract(self, w, f):
        """Coefficient of the class of w in scale * f, as an exact integer.

        Applies the divided differences along a reduced word of w and reads
        the constant term; ideal terms die along the way, so the answer only
        depends on the class of f.
        """
        for i in reversed(w.word):
            if not f:
                return 0
            f = self.realization.ddiff(i - 1, f)
        if not f:
            return 0
        const = tuple(0 for _ in range(self.realization.nvars))
        if set(f) != {const}:
            raise ExactnessError("nonconstant extraction (degree mismatch)")
        return f[const]


class MultiPoly:
    """Exact polynomial in the simple roots alpha_1..alpha_l, rational coeffs."""

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return MultiPoly(out)

    def __mul__(self, other):
        return MultiPoly(pmul(self.terms, other.terms))

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def constant(self):
        return self.terms.get(tuple(0 for _ in range(self._nvars())), Fraction(0))

    def _nvars(self):
        return len(next(iter(self.terms), ()))

    def __repr__(self):
        return f"MultiPoly({self.terms!r})"


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
        self._table = {self.wg.longest(): f}

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
        return walk_down(self.wg, self._table, w, self.ddiff)


def bgg_representatives(R, elements=None):
    """{w: MultiPoly} with top = prod(R+)/|W|, S_e = 1, deg S_w = ell(w).

    Materialises the full table over W when elements is None; intended for
    small groups (reference/cross-check use).
    """
    ref = ReferenceBGG(R)
    if elements is None:
        elements = group(R).all_elements()
    return {w: MultiPoly(ref.rep(w)) for w in elements}


class CohomClass:
    """Integer combination of Schubert classes [X_w], w in W^P (homological
    indexing: [X_w] has codimension dim G/P - ell(w))."""

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {w: int(c) for w, c in coeffs.items() if c}

    def __eq__(self, other):
        return isinstance(other, CohomClass) and self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return CohomClass(self.ring, out)

    def coefficient(self, w):
        return self.coeffs.get(w, 0)

    def codims(self):
        ct = self.ring.ct
        return sorted({ct.codim(w) for w in self.coeffs})

    def is_homogeneous(self):
        return len(self.codims()) <= 1

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for w in sorted(self.coeffs, key=lambda w: (w.length, w.word)):
            bits.append(f"{self.coeffs[w]}*[{w.word_str() or 'e'}]")
        return " + ".join(bits)


class SchubertBasisRing:
    """Products in the Schubert basis of H*(G/P) for one (G, P).

    Subclasses supply row(u, v) = {w: c^w_{u,v}}; everything else here is
    built from it.
    """

    def _pair(self, u, v):
        """The canonical ordered pair (u, v) with index[u] <= index[v]."""
        ct = self.ct
        u, v = ct.canonical(u), ct.canonical(v)
        return (v, u) if ct.index[v] < ct.index[u] else (u, v)

    def basis(self, w):
        return CohomClass(self, {self.ct.canonical(w): 1})

    def structure_constant(self, u, v, w):
        ct = self.ct
        w = ct.canonical(w)
        if ct.codim(u) + ct.codim(v) != ct.codim(w):
            return 0
        return self.row(u, v).get(w, 0)

    def cup(self, a: CohomClass, b: CohomClass):
        out = {}
        for u, cu in a.coeffs.items():
            for v, cv in b.coeffs.items():
                for w, c in self.row(u, v).items():
                    out[w] = out.get(w, 0) + cu * cv * c
        return CohomClass(self, out)

    def product(self, ws):
        cls = self.basis(ws[0])
        for w in ws[1:]:
            cls = self.cup(cls, self.basis(w))
        return cls

    def top_coefficient(self, ws):
        """Coefficient of [X_e] in the iterated product; 0 unless the lengths
        sum to (s-1) dim G/P."""
        if len(ws) < 2:
            raise ValueError("need at least two classes")
        if sum(w.length for w in ws) != (len(ws) - 1) * self.parabolic.dim_gp:
            return 0
        return self.product(list(ws)).coefficient(self.ct.elements[0])


class CupRing(SchubertBasisRing):
    """Schubert-basis multiplication in H*(G/P, Z) for one (G, P)."""

    def __init__(self, R, P):
        self.system = R
        self.parabolic = P
        self.ct = minimal_coset_reps(R, P)
        self.engine = SchubertEngine(R)
        self._rows = {}

    @property
    def unit(self):
        return self.basis(self.ct.longest)

    def point(self):
        return self.basis(self.ct.elements[0])

    def row(self, u, v):
        """{w: c^w_{u,v}} over w in W^P; exact nonnegative integers."""
        key = self._pair(u, v)
        if key in self._rows:
            return self._rows[key]
        u, v = key
        ct = self.ct
        eng = self.engine
        target = ct.codim(u) + ct.codim(v)
        out = {}
        if target <= self.parabolic.dim_gp:
            f = pmul(eng.rep(ct.dual[u]), eng.rep(ct.dual[v]))
            sc2 = eng.scale * eng.scale
            for w in ct.by_length.get(self.parabolic.dim_gp - target, []):
                raw = eng.extract(ct.dual[w], f)
                c, r = divmod(raw, sc2)
                if r:
                    raise ExactnessError("noninteger structure constant (convention bug)")
                if c < 0:
                    raise ExactnessError("negative structure constant (convention bug)")
                if c:
                    out[w] = c
        self._rows[key] = out
        return out

    def set_row(self, u, v, row):
        """Seed the product cache (disk-cache warm-up); idempotent."""
        self._rows.setdefault(self._pair(u, v), dict(row))

    def known_rows(self):
        return dict(self._rows)

    intersection_number = SchubertBasisRing.top_coefficient
