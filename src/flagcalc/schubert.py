"""Cup-product structure constants of H*(G/P, Z) in the Schubert basis.

Engine: divided-difference calculus on exact integer polynomials.  Per type
we pick coordinates in which the simple reflections act as signed monomial
maps (types A-D) or as a one-variable substitution (G2), seed the calculus
at w0 with one monomial of degree |R+|, and walk down with

    d_i f = (f - s_i f) / alpha_i ,

written down monomial by monomial in closed form, (u^p - v^p)/(u - v) =
sum_{j<p} u^j v^(p-1-j), so that no polynomial is ever divided.

Seeds: the staircase x^(l, ..., 1, 0) for A_l, sg x^(1, 3, ..., 2n-1) for
B_n and C_n, sg x^(0, 2, ..., 2n-2) for D_n and y1^5 y2 for G2.  Such a
monomial is a multiple of the top class modulo the ideal of positive-degree
invariants, and the multiple is scale = d_{w0}(seed): 1 for A and C, 2^n for
B_n, 2^(n-1) for D_n and 2 for G2.  The engine computes it when it is built
and refuses a seed whose d_{w0} is not a nonzero constant.  The ascending
B-D seeds are the descending ones with the coordinates reversed by some w in
S_n < W; d_{w0}(w f) = det(w) d_{w0}(f), so sg = det(w) = (-1)^(n(n-1)/2)
keeps scale.  They give far smaller representatives for the W^P rows (C5{5}:
1,928 terms instead of 9,973); for A the descending staircase is the smaller.

Classes are indexed by W^P in the homological grading ([X_w] of codimension
dim G/P - ell(w)); internally everything is transported to the codimension
grading through the duality w -> w0 w w0^P.  Coefficient extraction applies
d along a reduced word of the target index and reads the constant term,
which is insensitive to the ideal of positive-degree invariants, so any
representative of the top class yields the same constants.

Extraction is linear, so a product f = sum_m f[m] x^m is extracted monomial
by monomial: E[m] = {target: extraction of x^m} comes from one walk of a
trie over the reversed words of all targets of that degree, pruned where a
divided difference vanishes, and is memoised per ring.  The product itself
runs on packed monomials (Kronecker substitution: exponent k sits in bit
field k of one int), so multiplying two monomials is one integer addition.

The independent cross-check of this engine, `ReferenceBGG` (the textbook
normalisation: top = prod(R+)/|W|, polynomials in the simple roots, s_i
applied by substitution and the difference divided out), lives in
`flagcalc.oracle`, which production never imports.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .roots import ExactnessError, Memo
from .weyl import group

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
    return padd(f, {m: -c for m, c in g.items()})


def pmul_packed(f, g):
    """The product of two polynomials on packed monomials (see CupRing._pack):
    one int addition per pair of terms."""
    if len(f) > len(g):
        f, g = g, f
    out = {}
    get = out.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


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


class Realization:
    """Per-type coordinates for the fast divided-difference calculus.

    Each simple reflection s_i is one rule tuple, and alpha_i is read off it:

      ("pair", a, b, sg)  s swaps u = x_a and v = sg*x_b;    alpha = u - v
      ("odd", a, k)       s negates x_a;                     alpha = (2/k)*x_a
      ("subst", a)        s sends u = y_a to v = u - alpha;  alpha = column a
                          of the Cartan matrix (fundamental-weight coordinates)

    Types A-D use "pair" (sg = -1 only at D's last node) and "odd" (k = 2
    for B, 1 for C); G2 uses "subst".
    """

    def __init__(self, R):
        self.system = R
        letter, l = R.type_letter, R.rank
        swaps = [("pair", i, i + 1, 1) for i in range(l - 1)]
        if letter == "A":
            self.nvars = l + 1
            self.rules = swaps + [("pair", l - 1, l, 1)]
        elif letter in ("B", "C"):
            self.nvars = l
            self.rules = swaps + [("odd", l - 1, 2 if letter == "B" else 1)]
        elif letter == "D":
            self.nvars = l
            self.rules = swaps + [("pair", l - 2, l - 1, -1)]
        elif letter == "G":
            self.nvars = l
            self.rules = [("subst", i) for i in range(l)]
        else:
            raise ValueError(f"no realization for type {letter!r}")
        self.alpha_forms = [self._alpha_form(rule) for rule in self.rules]
        self._quotients = Memo(self._quotient)  # (i0, p) -> sum_{j<p} u^j v^(p-1-j), "subst"
        self.check_rules()

    def _alpha_form(self, rule):
        kind, a = rule[0], rule[1]
        if kind == "pair":
            return {a: 1, rule[2]: -rule[3]}
        if kind == "odd":
            return {a: 2 // rule[2]}
        cartan = self.system.cartan
        return {k: cartan[k][a] for k in range(self.nvars) if cartan[k][a]}

    def _images(self, i0):
        """{variable s_i moves: the linear form s_i sends it to}."""
        rule = self.rules[i0]
        kind, a = rule[0], rule[1]
        if kind == "pair":
            return {a: {rule[2]: rule[3]}, rule[2]: {a: rule[3]}}
        if kind == "odd":
            return {a: {a: -1}}
        return {a: psub({a: 1}, self.alpha_forms[i0])}

    def seed(self):
        """The signed monomial the table starts from at w0: x^(l, ..., 1, 0)
        for A_l, sg x^(1, 3, ..., 2n-1) for B_n and C_n, sg x^(0, 2, ..., 2n-2)
        for D_n and y1^5 y2 for G2, where sg = (-1)^(n(n-1)/2) is the
        determinant of the coordinate reversal, an element of W, that sends
        the descending B-D staircase to these."""
        letter, n = self.system.type_letter, self.nvars
        if letter == "A":
            return {tuple(range(n - 1, -1, -1)): 1}
        if letter == "G":
            return {(5, 1): 1}
        top = range(0 if letter == "D" else 1, 2 * n, 2)
        return {tuple(top): -1 if n * (n - 1) // 2 % 2 else 1}

    def ddiff(self, i0, f):
        """d_i f = (f - s_i f) / alpha_i for i = i0 + 1, in one pass over f,
        from the closed form of each monomial's quotient:

          pair:  d(u^p v^q) = sgn(p-q) (uv)^min(p,q) sum_{j<|p-q|} u^j v^(|p-q|-1-j),
                 read back in x with v^k = sg^k x_b^k;
          odd:   d(x_a^p) = k x_a^(p-1) for odd p, 0 for even p;
          subst: d(u^p rest) = rest sum_{j<p} u^j v^(p-1-j).
        """
        rule = self.rules[i0]
        kind, a = rule[0], rule[1]
        if kind == "odd":
            return {m[:a] + (m[a] - 1,) + m[a + 1:]: rule[2] * c
                    for m, c in f.items() if m[a] % 2}
        out = {}
        if kind == "pair":
            b, sg = rule[2], rule[3]
            for m, c in f.items():
                p, q = m[a], m[b]
                if p == q:
                    continue
                lo, hi = min(p, q), max(p, q)
                if p < q:
                    c = -c
                if sg < 0 and (q + hi - 1) % 2:
                    c = -c
                mm = list(m)
                for j in range(hi - lo):
                    mm[a], mm[b] = lo + j, hi - 1 - j
                    key = tuple(mm)
                    v = out.get(key, 0) + c
                    if v:
                        out[key] = v
                    else:
                        del out[key]
                    if sg < 0:
                        c = -c
            return out
        for m, c in f.items():
            if m[a]:
                rest = m[:a] + (0,) + m[a + 1:]
                for mq, cq in self._quotients[i0, m[a]].items():
                    key = tuple(x + y for x, y in zip(rest, mq))
                    v = out.get(key, 0) + c * cq
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return out

    def _quotient(self, key):
        """(u^p - v^p)/(u - v) = u^(p-1) + v (u^(p-1) - v^(p-1))/(u - v) for
        key = (i0, p)."""
        i0, p = key
        (a, v), = self._images(i0).items()
        top = {tuple(p - 1 if k == a else 0 for k in range(self.nvars)): 1}
        return top if p == 1 else padd(top, pmul_linear(self._quotients[i0, p - 1], v))

    def check_rules(self):
        """Raise ExactnessError unless alpha_i d_i m = m - s_i m for every
        monomial m of degree <= 3 in the variables s_i moves, times 1 and
        times prod_k x_k^(k+1) over the other variables.  ddiff never
        divides, so this is where a closed form or a reflection that
        disagrees with its root is caught."""
        n = self.nvars
        for i0, alpha in enumerate(self.alpha_forms):
            images = self._images(i0)
            for deg in range(4):
                for moved in combinations_with_replacement(images, deg):
                    for rest in (0, 1):
                        m = tuple(moved.count(k) if k in images else rest * (k + 1)
                                  for k in range(n))
                        sm = {tuple(0 if k in images else e for k, e in enumerate(m)): 1}
                        for var in moved:
                            sm = pmul_linear(sm, images[var])
                        if pmul_linear(self.ddiff(i0, {m: 1}), alpha) != psub({m: 1}, sm):
                            raise ExactnessError(
                                f"s_{i0 + 1} disagrees with its root (convention bug)")


def walk_down(wg, table, w, ddiff):
    """The entry of w in a table keyed by w^{-1}(rho), filling the table on
    the way: climb from w by the smallest right ascent i = i0 + 1 (the first
    positive coordinate of the key) to w s_i (key s_i(w^{-1} rho)) until an
    entry is found, then apply ddiff(i0, f) back down; no element is built.
    Each step adds 1 to the length, so a climb longer than |R+| steps never
    reaches w0 and raises ExactnessError."""
    key = w.inv
    stack = []  # (key, ascent i0): the key above is s_{i0+1}(key)
    bound = len(wg.system.positive_roots)
    while key not in table:
        if len(stack) == bound:
            raise ExactnessError("table climb passed |R+| steps (convention bug)")
        i0 = next(i0 for i0, x in enumerate(key) if x > 0)
        stack.append((key, i0))
        key = wg._reflect(key, i0)
    f = table[key]
    for below, i0 in reversed(stack):
        f = ddiff(i0, f)
        table[below] = f
    return f


def extraction_trie(words):
    """Trie over the reversed words of {target: reduced word}: a node maps
    i0 to the subtrie for d_{i0+1}, and the node a whole word leads to maps
    None to that word's target."""
    root = {}
    for target, word in words.items():
        node = root
        for i in reversed(word):
            node = node.setdefault(i - 1, {})
        node[None] = target
    return root


class SchubertEngine:
    """Scaled representative table and coefficient extraction for one W."""

    def __init__(self, R):
        self.system = R
        self.wg = group(R)
        self.realization = Realization(R)
        self._table = {self.wg.longest().inv: self.realization.seed()}
        self._const = (0,) * self.realization.nvars
        top = self.rep(self.wg.identity)
        if set(top) != {self._const}:
            raise ExactnessError("d_w0 of the seed is not a nonzero constant")
        self.scale = top[self._const]

    def rep(self, w):
        """scale * (representative of the codim-ell(w) class indexed by w)."""
        return walk_down(self.wg, self._table, w, self.realization.ddiff)

    def extract(self, trie, m):
        """{target: coefficient of its class in scale * x^m} over the targets
        of an extraction trie whose words have length deg(m); targets whose
        coefficient is 0 are left out.

        Applies the divided differences along each target's word and reads
        the constant term; ideal terms die along the way, so the answer only
        depends on the class of x^m.  A branch stops where a divided
        difference vanishes.
        """
        out = {}
        ddiff, const = self.realization.ddiff, self._const

        def walk(node, f):
            for i0, child in node.items():
                if i0 is None:
                    if set(f) != {const}:
                        raise ExactnessError("nonconstant extraction (degree mismatch)")
                    out[child] = f[const]
                else:
                    g = ddiff(i0, f)
                    if g:
                        walk(child, g)

        walk(trie, {m: 1})
        return out


class SchubertBasisRing:
    """Products in the Schubert basis of H*(G/P) for one (G, P).

    Subclasses supply row(i, j) = {k: c^k_{i,j}} on coset-table indices, the
    same object for (i, j) and (j, i); everything else here is built from it.
    The element-level methods map W^P elements to indices and back.
    """

    def product(self, ws):
        """The product of the classes ws as {canonical W^P element: c}, every
        c positive; the empty product is the unit."""
        els = self.ct.elements
        return {els[k]: c for k, c in self._fold([self.ct.index_of(w) for w in ws]).items()}

    def _fold(self, idx):
        """The product of the classes with indices idx as {index: c}, multiplied
        left to right; a row is not copied.  No index gives the unit, the class
        of the longest element of W^P."""
        if not idx:
            return {len(self.ct) - 1: 1}
        if len(idx) == 1:
            return {idx[0]: 1}
        out = self.row(idx[0], idx[1])
        for j in idx[2:]:
            acc = {}
            for i, c in out.items():
                for k, e in self.row(i, j).items():
                    acc[k] = acc.get(k, 0) + c * e
            out = acc
        return out

    def top_coefficient(self, ws):
        """Coefficient of [X_e] in the product of the classes ws (at least
        two): 0 off the degree (s-1) dim G/P, else a one-element top_run."""
        idx, lengths = tuple(map(self.ct.index_of, ws)), self.ct.lengths
        if len(idx) < 2:
            raise ValueError("need at least two classes")
        if sum(map(lengths.__getitem__, idx)) != (len(idx) - 1) * self.parabolic.dim_gp:
            return 0
        return self.top_run(idx[:-1], idx[-1:])[0]

    def top_run(self, prefix, lasts):
        """The tops of prefix + (c,) for c in lasts, for classes whose lengths sum
        to (s-1) dim G/P: the first floor(s/2) classes and the rest, each
        multiplied out, paired by duality as sum_k left[k] right[dual(k)]; for
        s = 3 that is row(b, c)[dual(a)], and for s = 2 the right half but its
        last class is the unit.  The left product and the right one
        without its last class are multiplied out once per run; per last class
        c, right = sum_i f[i] row(i, c), so the rows computed are those of
        the left-to-right products of each tuple's two halves."""
        half, dual = (len(prefix) + 1) // 2, self.ct.dual_index
        pairs = [(dual[k], e) for k, e in self._fold(prefix[:half]).items()]
        terms, row, out = self._fold(prefix[half:]).items(), self.row, []
        for c in lasts:
            top = 0
            for i, f in terms:
                r = row(i, c)
                for k, e in pairs:
                    top += f * e * r.get(k, 0)
            out.append(top)
        return out


class CupRing(SchubertBasisRing):
    """Schubert-basis multiplication in H*(G/P, Z) for one (G, P)."""

    def __init__(self, ct):
        self.ct = ct
        self.system = R = ct.wg.system
        self.parabolic = P = ct.parabolic
        self.engine = SchubertEngine(R)
        self._rows = Memo(self._row)  # (i, j) with i <= j -> {k: c^k_{i,j}}
        # packed monomials: exponent k in bits [k*width, (k+1)*width); every
        # rep monomial has degree <= dim G/P < 2^(width-1), so no product carries
        self.width = P.dim_gp.bit_length() + 1
        self._packed = Memo(self._pack)     # index k -> rep(elements[k]) packed
        self._tries = Memo(self._trie)      # length -> trie of the targets of that length
        self._vectors = Memo(self._vector)  # packed monomial m -> E[m]

    def _pack(self, k):
        """rep(elements[k]) as {packed monomial: coefficient}."""
        width = self.width
        out = {}
        for m, c in self.engine.rep(self.ct.elements[k]).items():
            if sum(m) >> (width - 1):
                raise ExactnessError("monomial degree overflows the packing width")
            key = 0
            for e in reversed(m):
                key = key << width | e
            out[key] = c
        return out

    def _trie(self, length):
        """The extraction trie of the duals of the targets of that length."""
        ct = self.ct
        return extraction_trie({t: ct.elements[ct.dual_index[k]].word
                                for t, k in enumerate(ct.block[length])})

    def _vector(self, m):
        """E[m] = {t: extraction of the packed monomial m at the dual of the
        t-th target of length dim G/P - deg(m)}."""
        width = self.width
        mono = tuple(m >> (width * k) & ((1 << width) - 1)
                     for k in range(self.engine.realization.nvars))
        return self.engine.extract(self._tries[self.parabolic.dim_gp - sum(mono)], mono)

    def row(self, i, j):
        """{k: c^k_{i,j}} over coset-table indices; exact nonnegative integers."""
        return self._rows[(i, j) if i <= j else (j, i)]

    def _row(self, key):
        i, j = key
        ct = self.ct
        # codim(k) = codim(i) + codim(j), so ell(k) = ell(i) + ell(j) - dim G/P
        length = ct.lengths[i] + ct.lengths[j] - self.parabolic.dim_gp
        out = {}
        if length >= 0:
            # extraction is linear: the raw row is sum_m f[m] E[m] over f = rep * rep
            targets = ct.block[length]
            raw = [0] * len(targets)
            vectors, packed, dual = self._vectors, self._packed, ct.dual_index
            for m, c in pmul_packed(packed[dual[i]], packed[dual[j]]).items():
                for t, e in vectors[m].items():
                    raw[t] += c * e
            sc2 = self.engine.scale ** 2
            for k, x in zip(targets, raw):
                c, r = divmod(x, sc2)
                if r:
                    raise ExactnessError("noninteger structure constant (convention bug)")
                if c < 0:
                    raise ExactnessError("negative structure constant (convention bug)")
                if c:
                    out[k] = c
        return out

    def set_row(self, i, j, row):
        """Seed the product cache with {k: c} (disk-cache warm-up); idempotent."""
        self._rows.setdefault((i, j) if i <= j else (j, i), dict(row))

    def known_rows(self):
        return dict(self._rows)
