"""Weyl group elements, minimal coset representatives and Bruhat covers.

An element w is identified by the integer vector w(rho) in fundamental
coordinates (the regular orbit of rho, as in LiE): W acts freely on that
orbit, so the vector decides equality and hashing.  The canonical reduced
word is read off it by greedy left descents (smallest i with <w rho,
alpha_i^vee> < 0 first), which is the lexicographically smallest reduced
word; w^{-1}(rho) is collected along the same loop.  Everything else applies
one simple reflection at a time along the word.  All words are 1-based
simple-root indices.
"""

from __future__ import annotations

from functools import lru_cache

from .roots import RootSystem


class WeylElement:
    """One Weyl group element.

    key = w(rho) and inv = w^{-1}(rho), both in fundamental coordinates.
    """

    __slots__ = ("key", "inv", "length", "word", "_sk")

    def __init__(self, key, inv, length, word, sk):
        self.key = key
        self.inv = inv
        self.length = length
        self.word = word
        self._sk = sk

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.key == other.key
                and self._sk == other._sk)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"w[{','.join(map(str, self.word)) or 'e'}]"

    def word_str(self):
        return ",".join(map(str, self.word))


class WeylGroup:
    """Element algebra for the Weyl group of one root system."""

    def __init__(self, R: RootSystem):
        self.system = R
        self._sk = (R.label, R.cartan)
        n = R.rank
        # alpha_i in fundamental coordinates is column i of the Cartan matrix
        self._alpha_fund = [tuple(R.cartan[k][i] for k in range(n)) for i in range(n)]
        # beta -> (coefficients of beta^vee in the simple coroots, beta in fund coords)
        self._coroots = {
            beta: (tuple(R.coroot_pairing(tuple(int(k == j) for k in range(n)), beta)
                         for j in range(n)),
                   R.fund_of_root(beta))
            for beta in R.positive_roots
        }
        self.identity = WeylElement(R.rho, R.rho, 0, (), self._sk)
        self._coset_tables = {}
        self._all = None
        self._bruhat_memo = {}

    # -- simple reflections ----------------------------------------------------

    def _reflect(self, f, i0):
        """s_{i0+1} on a weight in fundamental coordinates: f - f_i alpha_i."""
        c = f[i0]
        if not c:
            return f
        return tuple(x - c * a for x, a in zip(f, self._alpha_fund[i0]))

    def _reflect_root(self, beta, i0):
        """s_{i0+1} on a root-lattice vector in simple-root coordinates."""
        row = self.system.cartan[i0]
        c = sum(a * b for a, b in zip(row, beta))
        if not c:
            return beta
        out = list(beta)
        out[i0] -= c
        return tuple(out)

    def reflect(self, f, beta):
        """s_beta on a weight in fundamental coordinates: f - <f, beta^vee> beta."""
        coroot, fund = self._coroots[beta]
        c = sum(a * b for a, b in zip(coroot, f))
        return tuple(x - c * b for x, b in zip(f, fund))

    # -- elementary operations -------------------------------------------------

    def _element(self, key):
        """The element with w(rho) = key, its word read off by left descents."""
        word = []
        cur, inv = key, self.system.rho
        while True:
            for i0, x in enumerate(cur):
                if x < 0:
                    break
            else:
                return WeylElement(key, inv, len(word), tuple(word), self._sk)
            word.append(i0 + 1)
            cur = self._reflect(cur, i0)
            inv = self._reflect(inv, i0)

    def left_gen(self, i, w):
        """s_i * w."""
        return self._element(self._reflect(w.key, i - 1))

    def right_gen(self, w, i):
        """w * s_i."""
        return self._element(self.act_weight(w, self._reflect(self.system.rho, i - 1)))

    def mul(self, a, b):
        return self._element(self.act_weight(a, b.key))

    def inverse(self, w):
        return self._element(w.inv)

    def _key_of_word(self, word):
        """w(rho) for the product of the simple reflections in word."""
        n = self.system.rank
        letters = []
        for i in word:
            i = int(i)
            if not 1 <= i <= n:
                raise ValueError(f"word letter {i} out of range 1..{n}")
            letters.append(i)
        f = self.system.rho
        for i in reversed(letters):
            f = self._reflect(f, i - 1)
        return f

    def from_word(self, word):
        """Product of simple reflections; the word need not be reduced."""
        return self._element(self._key_of_word(word))

    # -- actions along the word ------------------------------------------------

    def act_root(self, w, beta):
        beta = tuple(beta)
        for i in reversed(w.word):
            beta = self._reflect_root(beta, i - 1)
        return beta

    def act_weight(self, w, f):
        f = tuple(f)
        for i in reversed(w.word):
            f = self._reflect(f, i - 1)
        return f

    def inv_act_weight(self, w, f):
        f = tuple(f)
        for i in w.word:
            f = self._reflect(f, i - 1)
        return f

    def inversion_set(self, w):
        """R+ cap w^{-1} R-  =  {beta > 0 : <w^{-1} rho, beta^vee> < 0};  size ell(w)."""
        return frozenset(b for b, (coroot, _) in self._coroots.items()
                         if sum(a * x for a, x in zip(coroot, w.inv)) < 0)

    def descends_right(self, w, i):
        """ell(w s_i) < ell(w), i.e. w(alpha_i) < 0."""
        return w.inv[i - 1] < 0

    def ascends_left(self, w, i):
        """ell(s_i w) > ell(w), i.e. w^{-1}(alpha_i) > 0."""
        return w.key[i - 1] > 0

    def longest(self, nodes=None):
        """Longest element of W, or of the parabolic W_P on the given nodes."""
        nodes = sorted(nodes) if nodes is not None else list(range(1, self.system.rank + 1))
        w = self.identity
        while True:
            i = next((i for i in nodes if self.ascends_left(w, i)), None)
            if i is None:
                return w
            w = self.left_gen(i, w)

    def all_elements(self):
        """Full enumeration of W (memoised); intended for small ranks."""
        if self._all is None:
            self._all = _ascending_closure(self, ())
        return self._all

    # -- reflections indexed by positive roots -------------------------------

    @property
    def reflections(self):
        """{positive root beta: the reflection s_beta as an element}."""
        if not hasattr(self, "_refl"):
            rho = self.system.rho
            self._refl = {beta: self._element(self.reflect(rho, beta))
                          for beta in self.system.positive_roots}
        return self._refl

    # -- bruhat order (used as a test oracle) --------------------------------

    def bruhat_le(self, v, w):
        if v.length > w.length:
            return False
        if v.length == 0:
            return True
        key = (v.key, w.key)
        memo = self._bruhat_memo
        if key not in memo:
            i = w.word[0]
            wp = self.left_gen(i, w)  # shorter
            if v.key[i - 1] < 0:  # ell(s_i v) < ell(v)
                memo[key] = self.bruhat_le(self.left_gen(i, v), wp)
            else:
                memo[key] = self.bruhat_le(v, wp)
        return memo[key]


def _ascending_closure(wg, levi):
    """Elements w with w(alpha_j) > 0 for every j in levi (all of W when levi
    is empty), found by left ascents from the identity; sorted by (length,
    word)."""
    seen = {wg.identity.key: wg.identity}
    frontier = [wg.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for i0, x in enumerate(w.key):
                if x > 0:
                    key = wg._reflect(w.key, i0)
                    if key not in seen:
                        cand = wg._element(key)
                        keep = all(cand.inv[j - 1] > 0 for j in levi)
                        seen[key] = cand if keep else None
                        if keep:
                            nxt.append(cand)
        frontier = nxt
    return tuple(sorted((w for w in seen.values() if w is not None),
                        key=lambda w: (w.length, w.word)))


class CosetTable:
    """Minimal-length representatives of W/W_P with their Bruhat covers.

    covers: triples (v, w, beta) with w = s_beta v, ell(w) = ell(v)+1,
    both in W^P and beta a positive root.
    """

    def __init__(self, wg: WeylGroup, P):
        self.wg = wg
        self.parabolic = P
        levi = sorted(P.levi_simple)
        self.elements = _ascending_closure(wg, levi)
        self.index = {w: k for k, w in enumerate(self.elements)}
        self._by_key = {w.key: w for w in self.elements}
        self.by_length = {}
        for w in self.elements:
            self.by_length.setdefault(w.length, []).append(w)
        self.longest = self.elements[-1]
        assert self.longest.length == P.dim_gp

        covers = []
        for v in self.elements:
            for beta in wg.system.positive_roots:
                w = self._by_key.get(wg.reflect(v.key, beta))
                if w is not None and w.length == v.length + 1:
                    covers.append((v, w, beta))
        self.covers = tuple(covers)

        # the dual of w is the minimal representative of w0 w w0^P, i.e. of w0 w W_P
        w0 = wg.longest()
        self.dual = {}
        for w in self.elements:
            ww = self._by_key.get(self._project_min(wg.mul(w0, w), levi).key)
            assert ww is not None and ww.length == P.dim_gp - w.length
            self.dual[w] = ww

    def _project_min(self, u, levi):
        wg = self.wg
        while True:
            j = next((j for j in levi if wg.descends_right(u, j)), None)
            if j is None:
                return u
            u = wg.right_gen(u, j)

    def member(self, w):
        return w.key in self._by_key

    def canonical(self, w):
        """The stored (canonical-word) copy of an element of W^P."""
        try:
            return self._by_key[w.key]
        except KeyError:
            raise ValueError(f"element {w!r} is not a minimal coset representative")

    def codim(self, w):
        return self.parabolic.dim_gp - w.length

    def element_from_word(self, word):
        w = self._by_key.get(self.wg._key_of_word(word))
        if w is None:
            raise ValueError(
                f"word {','.join(map(str, word))} does not reduce to a W^P element")
        return w

    def __len__(self):
        return len(self.elements)


@lru_cache(maxsize=None)
def group(R: RootSystem):
    return WeylGroup(R)


def minimal_coset_reps(R, P):
    """CosetTable for (R, P), memoised per Weyl group."""
    wg = group(R)
    key = frozenset(P.levi_simple)
    if key not in wg._coset_tables:
        wg._coset_tables[key] = CosetTable(wg, P)
    return wg._coset_tables[key]


def dual_rep(R, P, w):
    """Poincare-dual indexing: minimal representative of w0 w w0^P."""
    return minimal_coset_reps(R, P).dual[w]
