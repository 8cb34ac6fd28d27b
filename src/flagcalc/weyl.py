"""Weyl group elements and minimal coset representatives.

An element w is identified by the integer vector w(rho) in fundamental
coordinates (the regular orbit of rho, as in LiE): W acts freely on that
orbit, so the vector decides equality and hashing.  The canonical reduced
word is read off it by greedy left descents (smallest i with <w rho,
alpha_i^vee> < 0 first), which is the lexicographically smallest reduced
word; w^{-1}(rho) is collected along the same loop.  Everything else applies
one simple reflection at a time along the word.  All words are 1-based
simple-root indices.

The Levi and deformed layers walk W through this module alone: the simple
reflection moves one coordinate and its Cartan neighbours, signed_orbit gives
every (w(v), (-1)^ell(w)) and inversion_set builds N(w) along the word.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property

from .roots import ExactnessError, RootSystem


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
        # alpha_i in fundamental coordinates is column i of the Cartan matrix, so
        # reflecting at i moves coordinate i and its Cartan neighbours only
        self._links = tuple(tuple((k, R.cartan[k][i]) for k in range(n)
                                  if k != i and R.cartan[k][i])
                            for i in range(n))
        self.identity = WeylElement(R.rho, R.rho, 0, (), self._sk)

    # -- simple reflections ----------------------------------------------------

    def _reflect(self, f, i0):
        """s_{i0+1} on a weight in fundamental coordinates: f - f_i alpha_i."""
        c = f[i0]
        if not c:
            return f
        g = list(f)
        g[i0] = -c
        for k, a in self._links[i0]:
            g[k] -= c * a
        return tuple(g)

    def _reflect_root(self, beta, i0):
        """s_{i0+1} on a root-lattice vector in simple-root coordinates."""
        row = self.system.cartan[i0]
        c = sum(a * b for a, b in zip(row, beta))
        if not c:
            return beta
        out = list(beta)
        out[i0] -= c
        return tuple(out)

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
        """N(w) = R+ cap w^{-1} R-, of size ell(w), built along the reduced word
        as N(v s_i) = s_i N(v) u {alpha_i}."""
        n = self.system.rank
        out = []
        for i in w.word:
            out = [self._reflect_root(beta, i - 1) for beta in out]
            out.append(tuple(int(t == i - 1) for t in range(n)))
        return frozenset(out)

    def signed_orbit(self, v):
        """[(w(v), (-1)^ell(w)) for w in W], one pair per element, by replaying
        a spanning tree of the regular orbit of rho."""
        out = [(tuple(v), 1)]
        for k, i0 in self._walk:
            f, sign = out[k]
            out.append((self._reflect(f, i0), -sign))
        return out

    @cached_property
    def _walk(self):
        """The spanning tree of signed_orbit, breadth first from rho: the m-th
        (k, i0) makes entry m + 1 by reflecting entry k at i0."""
        rho = self.system.rho
        steps, seen, frontier = [], {rho}, [(rho, 0)]
        while frontier:
            nxt = []
            for f, k in frontier:
                for i0 in range(self.system.rank):
                    g = self._reflect(f, i0)
                    if g not in seen:
                        seen.add(g)
                        steps.append((k, i0))
                        nxt.append((g, len(steps)))
            frontier = nxt
        return tuple(steps)

    def longest(self, nodes=None):
        """Longest element of W, or of the parabolic W_P on the given nodes:
        rho is reflected at the first node i where the vector is positive (a
        left ascent, ell(s_i w) > ell(w)) until there is none."""
        nodes = sorted(nodes) if nodes is not None else range(1, self.system.rank + 1)
        key = self.system.rho
        while (i := next((i for i in nodes if key[i - 1] > 0), None)) is not None:
            key = self._reflect(key, i - 1)
        return self._element(key)


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
    """Minimal-length representatives of W/W_P.

    elements ascend by (length, word); lengths, block (length -> range of
    indices) and dual_index name them by position, and index_of finds the
    position of an element.
    """

    def __init__(self, wg: WeylGroup, P):
        self.wg = wg
        self.parabolic = P
        levi = sorted(P.levi_simple)
        self.elements = _ascending_closure(wg, levi)
        self._pos = {w.key: k for k, w in enumerate(self.elements)}  # w(rho) -> index
        self.lengths = lengths = [w.length for w in self.elements]
        # elements ascend by (length, word), so each length is one block of indices
        self.block = {n: range(bisect_left(lengths, n), bisect_right(lengths, n))
                      for n in range(lengths[-1] + 1)}
        self.longest = self.elements[-1]
        if self.longest.length != P.dim_gp:
            raise ExactnessError(f"longest element of W^P has length {self.longest.length}, "
                                 f"dim G/P is {P.dim_gp}")

        # the dual of w is the minimal representative of w0 w w0^P, i.e. of
        # w0 w W_P.  W_P is the stabiliser of lambda_P, the sum of the crossed
        # fundamental weights, so the coset x W_P is named by x(lambda_P).
        lam = tuple(int(j in P.crossed) for j in range(1, wg.system.rank + 1))
        lams = [wg.act_weight(w, lam) for w in self.elements]
        by_lam = dict(zip(lams, self.elements))
        w0 = wg.longest()
        self.dual = {}
        for w, mu in zip(self.elements, lams):
            ww = by_lam.get(wg.act_weight(w0, mu))
            if ww is None or ww.length != P.dim_gp - w.length:
                raise ExactnessError(f"no dual of length {P.dim_gp - w.length} for {w!r}")
            self.dual[w] = ww
        self.dual_index = [self._pos[self.dual[w].key] for w in self.elements]

    def canonical(self, w):
        """The stored (canonical-word) copy of an element of W^P."""
        return self.elements[self.index_of(w)]

    def index_of(self, w):
        """The coset-table index of an element of W^P (ValueError otherwise)."""
        try:
            return self._pos[w.key]
        except KeyError:
            raise ValueError(f"element {w!r} is not a minimal coset representative")

    def codim(self, w):
        return self.parabolic.dim_gp - w.length

    def element_from_word(self, word):
        k = self._pos.get(self.wg._key_of_word(word))
        if k is None:
            raise ValueError(
                f"word {','.join(map(str, word))} does not reduce to a W^P element")
        return self.elements[k]

    def __len__(self):
        return len(self.elements)


def group(R: RootSystem):
    """The WeylGroup of R, built on the first call and kept on R, so that it
    lives as long as R does: a root system built and dropped (the subsystem
    of a dropped LeviSystem) leaves no group behind."""
    if R._weyl_group is None:
        R._weyl_group = WeylGroup(R)
    return R._weyl_group


def minimal_coset_reps(R, P):
    """A new CosetTable for (R, P); flag_context keeps the one of each parabolic."""
    return CosetTable(group(R), P)
