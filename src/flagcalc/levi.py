"""Representation theory of the semisimple part of a Levi subgroup: weight
multiplicities, tensor decompositions, and s-fold invariant dimensions.

Integer Freudenthal weight multiplicities and the Racah-Speiser/Klimyk
formula.  The invariants of three factors are one coefficient of a tensor
product, read off as a |W_L|-term signed sum

    dim [V(a) (x) V(b) (x) V(c)]^L = sum_w eps(w) m_a(w(c* + rho) - (b + rho)),

with a the factor of smallest dimension (the count is symmetric in its three
factors, and memoised per simple factor under the sorted triple).  With s > 3
factors, pruned binary decompositions (reflect every weight of the smaller
factor, shifted by mu + rho, into the dominant chamber) run over all but the
last two factors first.  The independent second route, the Kostant partition
function and Steinberg's double Weyl sum, lives in `flagcalc.oracle`.

Invariant counts run per simple factor: for L_ss = L_1 x ... x L_k,
V(lam) is the outer tensor product of the V(lam|L_j), so the invariant
dimension is the product of the factors' counts, each over its own |W_j|-term
orbit.  `tensor_decompose` and the oracle act on the whole system they are
called on, so on the unsplit Levi they check the per-factor product.
Every walk of a weight into the dominant chamber goes through the chamber
memo of the system it runs on, which the kernels read inline.  A LeviSystem
owns its memos (`roots.Memo`, each filled by one method), and the factors
come from `simple_factor`, one per connected Cartan matrix, so isomorphic
factors (A5{3}'s two A2s) share theirs.  The simple reflection and the signed
orbits come from the Levi system's `weyl.WeylGroup` (`self.wg`); this module
walks W no other way.

Levi weights are tuples of pairings with the Levi simple coroots, ordered by
ascending ambient node index; an ambient weight restricts by just reading
those coordinates.  Central directions are dropped by construction, which is
exactly invariance under the semisimple part.  The Levi of a Borel is the
rank-0 system, on which every route gives 1 for the one weight ().
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub

from .roots import ExactnessError, Memo, RootSystem
from .weyl import group


class LeviSystem:
    """Weight arithmetic for the semisimple part of one Levi subgroup."""

    def __init__(self, ambient: RootSystem, levi_simple):
        self.ambient = ambient
        self.nodes = tuple(sorted(int(i) for i in levi_simple))
        self.rank = len(self.nodes)
        self.system = ambient.sub_system(self.nodes)  # rank 0 for a Borel
        self.wg = group(self.system)
        # (fund coords of beta, (d_j beta_j)_j, (beta, beta)): then
        # (nu, beta) = sum_j nu_j d_j beta_j
        self._roots = []
        d = self.system.symmetrizers
        for b in self.system.positive_roots:
            fb, db = self.system.fund_of_root(b), tuple(map(mul, d, b))
            self._roots.append((fb, db, sum(map(mul, fb, db))))
        self._chamber = Memo(self._chamber_walk)   # weight -> (dominant rep, sign)
        self._dims = Memo(self._weyl_dim)          # dominant weight -> Weyl dimension
        self._dom_mults = Memo(self._freudenthal)  # dominant weight -> Freudenthal table
        self._tensor = Memo(self._tensor_product)  # (lam, mu), lam <= mu -> V(lam) (x) V(mu)
        self._counts = Memo(self._triple_count)    # sorted triple -> three-factor count
        # (coordinate positions, simple factor) per connected component of the
        # Levi diagram; a simple system on all of its ambient's nodes is its
        # own single factor
        cartan, comps = self.system.cartan, []
        for i in range(self.rank):
            linked = [c for c in comps if any(cartan[i][j] for j in c)]
            comps = [c for c in comps if c not in linked] + [tuple(sorted({i}.union(*linked)))]
        if len(comps) == 1 and self.rank == ambient.rank:
            self.factors = ((comps[0], self),)
        else:
            self.factors = tuple(
                (pos, simple_factor(tuple(tuple(cartan[i][j] for j in pos) for i in pos)))
                for pos in comps)

    # -- plumbing --------------------------------------------------------------

    def is_dominant(self, lam):
        return all(x >= 0 for x in lam)

    def signed_dominant_conjugate(self, f):
        """(dominant rep, sign) under the Weyl group; sign 0 on a wall."""
        return self._chamber[tuple(f)]

    def _chamber_walk(self, f):
        """signed_dominant_conjugate by simple reflections, each at the first
        negative coordinate."""
        g, sign, i0, reflect = f, 1, 0, self.wg._reflect
        while i0 < self.rank:
            if g[i0] < 0:
                g, sign, i0 = reflect(g, i0), -sign, 0
            else:
                i0 += 1
        return (g, 0) if 0 in g else (g, sign)

    def dominant_conjugate(self, f):
        return self.signed_dominant_conjugate(f)[0]

    def dual_weight(self, lam):
        """Highest weight of the dual representation: -w0(lam)."""
        return self.dominant_conjugate(tuple(-x for x in lam))

    def _below(self, top, mu):
        """mu <= top: top - mu is a nonnegative integer sum of simple roots."""
        gap = self.system.lattice_coords(tuple(t - m for t, m in zip(top, mu)))
        return gap is not None and min(gap, default=0) >= 0

    # -- dimensions and weight multiplicities -----------------------------------

    def weyl_dim(self, lam):
        """prod over Levi positive roots of (lam+rho, beta) / (rho, beta)."""
        return self._dims[tuple(lam)]

    def _weyl_dim(self, lam):
        if not self.is_dominant(lam):
            raise ValueError(f"{lam!r} is not dominant")
        num = den = 1
        for _, db, _ in self._roots:
            num *= sum((x + 1) * y for x, y in zip(lam, db))
            den *= sum(db)
        out, rem = divmod(num, den)
        if rem:
            raise ExactnessError(f"noninteger Weyl dimension {num}/{den} (convention bug)")
        return out

    def dominant_weight_multiplicities(self, lam):
        """{dominant weight: multiplicity} in V(lam), by Freudenthal's recursion
        in integers:

            m(mu) = 2 sum_{beta > 0, k >= 1} m(mu + k beta) (mu + k beta, beta)
                    / (lam + mu + 2 rho, lam - mu)
        """
        return self._dom_mults[tuple(lam)]

    def _freudenthal(self, lam):
        if not self.is_dominant(lam):
            raise ValueError(f"{lam!r} is not dominant")
        R = self.system
        # dominant weights mu of V(lam), each with lam - mu in simple-root coordinates
        gap = {lam: (0,) * self.rank}
        frontier = [lam]
        while frontier:
            nxt = []
            for mu in frontier:
                for beta, (fb, _, _) in zip(R.positive_roots, self._roots):
                    nu = tuple(map(sub, mu, fb))
                    if min(nu) >= 0 and nu not in gap:
                        gap[nu] = tuple(map(add, gap[mu], beta))
                        nxt.append(nu)
            frontier = nxt
        d = R.symmetrizers
        mults = {lam: 1}
        chamber = self._chamber
        for mu in sorted(gap, key=lambda mu: (sum(gap[mu]), mu)):
            if mu == lam:
                continue
            acc = 0
            for fb, db, bb in self._roots:
                # the string mu + k beta, k >= 1, carrying (mu + k beta, beta)
                nu = tuple(map(add, mu, fb))
                pairing = sum(map(mul, nu, db))
                while True:
                    m_nu = mults.get(chamber[nu][0], 0)
                    if m_nu == 0:
                        break
                    acc += m_nu * pairing
                    nu = tuple(map(add, nu, fb))
                    pairing += bb
            # |lam+rho|^2 - |mu+rho|^2 = (lam + mu + 2 rho, lam - mu)
            denom = sum((l + m + 2) * dj * g for l, m, dj, g in zip(lam, mu, d, gap[mu]))
            val, rem = divmod(2 * acc, denom)
            if rem or val < 0:
                raise ExactnessError(f"Freudenthal multiplicity {2 * acc}/{denom} "
                                     f"(convention bug)")
            if val:
                mults[mu] = val
        return mults

    def weight_multiplicities(self, lam):
        """{weight: multiplicity} over the full Weyl orbit closure of V(lam)."""
        out = {}
        for mu, m in self.dominant_weight_multiplicities(lam).items():
            for nu, _ in self.wg.signed_orbit(mu):
                out[nu] = m
        return out

    # -- tensor decomposition ---------------------------------------------------

    def tensor_decompose(self, lam, mu):
        """V(lam) (x) V(mu) = sum N_nu V(nu): reflect every weight of the
        smaller factor shifted by mu+rho into the dominant chamber."""
        lam, mu = tuple(lam), tuple(mu)
        return self._tensor[(lam, mu) if lam <= mu else (mu, lam)]

    def _tensor_product(self, key):
        a, b = key
        if self.weyl_dim(a) > self.weyl_dim(b):
            a, b = b, a
        out = {}
        b_rho = tuple(x + 1 for x in b)
        chamber = self._chamber
        for nu, m in self.weight_multiplicities(a).items():
            dom, sign = chamber[tuple(map(add, nu, b_rho))]
            if sign:
                target = tuple(x - 1 for x in dom)
                out[target] = out.get(target, 0) + sign * m
        out = {nu: c for nu, c in out.items() if c}
        if any(c < 0 for c in out.values()):
            raise ExactnessError("negative tensor multiplicity (convention bug)")
        return out

    def invariant_dimension(self, weights, n=1):
        """dim of the invariants of V(n w_1) (x) ... (x) V(n w_s): the product
        of the counts of the simple factors on their coordinates, 0 as soon
        as one factor gives 0."""
        ws = [tuple(int(n) * x for x in w) for w in weights]
        if any(not self.is_dominant(w) for w in ws):
            raise ValueError("weights must be dominant for the Levi")
        total = 1
        for pos, factor in self.factors:
            total *= factor._simple_invariants([tuple(w[p] for p in pos) for w in ws])
            if not total:
                break
        return total

    def _simple_invariants(self, ws):
        """dim of the invariants of V(w_1) (x) ... (x) V(w_s) on this whole
        system, for dominant w_i.

        Binary decompositions over all but the last two factors, pruning the
        summands that can no longer pair to the trivial representation
        against the remaining factors; each survivor nu then contributes its
        multiplicity times the three-factor count for (nu, w_{s-1}, w_s).
        Fewer than three factors are padded with trivial ones.
        """
        ws = list(ws) + [(0,) * self.rank] * (3 - len(ws))
        acc = {ws[0]: 1}
        for idx in range(1, len(ws) - 2):
            nxt = {}
            for nu, m in acc.items():
                for tau, c in self.tensor_decompose(nu, ws[idx]).items():
                    nxt[tau] = nxt.get(tau, 0) + m * c
            rest_sum = tuple(sum(col) for col in zip(*ws[idx + 1:]))
            acc = {nu: m for nu, m in nxt.items() if self._below(rest_sum, self.dual_weight(nu))}
        return sum(m * self._count(nu, ws[-2], ws[-1]) for nu, m in acc.items())

    def _count(self, a, b, c):
        """The three-factor count, memoised under the sorted triple."""
        return self._counts[tuple(sorted((a, b, c)))]

    def _triple_count(self, key):
        """The count is symmetric in its factors, so the signed sum runs over
        the one of smallest dimension."""
        return self._signed_sum(*sorted(key, key=self.weyl_dim))

    def _signed_sum(self, a, b, c):
        """dim [V(a) (x) V(b) (x) V(c)]^L, the multiplicity of V(c*) in
        V(a) (x) V(b): sum over w in W_L of eps(w) m_a(w(c* + rho) - (b + rho))."""
        c_dual = self.dual_weight(c)
        if not self._below(tuple(map(add, a, b)), c_dual):
            return 0
        mults = self.dominant_weight_multiplicities(a)
        b_rho = tuple(x + 1 for x in b)
        chamber = self._chamber
        total = 0
        for f, sign in self.wg.signed_orbit(tuple(x + 1 for x in c_dual)):
            m = mults.get(chamber[tuple(map(sub, f, b_rho))][0])
            if m:
                total += sign * m
        if total < 0:
            raise ExactnessError("negative invariant dimension (convention bug)")
        return total


@lru_cache(maxsize=None)
def simple_factor(cartan):
    """The LeviSystem of a connected Cartan matrix on all of its nodes, one per
    matrix, so that every Levi factor with that matrix shares its memos."""
    return LeviSystem(RootSystem(cartan), tuple(range(1, len(cartan) + 1)))
