"""Representation theory of the semisimple part of a Levi subgroup: weight
multiplicities, tensor decompositions, and s-fold invariant dimensions.

Two independent routes are kept deliberately separate:

  * production: Freudenthal weight multiplicities + the reflection-with-signs
    tensor decomposition (Klimyk), iterated with pruning for s-fold products;
  * oracle: the Kostant partition function + Steinberg's double Weyl sum.

Levi weights are tuples of pairings with the Levi simple coroots, ordered by
ascending ambient node index; an ambient weight restricts by just reading
those coordinates.  Central directions are dropped by construction, which is
exactly invariance under the semisimple part.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .deformed import DeformedRing
from .roots import ExactnessError, RootSystem
from .weyl import WeylGroup


class LeviSystem:
    """Weight arithmetic for the semisimple part of one Levi subgroup."""

    def __init__(self, ambient: RootSystem, levi_simple):
        self.ambient = ambient
        self.nodes = tuple(sorted(int(i) for i in levi_simple))
        self.rank = len(self.nodes)
        self.system = ambient.sub_system(self.nodes) if self.nodes else None
        self._dom_mults = {}
        self._kpf = {}
        self._tensor = {}
        self._wg = None

    # -- plumbing --------------------------------------------------------------

    def restrict(self, ambient_fund):
        """Levi coordinates of an ambient weight (pairings at the Levi nodes)."""
        out = tuple(ambient_fund[i - 1] for i in self.nodes)
        assert all(Fraction(x).denominator == 1 for x in out)
        return tuple(int(x) for x in out)

    def is_dominant(self, lam):
        return all(x >= 0 for x in lam)

    @property
    def rho(self):
        return (1,) * self.rank

    def _reflect(self, f, i0):
        cartan = self.system.cartan
        return tuple(f[k] - f[i0] * cartan[k][i0] for k in range(self.rank))

    def dominant_conjugate(self, f):
        f = tuple(f)
        while True:
            i0 = next((k for k in range(self.rank) if f[k] < 0), None)
            if i0 is None:
                return f
            f = self._reflect(f, i0)

    def signed_dominant_conjugate(self, f):
        """(dominant rep, sign) under the Weyl group; sign 0 on a wall."""
        f = tuple(f)
        sign = 1
        while True:
            i0 = next((k for k in range(self.rank) if f[k] < 0), None)
            if i0 is None:
                return (f, 0) if 0 in f else (f, sign)
            f = self._reflect(f, i0)
            sign = -sign

    def dual_weight(self, lam):
        """Highest weight of the dual representation: -w0(lam)."""
        return self.dominant_conjugate(tuple(-x for x in lam))

    def weight_inner(self, f1, f2):
        return self.system.weight_inner(f1, f2)

    # -- dimensions and weight multiplicities -----------------------------------

    def weyl_dim(self, lam):
        """prod over Levi positive roots of <lam+rho, b^vee> / <rho, b^vee>."""
        lam = tuple(lam)
        if not self.is_dominant(lam):
            raise ValueError(f"{lam!r} is not dominant")
        if self.rank == 0:
            return 1
        R = self.system
        lr = tuple(x + 1 for x in lam)
        out = Fraction(1)
        for beta in R.positive_roots:
            out *= Fraction(R.coroot_pairing(lr, beta), R.coroot_pairing(self.rho, beta))
        if out.denominator != 1:
            raise ExactnessError(f"noninteger Weyl dimension {out} (convention bug)")
        return int(out)

    def dominant_weight_multiplicities(self, lam):
        """{dominant weight: multiplicity} in V(lam), by Freudenthal's recursion."""
        lam = tuple(lam)
        if lam in self._dom_mults:
            return self._dom_mults[lam]
        if not self.is_dominant(lam):
            raise ValueError(f"{lam!r} is not dominant")
        R = self.system
        fund_roots = [tuple(R.fund_of_root(b)) for b in R.positive_roots]
        # dominant weights of V(lam): saturate downward through dominants
        doms = {lam}
        frontier = [lam]
        while frontier:
            nxt = []
            for mu in frontier:
                for fb in fund_roots:
                    nu = tuple(m - b for m, b in zip(mu, fb))
                    if all(x >= 0 for x in nu) and nu not in doms:
                        doms.add(nu)
                        nxt.append(nu)
            frontier = nxt
        height = {}
        for mu in doms:
            diff = R.root_of_fund(tuple(l - m for l, m in zip(lam, mu)))
            height[mu] = sum(diff)
        order = sorted(doms, key=lambda mu: (height[mu], mu))
        lam_rho = tuple(x + 1 for x in lam)
        norm_top = self.weight_inner(lam_rho, lam_rho)
        mults = {lam: 1}
        for mu in order:
            if mu == lam:
                continue
            acc = Fraction(0)
            for beta, fb in zip(R.positive_roots, fund_roots):
                k = 1
                while True:
                    nu = tuple(m + k * b for m, b in zip(mu, fb))
                    m_nu = mults.get(self.dominant_conjugate(nu), 0)
                    if m_nu == 0:
                        break
                    acc += m_nu * self.weight_inner(nu, R.fund_of_root(beta))
                    k += 1
            mu_rho = tuple(x + 1 for x in mu)
            denom = norm_top - self.weight_inner(mu_rho, mu_rho)
            val = 2 * acc / denom
            if val.denominator != 1 or val < 0:
                raise ExactnessError(f"Freudenthal multiplicity {val} (convention bug)")
            if val:
                mults[mu] = int(val)
        self._dom_mults[lam] = mults
        return mults

    def weight_multiplicities(self, lam):
        """{weight: multiplicity} over the full Weyl orbit closure of V(lam)."""
        out = {}
        for mu, m in self.dominant_weight_multiplicities(lam).items():
            for nu in self._orbit(mu):
                out[nu] = m
        return out

    def _orbit(self, mu):
        seen = {tuple(mu)}
        frontier = [tuple(mu)]
        while frontier:
            nxt = []
            for f in frontier:
                for i0 in range(self.rank):
                    if f[i0] != 0:
                        g = self._reflect(f, i0)
                        if g not in seen:
                            seen.add(g)
                            nxt.append(g)
            frontier = nxt
        return seen

    def dimension(self, lam):
        return self.weyl_dim(lam)

    # -- tensor decomposition (production path) ---------------------------------

    def tensor_decompose(self, lam, mu):
        """V(lam) (x) V(mu) = sum N_nu V(nu): reflect every weight of the
        smaller factor shifted by mu+rho into the dominant chamber."""
        lam, mu = tuple(lam), tuple(mu)
        if self.rank == 0:
            return {(): 1}
        key = (lam, mu) if lam <= mu else (mu, lam)
        if key in self._tensor:
            return self._tensor[key]
        a, b = key
        if self.weyl_dim(a) > self.weyl_dim(b):
            a, b = b, a
        out = {}
        b_rho = tuple(x + 1 for x in b)
        for nu, m in self.weight_multiplicities(a).items():
            t = tuple(n + s for n, s in zip(nu, b_rho))
            dom, sign = self.signed_dominant_conjugate(t)
            if sign:
                target = tuple(x - 1 for x in dom)
                out[target] = out.get(target, 0) + sign * m
        out = {nu: c for nu, c in out.items() if c}
        if any(c < 0 for c in out.values()):
            raise ExactnessError("negative tensor multiplicity (convention bug)")
        self._tensor[key] = out
        return out

    def invariant_dimension(self, weights, n=1):
        """dim of the invariants of V(n w_1) (x) ... (x) V(n w_s).

        Iterated binary decomposition; summands that can no longer pair to
        the trivial representation against the remaining factors are pruned.
        """
        ws = [tuple(int(n) * x for x in w) for w in weights]
        if any(not self.is_dominant(w) for w in ws):
            raise ValueError("weights must be dominant for the Levi")
        if self.rank == 0:
            return 1
        if len(ws) == 1:
            return 1 if not any(ws[0]) else 0
        acc = {ws[0]: 1}
        for idx in range(1, len(ws) - 1):
            nxt = {}
            for nu, m in acc.items():
                for tau, c in self.tensor_decompose(nu, ws[idx]).items():
                    nxt[tau] = nxt.get(tau, 0) + m * c
            rest = ws[idx + 1:]
            rest_sum = tuple(sum(col) for col in zip(*rest)) if rest else (0,) * self.rank
            acc = {nu: m for nu, m in nxt.items() if self._reachable(nu, rest_sum)}
        last_dual = self.dual_weight(ws[-1])
        return acc.get(last_dual, 0)

    def _reachable(self, nu, rest_sum_fund):
        """Necessary condition for trivial in V(nu) (x) (rest): the dual of nu
        lies below the sum of the remaining highest weights."""
        dual = self.dual_weight(nu)
        diff = self.system.root_of_fund(tuple(r - d for r, d in zip(rest_sum_fund, dual)))
        return all(Fraction(x).denominator == 1 and x >= 0 for x in diff)

    # -- oracle path: Kostant partition function + Steinberg ---------------------

    def kostant_partition(self, vec):
        """Number of ways to write vec (simple-root coordinates) as a
        nonnegative integer combination of the Levi positive roots."""
        vec = tuple(int(x) for x in vec)
        if any(x < 0 for x in vec):
            return 0
        if self.rank == 0:
            return 1 if not vec else 0
        roots = sorted(self.system.positive_roots, key=lambda b: -sum(b))
        memo = self._kpf

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

    def _weyl_group(self) -> WeylGroup:
        if self._wg is None:
            self._wg = WeylGroup(self.system)
        return self._wg

    def tensor_multiplicity(self, lam, mu, nu):
        """Multiplicity of V(nu) in V(lam) (x) V(mu) by Steinberg's formula:
        sum over (u, v) in W x W of sign(uv) P(u(lam+rho)+v(mu+rho)-nu-2rho)."""
        lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
        for w in (lam, mu, nu):
            if not self.is_dominant(w):
                raise ValueError(f"{w!r} is not dominant")
        if self.rank == 0:
            return 1
        R = self.system
        wg = self._weyl_group()
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
                total += su * sv * self.kostant_partition(tuple(int(x) for x in sr))
        assert total >= 0
        return total


@lru_cache(maxsize=None)
def levi_system(R, nodes):
    return LeviSystem(R, nodes)


def invariant_dimension(R, P, ambient_weights, n=1):
    """Invariants of the restrictions of ambient L-dominant weights."""
    ls = levi_system(R, tuple(sorted(P.levi_simple)))
    return ls.invariant_dimension([ls.restrict(w) for w in ambient_weights], n=n)


def hom_dimension(dr: DeformedRing, ws, n=1):
    """Multiplicity of V(n chi_e) in the tensor product of the V(n chi_{w_i}),
    as representations of the full Levi: the semisimple invariant count when
    the central characters match, and 0 otherwise."""
    P = dr.parabolic
    ct = dr.ct
    chis = [dr.chi(w) for w in ws]
    chi_e = dr.chi(ct.elements[0])
    for k in P.crossed:
        if sum(c.root_coords[k - 1] for c in chis) != chi_e.root_coords[k - 1]:
            return 0
    ls = levi_system(dr.ring.system, tuple(sorted(P.levi_simple)))
    return ls.invariant_dimension([c.levi_coords for c in chis], n=n)
