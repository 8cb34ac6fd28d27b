import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcalc
from flagcalc import lr, roots
from flagcalc.cli import main
from flagcalc.context import flag_context
from flagcalc.levi import LeviSystem, simple_factor
from flagcalc.oracle import (all_elements, chi_balanced, from_word, hom_dimension, kostant_partition,
                             restrict, root_of_fund, tensor_multiplicity)
from flagcalc.roots import ExactnessError


def test_weyl_dim():
    A1 = LeviSystem(roots.build("A", 1), (1,))
    for n in range(6):
        assert A1.weyl_dim((n,)) == n + 1
    A2 = LeviSystem(roots.build("A", 2), (1, 2))
    assert A2.weyl_dim((0, 0)) == 1
    assert A2.weyl_dim((1, 0)) == 3
    assert A2.weyl_dim((1, 1)) == 8
    with pytest.raises(ValueError):
        A2.weyl_dim((-1, 0))


def test_weyl_dim_matches_freudenthal_sum():
    rng = random.Random(13)
    for (letter, rank) in [("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        L = LeviSystem(roots.build(letter, rank), tuple(range(1, rank + 1)))
        for _ in range(4):
            lam = tuple(rng.randint(0, 4 if rank < 3 else 2) for _ in range(rank))
            assert sum(L.weight_multiplicities(lam).values()) == L.weyl_dim(lam)


def test_g2_dimension_from_weight_sum():
    G2 = LeviSystem(roots.build("G", 2), (1, 2))
    assert sum(G2.weight_multiplicities((1, 0)).values()) == G2.weyl_dim((1, 0)) == 7
    assert G2.weyl_dim((0, 1)) == 14


def test_kostant_partition():
    A2 = LeviSystem(roots.build("A", 2), (1, 2))
    assert kostant_partition(A2, (0, 0)) == 1
    assert kostant_partition(A2, (1, 1)) == 2
    assert kostant_partition(A2, (-1, 0)) == 0

    G2 = LeviSystem(roots.build("G", 2), (1, 2))

    def brute(vec):
        roots_ = G2.system.positive_roots
        count = 0
        bound = max(vec) + 1

        def rec(idx, rem):
            nonlocal count
            if idx == len(roots_):
                if not any(rem):
                    count += 1
                return
            b = roots_[idx]
            k = 0
            cur = rem
            while all(x >= 0 for x in cur):
                rec(idx + 1, cur)
                cur = tuple(a - c for a, c in zip(cur, b))
                k += 1
                if k > bound:
                    break
            return

        rec(0, tuple(vec))
        return count

    for vec in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        assert kostant_partition(G2, vec) == brute(vec)


def test_clebsch_gordan_and_zero_weight():
    A1 = LeviSystem(roots.build("A", 1), (1,))
    assert A1.tensor_decompose((1,), (1,)) == {(0,): 1, (2,): 1}
    assert tensor_multiplicity(A1, (1,), (1,), (0,)) == 1
    A2 = LeviSystem(roots.build("A", 2), (1, 2))
    for nu in [(0, 0), (1, 0), (2, 1)]:
        assert tensor_multiplicity(A2, (0, 0), nu, nu) == 1
        assert A2.tensor_decompose((0, 0), nu) == {nu: 1}


def test_tensor_against_lr():
    # SL(3) tensor multiplicities are LR coefficients after padding
    rng = random.Random(99)
    A2 = LeviSystem(roots.build("A", 2), (1, 2))

    def to_fund(p):
        p = tuple(p) + (0,) * (3 - len(p))
        return (p[0] - p[1], p[1] - p[2])

    box = lr.partitions_in_box(3, 3)
    checked = 0
    for _ in range(20):
        lam, mu = rng.choice(box), rng.choice(box)
        dec = A2.tensor_decompose(to_fund(lam), to_fund(mu))
        for nu in lr.partitions_in_box(3, 6):
            if sum(nu) != sum(lam) + sum(mu):
                continue
            c = lr.lr_coefficient(lam, mu, nu)
            # match via SL(3) coordinates; LR partitions with 3 rows can shift
            got = dec.get(to_fund(nu), 0)
            want = sum(lr.lr_coefficient(lam, mu, kappa)
                       for kappa in lr.partitions_in_box(3, 6)
                       if to_fund(kappa) == to_fund(nu)
                       and sum(kappa) == sum(lam) + sum(mu))
            assert got == want
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_steinberg_equals_klimyk(letter, rank):
    rng = random.Random(hash(letter) % 1000)
    L = LeviSystem(roots.build(letter, rank), tuple(range(1, rank + 1)))
    for _ in range(10):
        lam = tuple(rng.randint(0, 3) for _ in range(rank))
        mu = tuple(rng.randint(0, 3) for _ in range(rank))
        dec = L.tensor_decompose(lam, mu)
        nus = list(dec)[:5] + [tuple(rng.randint(0, 5) for _ in range(rank))
                               for _ in range(3)]
        for nu in nus:
            assert tensor_multiplicity(L, lam, mu, nu) == dec.get(nu, 0)


def test_tensor_dimension_conservation():
    for (letter, rank, lam, mu) in [("A", 2, (2, 1), (1, 1)), ("B", 2, (1, 2), (2, 0)),
                                    ("G", 2, (1, 1), (0, 1))]:
        L = LeviSystem(roots.build(letter, rank), tuple(range(1, rank + 1)))
        dec = L.tensor_decompose(lam, mu)
        assert (sum(c * L.weyl_dim(nu) for nu, c in dec.items())
                == L.weyl_dim(lam) * L.weyl_dim(mu))


def test_invariant_dimension_reorder_invariance():
    G2 = LeviSystem(roots.build("G", 2), (1, 2))
    ws = [(2, 0), (1, 1), (0, 1), (1, 0)]
    base = G2.invariant_dimension(ws)
    rng = random.Random(1)
    for _ in range(4):
        perm = ws[:]
        rng.shuffle(perm)
        assert G2.invariant_dimension(perm) == base


def test_invariant_examples():
    G2 = LeviSystem(roots.build("G", 2), (1, 2))
    assert G2.invariant_dimension([(6, 0), (0, 6), (0, 7)]) == 1
    assert G2.invariant_dimension([(6, 0), (0, 6), (0, 7)], n=2) == 2
    assert G2.invariant_dimension([(6, 0), (0, 6), (10, 1)]) == 1
    assert G2.invariant_dimension([(6, 0), (0, 6), (10, 1)], n=2) == 3
    A2 = LeviSystem(roots.build("C", 3), (1, 2))
    assert A2.invariant_dimension([(2, 0), (0, 3), (2, 1)]) == 1


def test_levi_of_product_type():
    # C3 with node 2 crossed: Levi A1 x A1 with different root lengths
    L = LeviSystem(roots.build("C", 3), (1, 3))
    assert L.weyl_dim((1, 1)) == 4
    assert L.invariant_dimension([(1, 1), (1, 1), (3, 1)]) == 0
    assert L.invariant_dimension([(1, 1), (1, 1), (2, 0)]) == 1
    assert L.invariant_dimension([(1, 1), (1, 1), (2, 2)]) == 1


def test_rank_zero_levi():
    L = LeviSystem(roots.build("A", 2), ())
    assert restrict(L, (3, 4)) == ()
    assert L.invariant_dimension([(), (), ()]) == 1
    assert L.weyl_dim(()) == 1


@pytest.mark.parametrize("letter", ["A", "G"])
def test_borel_levi_takes_the_general_path(letter):
    """The Levi of the Borel of A2 or G2 is an ordinary system of rank 0: the
    production and oracle routes give 1 for its one weight (), and
    hom_dimension is 1 exactly on the triples whose central characters
    balance (sum chi_{w_i} = chi_e at every node) and 0 on the others."""
    cx = flag_context(letter, 2, (1, 2))
    L, dr = cx.levi, cx.deformed
    assert L.system.rank == 0 and L.factors == ()
    assert L.tensor_decompose((), ()) == {(): 1}
    assert tensor_multiplicity(L, (), (), ()) == 1 and kostant_partition(L, ()) == 1
    assert L.invariant_dimension([(), (), ()], n=4) == 1
    assert L._signed_sum((), (), ()) == 1
    centre = lambda w: list(dr.chi(w).root_coords)
    seen = set()
    for tup in itertools.combinations_with_replacement(cx.ct.elements, 3):
        balanced = [sum(c) for c in zip(*map(centre, tup))] == centre(cx.ct.elements[0])
        assert hom_dimension(cx, tup) == int(balanced)
        seen.add(balanced)
    assert seen == {True, False}


def test_hom_dimension_central_condition():
    cx = flag_context("C", 3, (2,))
    w1 = cx.element((1, 3, 2, 1, 3, 2))
    w3 = cx.element((3, 2))
    for n in (1, 2, 3):
        assert hom_dimension(cx, [w1, w1, w3], n=n) == 0
    # central mismatch forces 0 regardless of the semisimple count
    e = cx.ct.elements[0]
    assert hom_dimension(cx, [e, e, e], n=1) == 0
    # a movable tuple: top, top, top has matching centre and invariant 1
    cx2 = flag_context("A", 2, (1,))
    ct2 = cx2.ct
    top = ct2.longest
    tuples = [(top, w, cx2.ct.dual[w]) for w in ct2.elements]
    for tup in tuples:
        assert hom_dimension(cx2, list(tup), n=2) == 1


@pytest.mark.parametrize("letter,rank,crossed", [("A", 2, (1,)), ("A", 3, (2,)),
                                                 ("B", 3, (2,)), ("C", 3, (2,))])
def test_hom_dimension_zero_off_the_centre(letter, rank, crossed):
    """On every triple of W^P elements, hom_dimension is the semisimple count
    when sum chi_{w_i} = chi_e at the crossed nodes and 0 otherwise, the
    centre compared here from the root-sum coordinates; some triples whose
    central characters differ have a positive semisimple count."""
    cx = flag_context(letter, rank, crossed)
    dr, crossed_nodes = cx.deformed, cx.parabolic.crossed
    centre = lambda w: [dr.chi(w).root_coords[k - 1] for k in crossed_nodes]
    off_centre = 0
    for tup in itertools.combinations_with_replacement(cx.ct.elements, 3):
        count = cx.levi.invariant_dimension([dr.chi(w).levi_coords for w in tup])
        if [sum(c) for c in zip(*map(centre, tup))] == centre(cx.ct.elements[0]):
            assert hom_dimension(cx, tup) == count
        else:
            assert hom_dimension(cx, tup) == 0
            off_centre += count > 0
    assert off_centre


def test_lg510_invariant():
    A4 = LeviSystem(roots.build("C", 5), (1, 2, 3, 4))
    assert A4.invariant_dimension([(1, 2, 1, 0), (0, 2, 2, 0), (1, 2, 1, 1)]) == 5


def test_hom_dimension_lg36_tuple():
    cx = flag_context("C", 3, (3,))
    tup = [lr.lagrangian_bijection(cx.ct, a) for a in [(1,), (2, 1), (2,)]]
    assert hom_dimension(cx, tup, n=1) == 1


def test_type_a_invariant_matches_iterated_lr():
    # [V(a) x V(b) x V(c)]^{SL(3)} = sum_kappa c^kappa_{a,b} [kappa = c* mod det]
    A2 = LeviSystem(roots.build("A", 2), (1, 2))

    def to_fund(pp):
        pp = tuple(pp) + (0,) * (3 - len(pp))
        return (pp[0] - pp[1], pp[1] - pp[2])

    cases = [(((2,), (3, 3), (3, 1)), 1),
             (((2, 1), (2, 1), (2, 1)), None),
             (((2, 2), (2, 1), (1,)), None)]
    for (a, b, c), expect in cases:
        # dual of V(c) as an SL(3) weight
        fc = to_fund(c)
        dual = (fc[1], fc[0])
        total = 0
        for kappa in lr.partitions_in_box(3, 12):
            if sum(kappa) != sum(a) + sum(b):
                continue
            if to_fund(kappa) == dual:
                total += lr.lr_coefficient(a, b, kappa)
        got = A2.invariant_dimension([to_fund(a), to_fund(b), to_fund(c)])
        assert got == total
        if expect is not None:
            assert got == expect


# -- the three-factor signed sum against the full decomposition ---------------

DIFF_LEVIS = {
    "A1xA1": (("A", 3), (1, 3)),
    "A2": (("A", 2), (1, 2)),
    "B2": (("B", 2), (1, 2)),
    "G2": (("G", 2), (1, 2)),
    "A3": (("A", 3), (1, 2, 3)),
    "A5{3}": (("A", 5), (1, 2, 4, 5)),
    "C4{4}": (("C", 4), (1, 2, 3)),
    "B4{2}": (("B", 4), (1, 3, 4)),  # A1 x B2
    "D4{2}": (("D", 4), (1, 3, 4)),  # A1 x A1 x A1
    "A4{2}": (("A", 4), (1, 3, 4)),  # A1 x A2
    "B3{2}": (("B", 3), (1, 3)),  # A1 x A1
}
# products of SL(2) factors are multiplicity free
MULTIPLICITY_FREE = {"A1xA1", "D4{2}", "B3{2}"}


def _diff_levi(name):
    (letter, rank), nodes = DIFF_LEVIS[name]
    return LeviSystem(roots.build(letter, rank), nodes)


def _triples(L, seed, count, top):
    """Seeded dominant (a, b, c).  Every other c is the dual of a summand of
    V(a) (x) V(b), half of those one of largest multiplicity, so that many
    invariant counts are nonzero and some exceed 1."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        a, b, c = (tuple(rng.randint(0, top) for _ in range(L.rank)) for _ in range(3))
        if k % 2:
            dec = L.tensor_decompose(a, b)
            pool = sorted(dec) if k % 4 == 1 else [nu for nu in sorted(dec)
                                                   if dec[nu] == max(dec.values())]
            c = L.dual_weight(rng.choice(pool))
        out.append((a, b, c))
    return out


def _no_tensor(*args):
    raise AssertionError("three factors must not call tensor_decompose")


@pytest.mark.parametrize("name", sorted(DIFF_LEVIS))
def test_triple_sum_matches_full_decomposition(name, monkeypatch):
    L = _diff_levi(name)
    top = 4 if L.rank <= 2 else 3
    cases = _triples(L, seed=len(name) * 31 + L.rank, count=24, top=top)
    stretched = [(n, cases[1]) for n in (2, 3)]
    want = [L.tensor_decompose(a, b).get(L.dual_weight(c), 0) for a, b, c in cases]
    want_n = [L.tensor_decompose(*(tuple(n * x for x in w) for w in (a, b))).get(
        L.dual_weight(tuple(n * x for x in c)), 0) for n, (a, b, c) in stretched]
    monkeypatch.setattr(LeviSystem, "tensor_decompose", _no_tensor)  # the factors too
    assert [L.invariant_dimension([a, b, c]) for a, b, c in cases] == want
    assert [L.invariant_dimension(list(t), n=n) for n, t in stretched] == want_n
    assert sum(1 for x in want if x) >= 10
    if name not in MULTIPLICITY_FREE:
        assert max(want) >= 2


@pytest.mark.parametrize("name", ["A1xA1", "A2", "B2", "G2", "B4{2}", "D4{2}", "A4{2}", "B3{2}"])
def test_triple_sum_matches_steinberg(name):
    L = _diff_levi(name)
    for a, b, c in _triples(L, seed=7 + len(name), count=12, top=3):
        want = tensor_multiplicity(L, a, b, L.dual_weight(c))
        assert L.invariant_dimension([a, b, c]) == want


@pytest.mark.parametrize("name", sorted(DIFF_LEVIS))
def test_triple_sum_symmetric_in_its_factors(name):
    # any factor may play a (the one expanded into weights), b or c
    L = _diff_levi(name)
    top = 4 if L.rank <= 2 else 2
    for a, b, c in _triples(L, seed=101 + L.rank, count=8, top=top):
        values = {L._signed_sum(*p) for p in itertools.permutations((a, b, c))}
        values |= {L.invariant_dimension(list(p)) for p in itertools.permutations((a, b, c))}
        assert len(values) == 1


@pytest.mark.parametrize("name", sorted(DIFF_LEVIS))
def test_four_factors_match_two_decompositions(name):
    L = _diff_levi(name)
    rng = random.Random(55 + L.rank)
    top = 3 if L.rank <= 2 else 1
    nonzero = 0
    for k in range(10):
        a, b, c, d = (tuple(rng.randint(0, top) for _ in range(L.rank)) for _ in range(4))
        if k % 2:  # d dual to a summand of (V(a) (x) V(b)) (x) V(c)
            nu = rng.choice(sorted(L.tensor_decompose(a, b)))
            d = L.dual_weight(rng.choice(sorted(L.tensor_decompose(nu, c))))
        left, right = L.tensor_decompose(a, b), L.tensor_decompose(c, d)
        want = sum(m * right.get(L.dual_weight(nu), 0) for nu, m in left.items())
        assert L.invariant_dimension([a, b, c, d]) == want
        nonzero += bool(want)
    assert nonzero >= 5


# -- per-factor counts against the unsplit system -------------------------------

def _factor_nodes(L):
    """[(positions, the ambient nodes at them)] of each factor of L."""
    return [(pos, tuple(L.nodes[p] for p in pos)) for pos, _ in L.factors]


def test_levi_factors():
    """Each factor is the simple_factor of its Cartan matrix; its positions
    name its ambient nodes through L.nodes."""
    A5 = roots.build("A", 5)
    L = LeviSystem(A5, (1, 2, 4, 5))
    A1, A2 = simple_factor(((2,),)), simple_factor(((2, -1), (-1, 2)))
    assert _factor_nodes(L) == [((0, 1), (1, 2)), ((2, 3), (4, 5))]
    assert [f for _, f in L.factors] == [A2, A2] and A2.nodes == (1, 2)
    D4 = LeviSystem(roots.build("D", 4), (1, 3, 4))
    assert _factor_nodes(D4) == [((0,), (1,)), ((1,), (3,)), ((2,), (4,))]
    assert all(f is A1 for _, f in D4.factors)
    C4 = LeviSystem(roots.build("C", 4), (1, 2, 3))
    assert _factor_nodes(C4) == [((0, 1, 2), (1, 2, 3))]
    assert C4.factors[0][1] is simple_factor(C4.system.cartan) is not C4
    # a simple system on all of its ambient's nodes is its own factor
    A3 = C4.factors[0][1]
    assert A3.factors == (((0, 1, 2), A3),)
    G2 = LeviSystem(roots.build("G", 2), ())
    assert G2.factors == () and G2.invariant_dimension([(), (), ()]) == 1
    # A5{3} and A5{3,4} share the A2 factor on nodes (1, 2), with its memos
    other = LeviSystem(A5, (1, 2, 5))
    assert _factor_nodes(other) == [((0, 1), (1, 2)), ((2,), (5,))]
    assert [f for _, f in other.factors] == [A2, A1]


def test_isomorphic_factors_share_their_memos():
    """A5{3}'s two A2 factors are one object, so each Freudenthal table,
    chamber entry and three-factor count is built once between them; B2 and
    C2, with transposed Cartan matrices, are two and do not share."""
    (p, first), (q, second) = LeviSystem(roots.build("A", 5), (1, 2, 4, 5)).factors
    assert p != q and first is second
    assert first is LeviSystem(roots.build("A", 6), (1, 2, 4, 5, 6)).factors[0][1]
    lam = (3, 4)
    assert second.dominant_weight_multiplicities(lam) is first.dominant_weight_multiplicities(lam)
    # V(2, 1) occurs twice in V(2, 1) (x) V(1, 1); the count is kept under the sorted triple
    assert first._count((2, 1), (1, 1), (1, 2)) == 2 == second._counts[((1, 1), (1, 2), (2, 1))]
    (_, B2), = LeviSystem(roots.build("B", 3), (2, 3)).factors
    (_, C2), = LeviSystem(roots.build("C", 3), (2, 3)).factors
    assert B2 is not C2 and B2._dom_mults is not C2._dom_mults
    assert B2._chamber is not C2._chamber and B2._counts is not C2._counts


@pytest.mark.parametrize("letter,rank,crossed", [("A", 5, (3,)), ("B", 4, (2,)), ("D", 4, (2,)),
                                                 ("A", 4, (2,)), ("B", 3, (2,))])
def test_factor_product_matches_unsplit_count(letter, rank, crossed):
    """On every W^P triple meeting the Belkale-Kumar criterion, the product
    of the factors' counts equals the count on the whole, unsplit system."""
    cx = flag_context(letter, rank, crossed)
    dr = cx.deformed
    whole = LeviSystem(cx.system, cx.levi.nodes)
    checked, values = 0, set()
    els = cx.ct.elements
    for tup in itertools.combinations_with_replacement(range(len(els)), 3):
        if not chi_balanced(dr, tup):
            continue
        chis = [dr.chi(els[i]).levi_coords for i in tup]
        for n in (1, 2, 3):
            got = cx.levi.invariant_dimension(chis, n=n)
            assert got == whole._simple_invariants([tuple(n * x for x in c) for c in chis])
            values.add(got)
        checked += 1
    assert checked >= 10 and 0 in values and max(values) >= 1


def test_first_zero_factor_stops_the_product(monkeypatch):
    """The two A2 factors of A5{3} are one object, so each factor count is
    told apart by the coordinates it was given."""
    L = LeviSystem(roots.build("A", 5), (1, 2, 4, 5))
    (_, A2), _ = L.factors
    ran, entered = [], []
    count, public = LeviSystem._simple_invariants, LeviSystem.invariant_dimension
    monkeypatch.setattr(LeviSystem, "_simple_invariants",
                        lambda self, ws: ran.append((self, ws)) or count(self, ws))
    monkeypatch.setattr(LeviSystem, "invariant_dimension",
                        lambda self, *a, **k: entered.append(self) or public(self, *a, **k))
    # V(1, 0) of the first A2 has no invariants, so the second, which pairs
    # (1, 0) with (0, 1), is never asked
    assert L.invariant_dimension([(1, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)]) == 0
    assert ran == [(A2, [(1, 0), (0, 0), (0, 0)])] and entered == [L]
    ran.clear()
    entered.clear()
    assert L.invariant_dimension([(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 0)], n=2) == 1
    assert ran == [(A2, [(2, 0), (0, 2), (0, 0)]), (A2, [(0, 2), (2, 0), (0, 0)])]
    assert entered == [L]


def _kostant_multiplicities(L, lam):
    """{dominant mu: m_lam(mu)} by Kostant's formula,
    m_lam(mu) = sum_w eps(w) P(w(lam + rho) - (mu + rho))."""
    wg = L.wg
    R = L.system
    lam_rho = tuple(x + 1 for x in lam)
    images = [(1 - 2 * (w.length % 2), wg.act_weight(w, lam_rho)) for w in all_elements(wg)]
    out = {}
    for mu in L.dominant_weight_multiplicities(lam):
        total = 0
        for sign, img in images:
            diff = root_of_fund(R, tuple(x - m - 1 for x, m in zip(img, mu)))
            if all(Fraction(x).denominator == 1 for x in diff):
                total += sign * kostant_partition(L, tuple(int(x) for x in diff))
        out[mu] = total
    return out


@pytest.mark.parametrize("name", sorted(DIFF_LEVIS))
def test_integer_freudenthal_matches_kostant(name):
    L = _diff_levi(name)
    wg = L.wg
    rng = random.Random(3 + L.rank)
    top = 3 if L.rank <= 2 else 2
    for _ in range(4):
        lam = tuple(rng.randint(0, top) for _ in range(L.rank))
        mults = L.dominant_weight_multiplicities(lam)
        assert mults == _kostant_multiplicities(L, lam)
        orbit = {mu: len({wg.act_weight(w, mu) for w in all_elements(wg)}) for mu in mults}
        assert sum(m * orbit[mu] for mu, m in mults.items()) == L.weyl_dim(lam)


def test_freudenthal_raises_on_a_wrong_invariant_form(monkeypatch):
    # G2 with the form of A1 x A1 scales: the recursion divides inexactly
    ambient = roots.build("G", 2)  # memoised, so built before the patch
    monkeypatch.setattr(roots, "_symmetrizers", lambda cartan: (1,) * len(cartan))
    G2 = LeviSystem(ambient, (1, 2))
    with pytest.raises(ExactnessError):
        G2.dominant_weight_multiplicities((2, 1))


def test_restrict_rejects_nonintegral_pairings():
    L = LeviSystem(roots.build("C", 3), (1, 2))
    assert restrict(L, (1, 3, Fraction(7, 2))) == (1, 3)
    with pytest.raises(ValueError):
        restrict(L, (Fraction(1, 2), 3, Fraction(7, 2)))


# -- the memoised chamber map ----------------------------------------------------

def _brute_chamber(L, f):
    """(dominant image, sign) of f over every element of W_L: the sign is
    (-1)^l(w) for the w taking f there, 0 when the image lies on a wall."""
    wg = L.wg
    hits = [(img, w.length % 2) for w in all_elements(wg)
            for img in [wg.act_weight(w, f)] if min(img) >= 0]
    images = {img for img, _ in hits}
    assert len(images) == 1, (f, images)
    (dom,) = images
    parities = {p for _, p in hits}
    if 0 in dom:
        # a wall: its stabiliser holds a reflection, so both parities reach it
        assert parities == {0, 1}
        return dom, 0
    assert len(hits) == 1
    return dom, 1 - 2 * hits[0][1]


@pytest.mark.parametrize("name", sorted(DIFF_LEVIS))
def test_chamber_map_matches_brute_force(name):
    L = _diff_levi(name)
    span = range(-3, 4) if L.rank <= 3 else range(-2, 3)
    walls = 0
    for f in itertools.product(span, repeat=L.rank):
        want = _brute_chamber(L, f)
        assert L.signed_dominant_conjugate(f) == want  # a miss
        assert L.signed_dominant_conjugate(f) == want  # a hit
        assert L.signed_dominant_conjugate(list(f)) == want
        assert L.dominant_conjugate(f) == want[0]
        walls += want[1] == 0
    assert 0 < walls < len(span) ** L.rank


@pytest.mark.parametrize("letter,rank,nodes", [
    ("A", 4, (1, 2, 3, 4)), ("B", 4, (1, 2, 3, 4)), ("D", 4, (1, 2, 3, 4)),
    ("C", 5, (2, 3, 4, 5)), ("C", 5, (1, 2, 3, 4))])
@settings(max_examples=40)
@given(data=st.data())
def test_simple_reflection_negates_the_chamber_sign(letter, rank, nodes, data):
    L = LeviSystem(roots.build(letter, rank), nodes)
    wg = L.wg
    f = data.draw(st.tuples(*[st.integers(-6, 6)] * L.rank))
    dom, sign = L.signed_dominant_conjugate(f)
    assert min(dom) >= 0 and (sign == 0) == (0 in dom)
    for i in range(L.rank):
        g = wg.act_weight(from_word(wg, (i + 1,)), f)
        assert L.signed_dominant_conjugate(g) == (dom, -sign)


def test_chamber_memo_is_per_system():
    """B2 (nodes 2, 3 of B3) and C2 (nodes 2, 3 of C3) have transposed Cartan
    matrices, so one weight can have different conjugates in the two, and one
    triple different three-factor counts."""
    B2 = LeviSystem(roots.build("B", 3), (2, 3))
    C2 = LeviSystem(roots.build("C", 3), (2, 3))
    differ = 0
    for f in itertools.product(range(-3, 4), repeat=2):
        got = [L.signed_dominant_conjugate(f) for L in (B2, C2, B2, C2)]
        assert got[:2] == got[2:] == [_brute_chamber(B2, f), _brute_chamber(C2, f)]
        differ += got[0] != got[1]
    assert differ
    differ = 0
    small = list(itertools.product(range(3), repeat=2))
    for a, b, c in itertools.combinations_with_replacement(small, 3):
        got = [L._count(c, a, b) for L in (B2, C2, B2, C2)]
        assert got[:2] == got[2:] == [L._counts[(a, b, c)] for L in (B2, C2)] == [
            tensor_multiplicity(L, a, b, L.dual_weight(c)) for L in (B2, C2)]
        differ += got[0] != got[1]
    assert differ


def test_weyl_dim_rejects_non_dominant_every_time():
    L = LeviSystem(roots.build("B", 3), (2, 3))
    assert L.weyl_dim((1, 0)) == L.weyl_dim([1, 0]) == 5
    for _ in range(3):
        with pytest.raises(ValueError):
            L.weyl_dim((1, -1))
    assert (1, -1) not in L._dims


# -- the memoised three-factor counts and stretched Freudenthal tables -----------

def test_count_memo_matches_fresh_signed_sums_after_the_levi_battery(capsys):
    """After the verify-levi battery (A5{3} and C4{4}, --nmax 5) every
    memoised count equals a fresh signed sum of its sorted triple, and on A2
    the small ones equal Steinberg's count.  The battery stores only counts
    of 1 (the criterion holds on it); other tests may add more entries, so
    the exact sizes are checked in a fresh process (below)."""
    for group, crossed in [("A5", "3"), ("C4", "4")]:
        assert main(["verify", "--group", group, "--cross", crossed, "--s", "3",
                     "--nmax", "5"]) == 0
    capsys.readouterr()
    A2 = flag_context("A", 5, (3,)).levi.factors[0][1]
    A3 = flag_context("C", 4, (4,)).levi.factors[0][1]
    steinberg = 0
    for L in (A2, A3):
        for key, count in L._counts.items():
            assert key == tuple(sorted(key))
            assert count == L._signed_sum(*key)
            if L is A2 and max(map(max, key)) <= 3:
                a, b, c = key
                assert count == tensor_multiplicity(L, a, b, L.dual_weight(c))
                steinberg += 1
    assert steinberg >= 20


_BATTERY_PROBE = """
import contextlib, io, json
from flagcalc.cli import main
from flagcalc.context import flag_context
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "--group", group, "--cross", crossed, "--s", "3", "--nmax", "5"])
             for group, crossed in [("A5", "3"), ("C4", "4")]]
factors = [flag_context(*p).levi.factors[0][1] for p in [("A", 5, (3,)), ("C", 4, (4,))]]
sizes = [[len(L._counts), len(L._dom_mults), len(L._chamber)] for L in factors]
fresh = all(count == L._signed_sum(*key) for L in factors for key, count in L._counts.items())
print(json.dumps({"codes": codes, "sizes": sizes, "fresh": fresh}))
"""


def test_levi_battery_memo_sizes_in_a_fresh_process():
    """In a fresh process the verify-levi battery leaves exactly these
    (counts, Freudenthal tables, chamber entries) on its simple factors: A2
    (A5{3}) and A3 (C4{4}); every count equals a fresh signed sum."""
    env = dict(os.environ, PYTHONPATH=str(Path(flagcalc.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _BATTERY_PROBE], capture_output=True,
                         text=True, env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"codes": [0, 0], "sizes": [[164, 25, 530], [64, 14, 1801]],
                                      "fresh": True}


@pytest.mark.parametrize("letter,rank,lam", [("A", 2, (1, 1)), ("A", 3, (1, 0, 1)),
                                             ("B", 2, (1, 1)), ("G", 2, (1, 1))])
def test_stretched_freudenthal_tables(letter, rank, lam):
    """The tables of n lam, n = 1..5, built on the fresh memos of a LeviSystem
    built directly: each sums over the orbits to the Weyl dimension and, while
    small, matches Kostant's formula.  On B2 and G2, (beta, beta) differs
    between the roots, so the pairing carried along a root string steps by a
    root-dependent amount."""
    L = LeviSystem(roots.build(letter, rank), tuple(range(1, rank + 1)))
    assert L.factors == ((tuple(range(rank)), L),) and not L._dom_mults
    kostant = 0
    for n in range(1, 6):
        n_lam = tuple(n * x for x in lam)
        mults = L.dominant_weight_multiplicities(n_lam)
        orbit = {mu: len({f for f, _ in L.wg.signed_orbit(mu)}) for mu in mults}
        assert sum(m * orbit[mu] for mu, m in mults.items()) == L.weyl_dim(n_lam)
        if L.weyl_dim(n_lam) <= 1000:
            assert mults == _kostant_multiplicities(L, n_lam)
            kostant += 1
    assert kostant >= 2 and max(mults.values()) >= 3
