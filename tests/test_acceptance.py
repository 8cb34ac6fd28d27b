"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All quantities are exact integers; "tolerance" everywhere means equality.
Wall-clock budgets are asserted where the criterion states one.

Criterion 2 note: the recorded expected intersection number for LG(5,10)
((3,1),(3,2),(4,2)) is 4, which the computation contradicts (it yields 6,
certified independently by the Schur Q-function oracle, the classical degree
formulas and full Poincare duality; see tests/test_schubert.py).  The
criterion is asserted as stated and is expected to fail on that clause.
"""

import random
import time
from itertools import combinations_with_replacement

from cupfold import cup

from flagcalc import lr, roots
from flagcalc.cells import dj_profile
from flagcalc.context import flag_context
from flagcalc.levi import LeviSystem
from flagcalc.oracle import (cell_in_stabilizer_orbit, cover_level_identity, covers,
                             dj_profile_at_cover, grassmannian_bijection, root_of_fund,
                             structure_constant, tensor_multiplicity)

SWEEP_GROUPS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _movable_parabolics():
    for letter, rank in SWEEP_GROUPS:
        for cross in range(1, rank + 1):
            yield flag_context(letter, rank, (cross,))


def test_criterion_1_lg36():
    t0 = time.time()
    cx = flag_context("C", 3, (3,))
    tup = [lr.lagrangian_bijection(cx.ct, a) for a in [(1,), (2, 1), (2,)]]
    inter = cx.ring.top_coefficient(tup)
    inv = cx.levi.invariant_dimension([(2, 0), (0, 3), (2, 1)])
    elapsed = time.time() - t0
    ok = inter == 2 and inv == 1 and elapsed < 30
    assert _report("1 LG(3,6)", ok, f"intersection={inter}, invariant={inv}, {elapsed:.1f}s")


def test_criterion_2_lg510():
    t0 = time.time()
    cx = flag_context("C", 5, (5,))
    tup = [lr.lagrangian_bijection(cx.ct, a) for a in [(3, 1), (3, 2), (4, 2)]]
    inter = cx.ring.top_coefficient(tup)
    inv = cx.levi.invariant_dimension([(1, 2, 1, 0), (0, 2, 2, 0), (1, 2, 1, 1)])
    elapsed = time.time() - t0
    ok = inter == 4 and inv == 5 and elapsed < 600
    assert _report("2 LG(5,10)", ok,
                   f"intersection={inter} (stated 4), invariant={inv}, {elapsed:.1f}s")


def test_criterion_3_g2_invariants():
    t0 = time.time()
    g2 = LeviSystem(roots.build("G", 2), (1, 2))
    vals = (
        g2.invariant_dimension([(6, 0), (0, 6), (0, 7)]),
        g2.invariant_dimension([(6, 0), (0, 6), (0, 7)], n=2),
        g2.invariant_dimension([(6, 0), (0, 6), (10, 1)]),
        g2.invariant_dimension([(6, 0), (0, 6), (10, 1)], n=2),
    )
    elapsed = time.time() - t0
    ok = vals == (1, 2, 1, 3) and elapsed < 300
    assert _report("3 G2 invariants", ok, f"values={vals}, {elapsed:.1f}s")


def test_criterion_4_sp6():
    t0 = time.time()
    cx = flag_context("C", 3, (2,))
    w1 = cx.element((1, 3, 2, 1, 3, 2))
    w3 = cx.element((3, 2))
    tup = [w1, w1, w3]
    inter = cx.ring.top_coefficient(tup)
    chi1 = cx.deformed.chi(w1).levi_coords
    chi3 = cx.deformed.chi(w3).levi_coords
    chis = [cx.deformed.chi(w).levi_coords for w in tup]
    dims = tuple(cx.levi.invariant_dimension(chis, n=n) for n in (1, 2, 3))
    dtop = cx.deformed.top_coefficient(tup)
    elapsed = time.time() - t0
    ok = (inter == 1 and chi1 == (1, 1) and chi3 == (3, 1)
          and dims == (0, 0, 0) and dtop == 0 and elapsed < 60)
    assert _report("4 Sp(6)", ok,
                   f"top={inter}, chi=({chi1},{chi3}), dims={dims}, deformed={dtop}, "
                   f"{elapsed:.1f}s")


def test_criterion_5_main_theorem_sweep():
    t0 = time.time()
    violations = []
    checked = 0
    for cx in _movable_parabolics():
        need = 2 * cx.parabolic.dim_gp
        for tup in combinations_with_replacement(cx.ct.elements, 3):
            if sum(w.length for w in tup) != need:
                continue
            if cx.deformed.top_coefficient(list(tup)) != 1:
                continue
            checked += 1
            chis = [cx.deformed.chi(w).levi_coords for w in tup]
            for n in (1, 2, 3):
                if cx.levi.invariant_dimension(chis, n=n) != 1:
                    violations.append((cx.system.label, tup, n))
    elapsed = time.time() - t0
    ok = not violations and checked > 0 and elapsed < 1800
    assert _report("5 main-theorem sweep", ok,
                   f"{checked} movable tuples, {len(violations)} violations, {elapsed:.1f}s")


def test_criterion_6_chi_suite():
    failures = 0
    for cx in _movable_parabolics():
        for w in cx.ct.elements:
            try:
                chi = cx.deformed.chi(w)  # equality of both expressions asserted
            except AssertionError:
                failures += 1
                continue
            if not all(chi.weight[i - 1] >= 0 for i in cx.parabolic.levi_simple):
                failures += 1
    assert _report("6 chi identity suite", failures == 0, f"{failures} failures")


def test_criterion_7_dj_suite():
    failures = 0
    for cx in _movable_parabolics():
        R, P, ct = cx.system, cx.parabolic, cx.ct
        for w in ct.elements:
            prof = dj_profile(ct, w)
            winv_rho = ct.wg.inv_act_weight(w, R.rho)
            drop = tuple(R.rho[j] - winv_rho[j] for j in range(R.rank))
            weighted = sum(j * d for j, d in enumerate(prof.d, 1))
            if sum(prof.d) != w.length or weighted != P.root_at_xp(root_of_fund(R, drop)):
                failures += 1
        for (v, w, beta) in covers(ct):
            lhs, rhs = cover_level_identity(ct, v, beta, w)
            if lhs != rhs:
                failures += 1
            inside = cell_in_stabilizer_orbit(ct, v, beta, w)
            if inside and sum(beta) != 1:
                failures += 1
            if not inside and dj_profile(ct, w).d == dj_profile_at_cover(ct, v, beta, w).d:
                failures += 1
    assert _report("7 level-profile suite", failures == 0, f"{failures} failures")


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    constants = 0
    for n in range(2, 8):
        for r in range(1, n):
            cx = flag_context("A", n - 1, (r,))
            box = lr.partitions_in_box(r, n - r)
            bij = {lam: grassmannian_bijection(cx.ct, lam) for lam in box}
            for lam in box:
                for mu in box:
                    if sum(lam) + sum(mu) > r * (n - r):
                        continue
                    row = cx.ring.row(cx.ct.index_of(bij[lam]), cx.ct.index_of(bij[mu]))
                    for nu in box:
                        if sum(nu) != sum(lam) + sum(mu):
                            continue
                        constants += 1
                        if row.get(cx.ct.index_of(bij[nu]), 0) != lr.lr_coefficient(lam, mu, nu):
                            mismatches += 1
    # Steinberg vs the production decomposition on >= 100 random triples
    rng = random.Random(2024)
    agree = 0
    for letter in ("A", "B", "G"):
        L = LeviSystem(roots.build(letter, 2), (1, 2))
        for _ in range(12):
            lam = tuple(rng.randint(0, 6) for _ in range(2))
            mu = tuple(rng.randint(0, 6) for _ in range(2))
            dec = L.tensor_decompose(lam, mu)
            nus = list(dec)[:3] + [tuple(rng.randint(0, 6) for _ in range(2))]
            for nu in nus:
                if tensor_multiplicity(L, lam, mu, nu) != dec.get(nu, 0):
                    mismatches += 1
                agree += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and constants > 1000 and agree >= 100
    assert _report("8 oracle equivalence", ok,
                   f"{constants} Grassmannian constants, {agree} tensor triples, "
                   f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_9_fulton_sweep():
    t0 = time.time()
    rep = lr.fulton_sweep(3, 2, 4)
    elapsed = time.time() - t0
    ok = rep["checked"] > 0 and not rep["violations"] and elapsed < 120
    assert _report("9 multiplicity-one scaling sweep", ok,
                   f"{rep['checked']} unit triples, {len(rep['violations'])} violations, "
                   f"{elapsed:.1f}s")


def test_criterion_10_ring_axioms():
    failures = 0
    rng = random.Random(77)
    for cx in _movable_parabolics():
        ring, dr, ct = cx.ring, cx.deformed, cx.ct
        e = ct.elements[0]
        els = list(ct.elements)
        for a, u in enumerate(els):
            for b, v in enumerate(els):
                if structure_constant(ring, u, v, e) != (1 if v == ct.dual[u] else 0):
                    failures += 1
                full, dfm = ring.row(a, b), dr.row(a, b)
                if not all(0 <= dfm.get(w, 0) <= c for w, c in full.items()):
                    failures += 1
                if set(dfm) - set(full):
                    failures += 1
        for _ in range(6):
            a, b, c = ({rng.randrange(len(els)): 1} for _ in range(3))
            if cup(ring, a, b) != cup(ring, b, a) or cup(dr, a, b) != cup(dr, b, a):
                failures += 1
            if cup(ring, cup(ring, a, b), c) != cup(ring, a, cup(ring, b, c)):
                failures += 1
            if cup(dr, cup(dr, a, b), c) != cup(dr, a, cup(dr, b, c)):
                failures += 1
        if cx.parabolic.m_o == 1:
            for u in range(len(els)):
                for v in range(len(els)):
                    if ring.row(u, v) != dr.row(u, v):
                        failures += 1
    assert _report("10 ring axioms", failures == 0, f"{failures} failures")
