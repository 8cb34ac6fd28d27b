import pickle
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from cupfold import cup

from flagcalc import cli, context, lr, roots
from flagcalc.context import FlagContext, flag_context
from flagcalc.cells import DjProfile, dj_profile, stabilizer_simple_roots
from flagcalc.deformed import ChiCharacter
from flagcalc.oracle import (cell_in_stabilizer_orbit, cover_level_identity, covers,
                             dj_profile_at_cover, grassmannian_cell, root_of_fund)

SWEEP = [("A", 2, (1,)), ("A", 3, (2,)), ("B", 2, (2,)), ("B", 3, (1,)),
         ("B", 3, (2,)), ("C", 3, (2,)), ("C", 3, (3,)), ("G", 2, (1,)), ("G", 2, (2,))]


@pytest.mark.parametrize("letter,rank,crossed", SWEEP)
def test_chi_identity_and_dominance(letter, rank, crossed):
    cx = flag_context(letter, rank, crossed)
    R, P = cx.system, cx.parabolic
    for w in cx.ct.elements:
        chi = cx.deformed.chi(w)  # double-formula equality asserted inside
        assert all(chi.weight[i - 1] >= 0 for i in P.levi_simple)
    e = cx.ct.elements[0]
    chie = cx.deformed.chi(e)
    assert tuple(chie.weight) == tuple(2 * (R.rho[j] - P.rho_levi[j]) for j in range(R.rank))
    # the top cell pairs to zero against every Levi coroot and crossed node
    top_chi = cx.deformed.chi(cx.ct.longest)
    assert not any(top_chi.root_coords)


@pytest.mark.parametrize("letter,rank,crossed", SWEEP + [
    ("A", 4, (1, 2, 3, 4)), ("C", 4, (1, 4)), ("B", 3, (1, 2, 3)), ("G", 2, (1, 2)),
    ("D", 4, (1, 3, 4)), ("A", 5, (3,)), ("C", 4, (4,)), ("B", 4, (2,)), ("A", 3, ())])
def test_chi_root_sum_matches_per_root_route(letter, rank, crossed):
    """chi's root-sum form, from the inversion set built along the word,
    equals the sum of the non-Levi positive roots that w keeps positive,
    found root by root with act_root, on every element of the coset table."""
    cx = flag_context(letter, rank, crossed)
    R, P, wg = cx.system, cx.parabolic, cx.wg
    for w in cx.ct.elements:
        want = [0] * R.rank
        for beta in R.positive_roots:
            img = wg.act_root(w, beta)
            if not P.in_levi(beta) and next(x for x in img if x) > 0:
                want = [t + b for t, b in zip(want, beta)]
        assert cx.deformed.chi(w).root_coords == tuple(want)


def test_sp6_reference_values():
    cx = flag_context("C", 3, (2,))
    w1 = cx.element((1, 3, 2, 1, 3, 2))
    w3 = cx.element((3, 2))
    assert cx.deformed.chi(w1).levi_coords == (1, 1)
    assert cx.deformed.chi(w3).levi_coords == (3, 1)
    tup = [w1, w1, w3]
    assert cx.ring.top_coefficient(tup) == 1
    assert cx.deformed.top_coefficient(tup) == 0


def test_deformed_bounded_by_ordinary_and_unital():
    for (letter, rank, crossed) in SWEEP:
        cx = flag_context(letter, rank, crossed)
        ct = cx.ct
        top = ct.index_of(ct.longest)
        for u in range(len(ct)):
            row = cx.deformed.row(u, top)
            assert row == {u: 1}
            for v in range(len(ct)):
                full = cx.ring.row(u, v)
                deformed = cx.deformed.row(u, v)
                for w, c in deformed.items():
                    assert c == full[w]
                assert set(deformed) <= set(full)


@pytest.mark.parametrize("letter,rank,crossed", SWEEP + [("A", 3, (1, 2, 3)),
                                                         ("C", 3, (1, 3)), ("D", 4, (2,))])
def test_criterion_matches_chi_defect(letter, rank, crossed):
    """chi_w + chi_dual(w) = chi_e at the crossed nodes, so the deformed row
    keeps c^w_{u,v} exactly when chi_w - chi_u - chi_v vanishes there."""
    cx = flag_context(letter, rank, crossed)
    dr, ct, nodes = cx.deformed, cx.ct, cx.parabolic.crossed
    centre = lambda w: tuple(dr.chi(w).root_coords[k - 1] for k in nodes)
    e = centre(ct.elements[0])
    for w in ct.elements:
        assert tuple(a + b for a, b in zip(centre(w), centre(ct.dual[w]))) == e
    els = ct.elements
    for a, u in enumerate(els):
        for b in range(a, len(els)):
            deformed = dr.row(a, b)
            for k, c in cx.ring.row(a, b).items():
                vanishes = all(x == y + z for x, y, z in
                               zip(centre(els[k]), centre(u), centre(els[b])))
                assert deformed.get(k) == (c if vanishes else None)
                # Belkale-Kumar's inequality: chi_u + chi_v - chi_w <= 0 there
                assert all(x >= y + z for x, y, z in
                           zip(centre(els[k]), centre(u), centre(els[b])))


INEQUALITY_BATTERY = [("A", 4, (1, 2, 3, 4)), ("B", 3, (1, 2, 3)), ("C", 4, (1, 4)),
                      ("G", 2, (1, 2)), ("D", 4, (2,)), ("A", 5, (3,)), ("C", 4, (4,))]


def test_belkale_kumar_inequality_on_the_verify_battery():
    """On every s = 3 tuple of the battery, as verify walks it: where the
    ordinary top is nonzero, the chi defect sum_j chi_{w_j} - chi_e is at
    most 0 at every crossed node (Belkale-Kumar's inequality, so no run
    raises), and the deformed top is the ordinary one exactly where the
    defect vanishes."""
    tuples = nonzero = balanced = 0
    for letter, rank, crossed in INEQUALITY_BATTERY:
        cx = flag_context(letter, rank, crossed)
        dr, els, nodes = cx.deformed, cx.ct.elements, cx.parabolic.crossed
        centre = [[dr.chi(w).root_coords[k - 1] for k in nodes] for w in els]
        for _, prefix, lasts in cli._runs(cx.ct, 3):
            for c, (top, deformed) in zip(lasts, dr.tops_run(prefix, lasts)):
                tuples += 1
                if not top:
                    assert deformed == 0
                    continue
                nonzero += 1
                defect = [sum(col) - e for e, *col in
                          zip(centre[0], *(centre[i] for i in (*prefix, c)))]
                assert max(defect) <= 0
                assert deformed == (0 if any(defect) else top)
                balanced += not any(defect)
    assert (tuples, nonzero, balanced) == (15718, 2371, 360)


def test_cominuscule_collapse():
    # every maximal parabolic with m_o = 1 keeps the full product
    for (letter, rank) in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                           ("D", 4), ("G", 2)]:
        R = roots.build(letter, rank)
        for cross in range(1, rank + 1):
            P = roots.parabolic(R, crossed=[cross])
            if P.m_o != 1:
                continue
            cx = flag_context(letter, rank, (cross,))
            for u in range(len(cx.ct)):
                for v in range(len(cx.ct)):
                    assert cx.ring.row(u, v) == cx.deformed.row(u, v)


def _small_parabolics(most):
    """(letter, rank, crossed, |W^P|) over the parabolics P != G of the
    supported groups with at most `most` classes, counted without a coset
    table: |W^P| = prod (ht(beta) + 1) / ht(beta) over the roots beta of
    R+ minus R_L+ (Macdonald's product for the Poincare polynomial at 1)."""
    for letter, ranks in roots.SUPPORTED_RANKS.items():
        for rank in ranks:
            R = roots.build(letter, rank)
            for k in range(1, rank + 1):
                for crossed in combinations(range(1, rank + 1), k):
                    count = Fraction(1)
                    for beta in R.positive_roots:
                        if any(beta[j - 1] for j in crossed):
                            count *= Fraction(sum(beta) + 1, sum(beta))
                    if count <= most:
                        yield letter, rank, crossed, count


def test_deformed_ring_axioms(monkeypatch):
    """On every parabolic with at most 50 classes, 95 of them, the deformed
    product is commutative and (ab)c = a(bc) = (ac)b on every multiset of
    three classes, 352,440 in all.  The contexts are dropped afterwards."""
    monkeypatch.setattr(context, "_contexts", {})
    parabolics = triples = 0
    for letter, rank, crossed, count in _small_parabolics(50):
        dr = flag_context(letter, rank, crossed).deformed
        assert len(dr.ct) == count
        for i, j, k in combinations_with_replacement(range(len(dr.ct)), 3):
            assert dr.row(i, j) == dr.row(j, i)
            ab_c = cup(dr, dr.row(i, j), {k: 1})
            assert ab_c == cup(dr, dr.row(j, k), {i: 1}) == cup(dr, dr.row(i, k), {j: 1})
            triples += 1
        parabolics += 1
    assert (parabolics, triples) == (95, 352440)


def test_levi_movable_cominuscule_duality():
    cx = flag_context("C", 3, (3,))  # cominuscule
    for w in cx.ct.elements:
        assert cx.deformed.top_coefficient([w, cx.ct.dual[w]]) > 0
    lg = flag_context("C", 3, (3,))
    tup = [lr.lagrangian_bijection(lg.ct, a) for a in [(1,), (2, 1), (2,)]]
    assert lg.deformed.top_coefficient(tup) == 2


def test_stabilizers():
    cx = flag_context("C", 3, (2,))
    ct = cx.ct
    assert stabilizer_simple_roots(ct, ct.longest) == frozenset({1, 2, 3})
    assert stabilizer_simple_roots(ct, ct.elements[0]) == frozenset({1, 3})


def test_stabilizer_matches_flag_conditions_gr24():
    # Gr(2,4): the stabilizer of the cell of partition lambda preserves the
    # flag steps {i in I : i+1 not in I} for I = jumps of the cell
    cx = flag_context("A", 3, (2,))
    ct = cx.ct
    n, r = 4, 2
    for lam in lr.partitions_in_box(2, 2):
        w = grassmannian_cell(ct, lam)  # dimension-graded cell
        full = tuple(lam) + (0,) * (r - len(lam))
        I = sorted(full[r - i] + i for i in range(1, r + 1))
        J = {i for i in I if i + 1 not in I and i < n}
        delta = stabilizer_simple_roots(ct, w)
        assert {i for i in range(1, n) if i not in delta} == J


@pytest.mark.parametrize("letter,rank,crossed", SWEEP)
def test_dj_profile_sums(letter, rank, crossed):
    cx = flag_context(letter, rank, crossed)
    R, P, ct = cx.system, cx.parabolic, cx.ct
    e = ct.elements[0]
    assert dj_profile(ct, e).d == (0,) * P.m_o
    for w in ct.elements:
        prof = dj_profile(ct, w)
        assert sum(prof.d) == w.length
        winv_rho = ct.wg.inv_act_weight(w, R.rho)
        drop = tuple(R.rho[j] - winv_rho[j] for j in range(R.rank))
        weighted = sum(j * d for j, d in enumerate(prof.d, 1))
        assert weighted == P.root_at_xp(root_of_fund(R, drop))


@pytest.mark.parametrize("letter,rank,crossed", SWEEP)
def test_cover_profiles_and_level_identity(letter, rank, crossed):
    cx = flag_context(letter, rank, crossed)
    ct = cx.ct
    outside = 0
    for (v, w, beta) in covers(ct):
        at_cover = dj_profile_at_cover(ct, v, beta, w)
        assert sum(at_cover.d) == w.length
        lhs, rhs = cover_level_identity(ct, v, beta, w)
        assert lhs == rhs
        inside = cell_in_stabilizer_orbit(ct, v, beta, w)
        if inside:
            assert sum(beta) == 1  # only simple roots can land inside
        else:
            outside += 1
            assert dj_profile(ct, w).d != at_cover.d
    if (letter, rank, crossed) == ("C", 3, (2,)):
        assert outside > 0  # the sweep genuinely exercises both branches


def test_cover_input_validation():
    cx = flag_context("C", 3, (3,))
    ct = cx.ct
    v, w, beta = covers(ct)[0]
    with pytest.raises(ValueError):
        cell_in_stabilizer_orbit(ct, w, beta, v)  # reversed pair is not a cover


def test_lg36_orbit_classification():
    # all 8 cells: the codim-one-cell test agrees with a direct computation
    cx = flag_context("C", 3, (3,))
    ct = cx.ct
    wg = ct.wg
    R, P = cx.system, cx.parabolic
    for (v, w, beta) in covers(ct):
        # independent route: Delta_w = Delta cap w(R_l+ u R-) membership of beta
        if sum(beta) == 1:
            i = beta.index(1) + 1
            pre = wg.act_root(wg.inverse(w), beta)
            neg = next((x for x in pre if x), 0) < 0
            in_levi_pos = R.is_positive_root(pre) and P.in_levi(pre)
            expected = neg or in_levi_pos
        else:
            expected = False
        assert cell_in_stabilizer_orbit(ct, v, beta, w) == expected


def test_covers_into_top_always_inside():
    for (letter, rank, crossed) in SWEEP:
        cx = flag_context(letter, rank, crossed)
        ct = cx.ct
        top = ct.longest
        assert stabilizer_simple_roots(ct, top) == frozenset(
            range(1, cx.system.rank + 1))
        for (v, w, beta) in covers(ct):
            if w == top:
                assert cell_in_stabilizer_orbit(ct, v, beta, w)


def test_non_simple_cover_roots_are_outside():
    # both branches of the orbit test occur: C3/B3 with the middle node
    # crossed have covers along non-simple roots, always classified outside
    found = 0
    for (letter, crossed) in [("C", (2,)), ("B", (2,))]:
        cx = flag_context(letter, 3, crossed)
        for (v, w, beta) in covers(cx.ct):
            if sum(beta) > 1:
                found += 1
                assert not cell_in_stabilizer_orbit(cx.ct, v, beta, w)
    assert found >= 4


def test_records_are_frozen_values():
    """ChiCharacter and DjProfile behave as the frozen dataclasses they were:
    keyword construction, value equality and hashing (never equal to a bare
    tuple), no assignment or deletion, a pickle round trip; FlagContext keeps
    its keyword construction and refuses assignment to a field."""
    cx = flag_context("C", 3, (2,))
    w = cx.ct.longest
    chi = cx.deformed.chi(w)
    twin = ChiCharacter(weight=chi.weight, root_coords=chi.root_coords,
                        levi_coords=chi.levi_coords)
    prof = dj_profile(cx.ct, w)
    assert twin == chi and hash(twin) == hash(chi) and twin is not chi
    assert chi != ChiCharacter(chi.weight, chi.root_coords, (-1,) * len(chi.levi_coords))
    assert chi != (chi.weight, chi.root_coords, chi.levi_coords)
    assert prof == DjProfile(d=prof.d, subject=prof.subject) and len({prof, prof}) == 1
    assert repr(prof) == f"DjProfile(d={prof.d!r}, subject={prof.subject!r})"
    for rec, name in ((chi, "weight"), (prof, "d")):
        with pytest.raises(AttributeError):
            setattr(rec, name, ())
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(TypeError):
        DjProfile(d=prof.d)
    fields = ("system", "parabolic", "wg", "ct", "ring", "deformed", "levi")
    copy = FlagContext(**{f: getattr(cx, f) for f in fields})
    assert all(getattr(copy, f) is getattr(cx, f) for f in fields)
    assert copy.element((3, 2)) is cx.element((3, 2))
    with pytest.raises(AttributeError):
        copy.ring = cx.deformed
