import random

import pytest
from cupfold import cup

from flagcalc import roots
from flagcalc.roots import ExactnessError
from flagcalc.oracle import ReferenceBGG, all_elements, from_word, pmul, structure_constant
from flagcalc.schubert import CupRing, Realization, SchubertEngine, padd, pmul_linear, psub
from flagcalc.weyl import group, minimal_coset_reps


def ring_for(letter, rank, crossed):
    R = roots.build(letter, rank)
    P = roots.parabolic(R, crossed=crossed)
    return CupRing(minimal_coset_reps(R, P))


@pytest.mark.parametrize("letter,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_reference_table_normalisation(letter, rank):
    R = roots.build(letter, rank)
    ref = ReferenceBGG(R)
    wg = group(R)
    assert ref.rep(wg.identity) == {(0,) * R.rank: 1}
    for w in all_elements(wg):
        assert {sum(m) for m in ref.rep(w)} == {w.length}


def test_reference_divided_difference_a1():
    R = roots.build("A", 1)
    ref = ReferenceBGG(R)
    wg = group(R)
    s1 = from_word(wg, (1,))
    top = ref.rep(s1)
    assert ref.ddiff(0, top) == {(0,): 1}


def test_a2_degree_one_square():
    # in the codim-graded representative basis, S_{s1}^2 = S_{s2 s1}
    R = roots.build("A", 2)
    ref = ReferenceBGG(R)
    wg = group(R)
    s1 = from_word(wg, (1,))
    f = pmul(ref.rep(s1), ref.rep(s1))
    for word, want in (((2, 1), 1), ((1, 2), 0)):
        g = dict(f)
        for i in reversed(word):
            g = ref.ddiff(i - 1, g)
        assert g.get((0, 0), 0) == want


def test_gr24_squares_and_lines():
    ring = ring_for("A", 3, [2])
    ct = ring.ct
    sigma1 = [w for w in ct.elements if ct.codim(w) == 1][0]
    row = ring.row(ct.index_of(sigma1), ct.index_of(sigma1))
    assert sorted(row.values()) == [1, 1]
    assert ring.top_coefficient([sigma1] * 4) == 2


@pytest.mark.parametrize("letter,rank,crossed", [
    ("A", 3, [2]), ("B", 2, [1]), ("B", 3, [3]), ("C", 3, [2]),
    ("C", 3, [3]), ("G", 2, [1]), ("G", 2, [2]), ("D", 4, [1]),
])
def test_poincare_duality(letter, rank, crossed):
    ring = ring_for(letter, rank, crossed)
    ct = ring.ct
    e = ct.elements[0]
    for u in ct.elements:
        for v in ct.elements:
            assert structure_constant(ring, u, v, e) == (1 if v == ct.dual[u] else 0)


@pytest.mark.parametrize("letter,rank,crossed", [
    ("A", 3, [2]), ("B", 3, [2]), ("C", 3, [3]), ("G", 2, [2]),
])
def test_unit_degree_filter_nonnegativity(letter, rank, crossed):
    ring = ring_for(letter, rank, crossed)
    ct = ring.ct
    top = ct.longest
    for a, u in enumerate(ct.elements):
        assert structure_constant(ring, u, top, u) == 1
        for b, v in enumerate(ct.elements):
            for k, c in ring.row(a, b).items():
                assert c >= 0
                assert ct.codim(u) + ct.codim(v) == ct.codim(ct.elements[k])
            for w in ct.elements:
                if ct.codim(u) + ct.codim(v) != ct.codim(w):
                    assert structure_constant(ring, u, v, w) == 0


@pytest.mark.parametrize("letter,rank,crossed", [
    ("A", 3, [2]), ("B", 3, [1]), ("C", 3, [2]), ("G", 2, [1]),
])
def test_ring_axioms_random_triples(letter, rank, crossed):
    ring = ring_for(letter, rank, crossed)
    ct = ring.ct
    rng = random.Random(20240 + rank)
    for _ in range(10):
        a, b, c = ({rng.randrange(len(ct)): 1} for _ in range(3))
        assert cup(ring, a, b) == cup(ring, b, a)
        assert cup(ring, cup(ring, a, b), c) == cup(ring, a, cup(ring, b, c))


def test_engine_matches_reference_constants():
    # independent coordinates and seed normalisation must give identical numbers
    for (letter, rank, crossed) in [("C", 3, [3]), ("B", 2, [2]), ("G", 2, [1]),
                                    ("A", 3, [2]), ("A", 3, [1, 2, 3]), ("B", 3, [1]),
                                    ("D", 4, [1])]:
        ring = ring_for(letter, rank, crossed)
        ct = ring.ct
        R = ring.system
        ref = ReferenceBGG(R)
        for u in ct.elements:
            for v in ct.elements:
                target = ct.codim(u) + ct.codim(v)
                if target > ring.parabolic.dim_gp:
                    continue
                f = pmul(ref.rep(ct.dual[u]), ref.rep(ct.dual[v]))
                for w in map(ct.elements.__getitem__, ct.block[ring.parabolic.dim_gp - target]):
                    g = dict(f)
                    for i in reversed(ct.dual[w].word):
                        g = ref.ddiff(i - 1, g)
                    const = g.get(tuple(0 for _ in range(R.rank)), 0)
                    assert const == structure_constant(ring, u, v, w)


def _extract_one(eng, w, f):
    """Coefficient of the class of w in scale * f, one target at a time: the
    divided differences along w's word applied to the whole of f."""
    for i in reversed(w.word):
        if not f:
            return 0
        f = eng.realization.ddiff(i - 1, f)
    const = (0,) * eng.realization.nvars
    assert set(f) <= {const}
    return f.get(const, 0)


@pytest.mark.parametrize("letter,rank,crossed", [
    ("A", 4, [1, 2, 3, 4]), ("C", 4, [1, 4]), ("B", 3, [1, 2, 3]), ("G", 2, [1, 2]),
    ("D", 4, [1, 3, 4]), ("B", 4, [2]), ("D", 5, [1]),
])
def test_rows_match_per_target_extraction(letter, rank, crossed):
    """CupRing.row (packed product, memoised per-monomial extraction over a
    trie) against extracting every target from the unpacked tuple product."""
    ring = ring_for(letter, rank, crossed)
    ct, eng = ring.ct, ring.engine
    dim = ring.parabolic.dim_gp
    els = ct.elements
    for a, u in enumerate(els):
        for b in range(a, len(els)):
            v = els[b]
            target = ct.codim(u) + ct.codim(v)
            if target > dim:
                continue
            f = pmul(eng.rep(ct.dual[u]), eng.rep(ct.dual[v]))
            want = {}
            for w in map(ct.elements.__getitem__, ct.block[dim - target]):
                c, r = divmod(_extract_one(eng, ct.dual[w], f), eng.scale ** 2)
                assert r == 0 and c >= 0
                if c:
                    want[ct.index_of(w)] = c
            assert ring.row(a, b) == want


@pytest.mark.parametrize("letter,rank,scale", [
    ("A", 2, 1), ("A", 3, 1), ("A", 4, 1), ("B", 3, 8), ("B", 4, 16), ("B", 5, 32),
    ("C", 3, 1), ("C", 4, 1), ("C", 5, 1), ("D", 4, 8), ("D", 5, 16), ("G", 2, 2),
])
def test_seed_scale(letter, rank, scale):
    # scale = d_w0(seed): 1 for A and C, 2^n for B_n, 2^(n-1) for D_n, 2 for G2
    assert SchubertEngine(roots.build(letter, rank)).scale == scale


def test_invariant_seed_rejected(monkeypatch):
    # s_2 fixes x_1^4 on C2, so d_w0 sends it to 0
    monkeypatch.setattr(Realization, "seed", lambda self: {(4, 0): 1})
    with pytest.raises(ExactnessError):
        SchubertEngine(roots.build("C", 2))


def test_packing_width_too_small_rejected():
    ring = ring_for("C", 3, [3])
    ring.width -= 1
    with pytest.raises(ExactnessError):
        for i in range(len(ring.ct)):
            for j in range(len(ring.ct)):
                ring.row(i, j)


def _reflection_images(R, i0):
    """(images, alpha) of s_{i0+1} in the engine's coordinates, built from the
    signed-permutation (A-D) or substitution (G2) action: images[t] is the
    linear form that x_t goes to, alpha the simple root as a linear form."""
    letter, l = R.type_letter, R.rank
    n = l + 1 if letter == "A" else l
    images = [{t: 1} for t in range(n)]
    if letter == "G":
        alpha = {k: R.cartan[k][i0] for k in range(n) if R.cartan[k][i0]}
        images[i0] = psub({i0: 1}, alpha)
    elif i0 < l - 1 or letter == "A":
        alpha = {i0: 1, i0 + 1: -1}
        images[i0], images[i0 + 1] = {i0 + 1: 1}, {i0: 1}
    elif letter == "D":
        alpha = {l - 2: 1, l - 1: 1}
        images[l - 2], images[l - 1] = {l - 1: -1}, {l - 2: -1}
    else:
        alpha = {l - 1: 1 if letter == "B" else 2}
        images[l - 1] = {l - 1: -1}
    return images, alpha


def _substitute(f, images):
    n = len(images)
    out = {}
    for m, c in f.items():
        term = {tuple(0 for _ in range(n)): c}
        for t, e in enumerate(m):
            for _ in range(e):
                term = pmul_linear(term, images[t])
        out = padd(out, term)
    return out


@pytest.mark.parametrize("letter,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2),
])
def test_closed_form_divided_differences(letter, rank):
    """alpha_i d_i f = f - s_i f and d_i d_i f = 0 on seeded random polynomials
    up to degree 8, with s_i and alpha_i built here rather than from the rules."""
    R = roots.build(letter, rank)
    real = Realization(R)
    n = real.nvars
    rng = random.Random(f"{letter}{rank}")
    for i0 in range(rank):
        images, alpha = _reflection_images(R, i0)
        assert real.alpha_forms[i0] == alpha
        # s_i is the reflection in alpha_i: s_i(alpha_j) = alpha_j - <alpha_i^vee, alpha_j> alpha_i
        for j in range(rank):
            aj = _reflection_images(R, j)[1]
            image = {}
            for t, c in aj.items():
                image = padd(image, {k: c * ck for k, ck in images[t].items()})
            assert image == psub(aj, {t: R.cartan[i0][j] * c for t, c in alpha.items()})
        for _ in range(12):
            f = {}
            for _ in range(rng.randint(1, 8)):
                e = [0] * n
                for _ in range(rng.randint(0, 8)):
                    e[rng.randrange(n)] += 1
                f = padd(f, {tuple(e): rng.choice([-7, -3, -2, -1, 1, 2, 5, 9])})
            d = real.ddiff(i0, f)
            assert pmul_linear(d, alpha) == psub(f, _substitute(f, images))
            assert real.ddiff(i0, d) == {}


def test_lg36_triple_paper_value():
    from flagcalc import lr
    ring = ring_for("C", 3, [3])
    ct = ring.ct
    tup = [lr.lagrangian_bijection(ct, a) for a in [(1,), (2, 1), (2,)]]
    assert ring.top_coefficient(tup) == 2


def _schur_qfunctions(nvars, maxdeg):
    """Schur Q-functions via their generating series; independent LG oracle."""
    one = {tuple(0 for _ in range(nvars)): 1}

    def mul(f, g):
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    def add(f, g, s=1):
        out = dict(f)
        for m, c in g.items():
            out[m] = out.get(m, 0) + s * c
        return {m: c for m, c in out.items() if c}

    series = [one] + [dict() for _ in range(maxdeg)]
    for i in range(nvars):
        fac = [one] + [{tuple(k if j == i else 0 for j in range(nvars)): 2}
                       for k in range(1, maxdeg + 1)]
        new = [dict() for _ in range(maxdeg + 1)]
        for a in range(maxdeg + 1):
            for b in range(maxdeg + 1 - a):
                if series[a] and fac[b]:
                    new[a + b] = add(new[a + b], mul(series[a], fac[b]))
        series = new
    q1 = {r: series[r] for r in range(maxdeg + 1)}

    def qrow(a, b):
        if b == 0:
            return q1[a]
        out = mul(q1[a], q1[b])
        for i in range(1, b + 1):
            out = add(out, mul(q1[a + i], q1[b - i]), s=2 * (-1) ** i)
        return out

    def qfun(lam):
        lam = tuple(lam)
        if len(lam) == 0:
            return dict(one)
        if len(lam) == 1:
            return q1[lam[0]]
        if len(lam) == 2:
            return qrow(*lam)
        if len(lam) == 3:
            a, b, c = lam
            return add(add(mul(qrow(a, b), q1[c]), mul(qrow(a, c), q1[b]), s=-1),
                       mul(q1[a], qrow(b, c)))
        raise NotImplementedError

    def expand(f):
        f = dict(f)
        out = {}
        while f:
            best = max(m for m in f if tuple(sorted(m, reverse=True)) == m)
            lam = tuple(x for x in best if x)
            c = f[best]
            q = qfun(lam)
            lead = q[best]
            assert c % lead == 0
            out[lam] = c // lead
            f = add(f, q, s=-(c // lead))
        return out

    return qfun, mul, expand


def test_lagrangian_constants_match_qfunction_oracle():
    """Type-C cup products agree with Schur Q-function multiplication.

    In particular the LG(5,10) triple ((3,1),(3,2),(4,2)) has top coefficient
    6 = 2 * f^{(5,3,1)}_{(3,1),(3,2)}; the value 4 recorded in the reference
    examples is not attainable for these cells (see the examples command).
    """
    from flagcalc import lr
    qfun, mul, expand = _schur_qfunctions(6, 10)
    exp = expand(mul(qfun((3, 1)), qfun((3, 2))))
    assert exp[(5, 3, 1)] == 6

    ring = ring_for("C", 5, [5])
    ct = ring.ct
    b = {a: lr.lagrangian_bijection(ct, a) for a in [(3, 1), (3, 2), (4, 2)]}
    assert ring.top_coefficient([b[(3, 1)], b[(3, 2)], b[(4, 2)]]) == 6
    # duals complement inside the staircase: (4,2) pairs with (5,3,1)
    assert lr.lagrangian_partition(ct, ct.dual[b[(4, 2)]]) == (5, 3, 1)

    # a broader row: sigma_{21} * sigma_{31} on LG(4,8) matches the oracle
    ring4 = ring_for("C", 4, [4])
    ct4 = ring4.ct
    row = ring4.row(ct4.index_of(lr.lagrangian_bijection(ct4, (2, 1))),
                    ct4.index_of(lr.lagrangian_bijection(ct4, (3, 1))))
    got = {lr.lagrangian_partition(ct4, ct4.elements[k]): c for k, c in row.items()}
    exp = expand(mul(qfun((2, 1)), qfun((3, 1))))
    want = {lam: c for lam, c in exp.items() if not lam or lam[0] <= 4}
    assert got == want


@pytest.mark.parametrize("letter,rank,cross,cells", [
    ("A", 7, 4, 70), ("B", 5, 1, 10), ("D", 5, 1, 10), ("D", 5, 5, 16),
])
def test_rank_boundary_rings(letter, rank, cross, cells):
    ring = ring_for(letter, rank, [cross])
    ct = ring.ct
    assert len(ct) == cells
    e = ct.elements[0]
    for u in ct.elements:
        assert structure_constant(ring, u, ct.dual[u], e) == 1


def test_lg_degree_matches_pieri_chain_count():
    from functools import lru_cache
    from flagcalc import lr
    ring = ring_for("C", 4, [4])
    ct = ring.ct
    sig1 = lr.lagrangian_bijection(ct, (1,))
    deg = ring.top_coefficient([sig1] * 10)

    def boxes(a):
        out = {}
        a = list(a)
        for i in range(len(a)):
            b = a.copy()
            b[i] += 1
            if b[i] <= 4 and (i == 0 or b[i] < b[i - 1]):
                out[tuple(b)] = 2
        if not a or a[-1] > 1:
            out[tuple(a + [1])] = 1
        return out

    @lru_cache(maxsize=None)
    def chains(a):
        if sum(a) == 10:
            return 1
        return sum(m * chains(b) for b, m in boxes(list(a)).items())

    assert deg == chains(())


def _right_ascents(wg):
    """(w, i0, w s_{i0+1}) over W with ell(w s_i) > ell(w), ascents found by
    length rather than by the key the climb reads."""
    gens = [from_word(wg, (i,)) for i in range(1, wg.system.rank + 1)]
    for w in all_elements(wg):
        for i0, s in enumerate(gens):
            ws = wg.mul(w, s)
            if ws.length > w.length:
                yield w, i0, ws


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_table_climb_is_path_independent(letter, rank):
    """d_i rep(w s_i) = rep(w) for every w in W and every right ascent i: the
    climb on inverse keys reaches each entry along one path, so a wrong key
    or a wrong ascent test breaks the relation along the others."""
    R = roots.build(letter, rank)
    wg = group(R)
    eng = SchubertEngine(R)
    for w, i0, ws in _right_ascents(wg):
        assert eng.realization.ddiff(i0, eng.rep(ws)) == eng.rep(w)
    assert eng.rep(wg.identity) == {(0,) * eng.realization.nvars: eng.scale}


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_reference_climb_is_path_independent(letter, rank):
    """The same relation on ReferenceBGG, whose table fills with the same
    climb (D4 is left to the engine test: its reference table takes seconds
    to check)."""
    R = roots.build(letter, rank)
    wg = group(R)
    ref = ReferenceBGG(R)
    for w, i0, ws in _right_ascents(wg):
        assert ref.ddiff(i0, ref.rep(ws)) == ref.rep(w)
    assert ref.rep(wg.identity) == {(0,) * rank: 1}


def test_table_climb_is_bounded(monkeypatch):
    """Keys reflected by the wrong generator never reach the table: the climb
    raises once it passes |R+| steps instead of climbing forever."""
    R = roots.build("B", 3)
    eng = SchubertEngine(R)
    wg = eng.wg
    top, reflect = wg.longest().inv, wg._reflect
    monkeypatch.setattr(wg, "_reflect", lambda f, i0: reflect(f, (i0 + 1) % R.rank))
    eng._table = {top: eng.realization.seed()}
    with pytest.raises(ExactnessError, match="climb"):
        eng.rep(wg.identity)


def _descending_seed(self):
    """The B-D seed before it was reversed: x^(2n-1, ..., 3, 1) for B_n and
    C_n, x^(2n-2, ..., 2, 0) for D_n, coefficient 1."""
    n = self.nvars
    return {tuple(range(2 * n - (2 if self.system.type_letter == "D" else 1), -1, -2)): 1}


@pytest.mark.parametrize("letter,rank,crossed", [
    ("C", 5, [5]), ("C", 4, [1, 4]), ("C", 4, [4]), ("B", 3, [1, 2, 3]), ("B", 4, [2]),
    ("D", 4, [1, 3, 4]), ("D", 5, [1]),
])
def test_ascending_seed_keeps_rows(letter, rank, crossed, monkeypatch):
    """Every row with codim sum <= dim G/P is the same from the ascending seed
    and from the descending one it is a W-translate of."""
    def rows(ring):
        ct, dim = ring.ct, ring.parabolic.dim_gp
        els = ct.elements
        return {(a, b): ring.row(a, b) for a in range(len(els)) for b in range(a, len(els))
                if ct.codim(els[a]) + ct.codim(els[b]) <= dim}

    ring = ring_for(letter, rank, crossed)
    new = rows(ring)
    monkeypatch.setattr(Realization, "seed", _descending_seed)
    old_ring = ring_for(letter, rank, crossed)
    assert old_ring.engine.scale == ring.engine.scale
    w0 = group(ring.system).longest()
    assert old_ring.engine.rep(w0) != ring.engine.rep(w0)
    assert rows(old_ring) == new
