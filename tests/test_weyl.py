import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc import roots, weyl_order
from flagcalc.weyl import group, minimal_coset_reps


def ctx(letter, rank, crossed):
    R = roots.build(letter, rank)
    P = roots.parabolic(R, crossed=crossed)
    return R, P, minimal_coset_reps(R, P)


def test_from_word_basics():
    wg = group(roots.build("A", 2))
    assert wg.from_word(()) == wg.identity
    assert wg.from_word((1, 1)) == wg.identity
    C3 = group(roots.build("C", 3))
    w = C3.from_word((1, 3, 2, 1, 3, 2))
    assert w.length == 6
    # the stored word is reduced and reproduces the element
    assert C3.from_word(w.word) == w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=10))
def test_word_length_and_inversions(word):
    wg = group(roots.build("B", 3))
    w = wg.from_word(word)
    inv = wg.inversion_set(w)
    assert len(inv) == w.length == len(w.word)
    # sum of inversions = rho - w^{-1} rho
    R = wg.system
    total = [0] * 3
    for b in inv:
        for j in range(3):
            total[j] += b[j]
    diff = R.root_of_fund(tuple(R.rho[j] - wg.inv_act_weight(w, R.rho)[j] for j in range(3)))
    assert tuple(total) == tuple(int(x) for x in diff)


def test_inversion_extremes():
    wg = group(roots.build("C", 3))
    assert wg.inversion_set(wg.identity) == frozenset()
    s1 = wg.from_word((1,))
    assert wg.inversion_set(s1) == frozenset({(1, 0, 0)})
    w0 = wg.longest()
    assert wg.inversion_set(w0) == frozenset(wg.system.positive_roots)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_group_order_formula(letter, rank):
    R = roots.build(letter, rank)
    assert len(group(R).all_elements()) == weyl_order(R)


@pytest.mark.parametrize("letter,rank,crossed,size", [
    ("A", 1, [1], 2),
    ("C", 3, [3], 8),
    ("C", 5, [5], 32),
    ("C", 3, [2], 12),
])
def test_coset_sizes(letter, rank, crossed, size):
    R, P, ct = ctx(letter, rank, crossed)
    assert len(ct) == size
    # |W^P| * |W_P| = |W|
    wp_order = 1
    # enumerate the Levi Weyl group directly
    sub = R.sub_system(sorted(P.levi_simple))
    if sub.rank:
        wp_order = len(group(sub).all_elements())
    assert len(ct) * wp_order == weyl_order(R)


def test_lagrangian_codim_generating_function():
    R, P, ct = ctx("C", 5, [5])
    from collections import Counter
    cnt = Counter(w.length for w in ct.elements)
    # prod (1+q^i), i = 1..5
    poly = [1]
    for i in range(1, 6):
        new = poly + [0] * i
        for k, c in enumerate(poly):
            new[k + i] += c
        poly = new
    assert [cnt.get(k, 0) for k in range(len(poly))] == poly


def test_minimality_criterion():
    R, P, ct = ctx("C", 3, [2])
    for w in ct.elements:
        for i in P.levi_simple:
            alpha = tuple(int(t == i - 1) for t in range(R.rank))
            img = ct.wg.act_root(w, alpha)
            assert all(x >= 0 for x in img)


def test_longest_elements():
    A1 = group(roots.build("A", 1))
    assert A1.longest().word == (1,)
    A2 = group(roots.build("A", 2))
    assert A2.longest().length == 3
    C3 = group(roots.build("C", 3))
    wp = C3.longest([1, 3])
    assert wp.length == 2 and sorted(wp.word) == [1, 3]
    for wg in (A2, C3):
        w0 = wg.longest()
        assert wg.mul(w0, w0) == wg.identity


def test_dual_rep():
    R, P, ct = ctx("A", 2, [1])
    e = ct.elements[0]
    assert ct.dual[e] == ct.longest
    for w in ct.elements:
        assert ct.dual[ct.dual[w]] == w
        assert ct.dual[w].length == P.dim_gp - w.length
    # Gr(2,4): the dimension-1 cell pairs with the dimension-3 cell
    from flagcalc import lr
    R4, P4, ct4 = ctx("A", 3, [2])
    assert ct4.dual[lr.grassmannian_cell(ct4, (1,))] == lr.grassmannian_cell(ct4, (2, 1))


def test_dual_rep_rejects_non_members():
    R, P, ct = ctx("C", 3, [3])
    with pytest.raises(ValueError):
        ct.canonical(ct.wg.from_word((1,)))  # a Levi reflection is not minimal


@pytest.mark.parametrize("letter,rank,crossed", [("C", 3, [3]), ("C", 3, [2]),
                                                 ("B", 3, [2]), ("G", 2, [1])])
def test_covers(letter, rank, crossed):
    R, P, ct = ctx(letter, rank, crossed)
    wg = ct.wg
    refl = wg.reflections
    for (v, w, beta) in ct.covers:
        assert w.length == v.length + 1
        assert beta in refl
        assert wg.mul(refl[beta], v) == w
    # completeness: covers = adjacent-length Bruhat-comparable pairs
    pairs = {(v, w) for (v, w, _) in ct.covers}
    for v in ct.elements:
        for w in ct.elements:
            if w.length == v.length + 1:
                assert ((v, w) in pairs) == wg.bruhat_le(v, w)


def test_word_need_not_be_reduced():
    wg = group(roots.build("C", 3))
    w = wg.from_word((1, 1, 2, 2, 3))
    assert w == wg.from_word((3,))
    assert w.length == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=8))
def test_inversions_of_w0w_complement(word):
    wg = group(roots.build("C", 3))
    R = wg.system
    w = wg.from_word(word)
    w0w = wg.mul(wg.longest(), w)
    # {b > 0 : w b > 0} is exactly the inversion set of w0 w
    kept = frozenset(b for b in R.positive_roots if b not in wg.inversion_set(w))
    assert wg.inversion_set(w0w) == kept


# -- the w(rho) representation against reflection matrices built here --------

def _matmul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
                 for i in range(len(a)))


def _reflection_matrices(cartan):
    """s_i on fundamental and on simple-root coordinates, from the Cartan matrix
    a[i][j] = <alpha_j, alpha_i^vee>: s_i f = f - f_i alpha_i and
    s_i beta = beta - <beta, alpha_i^vee> alpha_i."""
    n = len(cartan)
    fund = [tuple(tuple(int(k == j) - cartan[k][i] * int(j == i) for j in range(n))
                  for k in range(n)) for i in range(n)]
    root = [tuple(tuple(int(k == j) - int(k == i) * cartan[i][j] for j in range(n))
                  for k in range(n)) for i in range(n)]
    return fund, root


def _word_matrix(gens, word):
    n = len(gens[0])
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        m = _matmul(m, gens[i - 1])
    return m


def _lexmin_reduced_words(fund):
    """{matrix on fundamental coordinates: lexicographically smallest reduced
    word}, enumerating the words of each length in lexicographic order.  A word
    of length L is reduced iff its element was not reached by a shorter word;
    every reduced word extends a reduced word one letter shorter."""
    n = len(fund)
    eye = _word_matrix(fund, ())
    best = {eye: ()}
    level = [((), eye)]
    while level:
        nxt = []
        for word, m in level:
            for i in range(1, n + 1):
                mm = _matmul(m, fund[i - 1])
                if mm not in best:
                    best[mm] = word + (i,)
                if best[mm] and len(best[mm]) == len(word) + 1:
                    nxt.append((word + (i,), mm))
        level = nxt
    return best


def _columns(m):
    return [tuple(row[j] for row in m) for j in range(len(m))]


REPRESENTATION_GROUPS = {
    "A3": lambda: roots.build("A", 3),
    "B3": lambda: roots.build("B", 3),
    "C3": lambda: roots.build("C", 3),
    "D4": lambda: roots.build("D", 4),
    "G2": lambda: roots.build("G", 2),
    "B4|levi[1,3,4]": lambda: roots.build("B", 4).sub_system([1, 3, 4]),  # A1 x B2
}


@pytest.mark.parametrize("name", sorted(REPRESENTATION_GROUPS))
def test_words_and_actions_match_reflection_matrices(name):
    R = REPRESENTATION_GROUPS[name]()
    wg = group(R)
    fund, root = _reflection_matrices(R.cartan)
    lexmin = _lexmin_reduced_words(fund)
    elements = wg.all_elements()
    assert len(elements) == len(lexmin)
    n = R.rank
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    for w in elements:
        mf = _word_matrix(fund, w.word)
        assert w.word == lexmin[mf] and w.length == len(w.word)
        mfi = _word_matrix(fund, tuple(reversed(w.word)))
        mr = _word_matrix(root, w.word)
        assert [wg.act_weight(w, e) for e in units] == _columns(mf)
        assert [wg.inv_act_weight(w, e) for e in units] == _columns(mfi)
        assert [wg.act_root(w, e) for e in units] == _columns(mr)


@pytest.mark.parametrize("name", sorted(REPRESENTATION_GROUPS))
def test_group_law(name):
    R = REPRESENTATION_GROUPS[name]()
    wg = group(R)
    fund, _ = _reflection_matrices(R.cartan)
    elements = wg.all_elements()
    n = R.rank
    for w in elements:
        assert wg.mul(w, wg.inverse(w)) == wg.identity
        assert wg.inverse(wg.inverse(w)) == w
        for i in range(1, n + 1):
            # non-reduced words: a cancelling pair anywhere, or a left descent
            assert wg.from_word(w.word + (i, i)) == w
            assert wg.from_word((i, i) + w.word) == w
            mid = len(w.word) // 2
            assert wg.from_word(w.word[:mid] + (i, i) + w.word[mid:]) == w
            u = wg.from_word((i,) + w.word)
            assert _word_matrix(fund, u.word) == _matmul(fund[i - 1], _word_matrix(fund, w.word))
            assert u.length == w.length + (1 if wg.ascends_left(w, i) else -1)
    rng = random.Random(20100423)
    for _ in range(300):
        a, b, c = (rng.choice(elements) for _ in range(3))
        ab = wg.mul(a, b)
        assert _word_matrix(fund, ab.word) == _matmul(_word_matrix(fund, a.word),
                                                      _word_matrix(fund, b.word))
        assert wg.mul(ab, c) == wg.mul(a, wg.mul(b, c))
