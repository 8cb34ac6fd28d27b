from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc import roots
from flagcalc.oracle import root_of_fund
from flagcalc.roots import ExactnessError, Memo
from flagcalc.schubert import CupRing
from flagcalc.weyl import group, minimal_coset_reps

# |R+| of every supported group, by the type formula
_COUNT_FORMULA = {"A": lambda l: l * (l + 1) // 2, "B": lambda l: l * l, "C": lambda l: l * l,
                  "D": lambda l: l * (l - 1), "G": lambda l: 6}
CLASSICAL_COUNTS = {(letter, rank): _COUNT_FORMULA[letter](rank)
                    for letter, ranks in roots.SUPPORTED_RANKS.items() for rank in ranks}


@pytest.mark.parametrize("letter,rank", sorted(CLASSICAL_COUNTS))
def test_positive_root_counts(letter, rank):
    R = roots.build(letter, rank)
    assert len(R.positive_roots) == CLASSICAL_COUNTS[(letter, rank)]


@pytest.mark.parametrize("letter,rank", sorted(CLASSICAL_COUNTS))
def test_cartan_shape_and_sum_rule(letter, rank):
    R = roots.build(letter, rank)
    for i in range(R.rank):
        assert R.cartan[i][i] == 2
        assert all(R.cartan[i][j] <= 0 for j in range(R.rank) if j != i)
    # sum of positive roots = 2 rho, coordinate-wise in the simple-root basis
    total = [0] * R.rank
    for b in R.positive_roots:
        for j in range(R.rank):
            total[j] += b[j]
    two_rho = root_of_fund(R, tuple(2 for _ in range(R.rank)))
    assert tuple(total) == tuple(int(x) for x in two_rho)


@pytest.mark.parametrize("letter,rank", sorted(CLASSICAL_COUNTS))
def test_highest_root_is_maximal(letter, rank):
    R = roots.build(letter, rank)
    theta = R.theta
    assert theta is not None
    for i in range(R.rank):
        up = list(theta)
        up[i] += 1
        assert not R.is_positive_root(tuple(up))  # up > 0, so not a root at all
    # rho pairs to 1 with every simple coroot by construction
    assert R.rho == (1,) * R.rank


def test_root_data_of_every_node_subset():
    """On every node subset of every supported group (426 systems): the
    subsystem's positive roots are the ambient ones supported on those nodes,
    restricted and sorted by (height, tuple); its symmetrizers are positive
    and symmetrize its Cartan matrix; the parabolic with that Levi has |R_L+|
    Levi roots and rho^L pairs to 1 with each Levi simple coroot; and the
    longest element of W_L has length |R_L+| and sends every Levi simple root
    negative."""
    assert len(CLASSICAL_COUNTS) == 18
    systems = 0
    for letter, rank in CLASSICAL_COUNTS:
        R = roots.build(letter, rank)
        wg = group(R)
        for k in range(rank + 1):
            for nodes in combinations(range(1, rank + 1), k):
                sub = R.sub_system(nodes)
                levi = [b for b in R.positive_roots
                        if all(b[j - 1] == 0 for j in range(1, rank + 1) if j not in nodes)]
                assert list(sub.positive_roots) == sorted(
                    (tuple(b[i - 1] for i in nodes) for b in levi), key=lambda r: (sum(r), r))
                d, a = sub.symmetrizers, sub.cartan
                assert all(x > 0 for x in d)
                assert all(d[i] * a[i][j] == d[j] * a[j][i] for i, j in product(range(k), repeat=2))
                P = roots.parabolic(R, levi_simple=nodes)
                assert list(P.levi_positive_roots) == levi
                assert all(P.rho_levi[i - 1] == 1 for i in nodes)
                w = wg.longest(nodes)
                assert w.length == len(levi)
                for i in nodes:
                    image = wg.act_root(w, tuple(int(j == i) for j in range(1, rank + 1)))
                    assert any(image) and all(x <= 0 for x in image)
                systems += 1
    assert systems == 426


def test_build_examples():
    A2 = roots.build("A", 2)
    assert len(A2.positive_roots) == 3 and A2.theta == (1, 1)
    G2 = roots.build("G", 2)
    assert len(G2.positive_roots) == 6 and G2.theta == (3, 2)
    C3 = roots.build("C", 3)
    assert len(C3.positive_roots) == 9 and C3.theta == (2, 2, 1)


@pytest.mark.parametrize("letter,rank", [("A", 0), ("A", 8), ("B", 1), ("B", 6),
                                         ("C", 1), ("D", 3), ("D", 6), ("G", 3),
                                         ("E", 6), ("F", 4)])
def test_build_rejects_unsupported(letter, rank):
    with pytest.raises(ValueError):
        roots.build(letter, rank)


def test_eval_at_x_basics():
    A2 = roots.build("A", 2)
    for i in range(1, 3):
        for j in range(1, 3):
            alpha = A2.fund_of_root(tuple(int(k == i - 1) for k in range(2)))
            assert root_of_fund(A2, alpha)[j - 1] == (1 if i == j else 0)
    assert root_of_fund(A2, A2.rho)[0] == 1  # rho = alpha1 + alpha2 in A2

    G2 = roots.build("G", 2)
    P = roots.parabolic(G2, crossed=[1])
    assert P.root_at_xp(root_of_fund(G2, G2.fund_of_root(G2.theta))) == 3

    C3 = roots.build("C", 3)
    P2 = roots.parabolic(C3, crossed=[2])
    assert P2.root_at_xp(root_of_fund(C3, C3.fund_of_root(C3.theta))) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(-9, 9), st.integers(-9, 9),
       st.integers(1, 4), st.integers(-5, 5), st.integers(-5, 5))
def test_eval_at_x_linear(a, b, den, l1, l2):
    R = roots.build("B", 2)
    ar, br = Fraction(a, den), Fraction(b, den)
    lam = (Fraction(l1), Fraction(l2))
    mu = (Fraction(l2, den), Fraction(l1))
    for j in (1, 2):
        combo = tuple(ar * x + br * y for x, y in zip(lam, mu))
        at_x = lambda weight: root_of_fund(R, weight)[j - 1]  # alpha_i(x_j) = delta_ij
        assert at_x(combo) == ar * at_x(lam) + br * at_x(mu)


def test_rho_levi():
    C3 = roots.build("C", 3)

    def rho_levi(levi):
        return roots.parabolic(C3, levi_simple=levi).rho_levi
    assert rho_levi(()) == (0, 0, 0)
    assert rho_levi((1, 2, 3)) == C3.rho
    half = rho_levi((1, 3))
    assert tuple(root_of_fund(C3, half)) == (Fraction(1, 2), 0, Fraction(1, 2))
    # pairing 1 on the Levi nodes, supported on Delta(P) in the root basis
    for i in (1, 3):
        assert half[i - 1] == 1


@pytest.mark.parametrize("letter,rank", sorted(CLASSICAL_COUNTS))
def test_parabolic_dimensions(letter, rank):
    R = roots.build(letter, rank)
    full = roots.parabolic(R, levi_simple=range(1, rank + 1))
    assert full.dim_gp == 0
    borel = roots.parabolic(R, levi_simple=())
    assert borel.dim_gp == len(R.positive_roots)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("A", 6), ("B", 3), ("B", 5),
                                         ("C", 3), ("C", 5), ("D", 4), ("D", 5)])
def test_mo_bounds_classical_maximal(letter, rank):
    R = roots.build(letter, rank)
    for cross in range(1, rank + 1):
        P = roots.parabolic(R, crossed=[cross])
        assert 1 <= P.m_o <= 2


def test_basis_roundtrip():
    for (letter, rank) in [("A", 3), ("C", 3), ("G", 2), ("D", 4)]:
        R = roots.build(letter, rank)
        w = tuple(Fraction(k + 1, 3) for k in range(rank))
        back = R.fund_of_root(root_of_fund(R, w))
        assert tuple(Fraction(x) for x in back) == w


def test_eval_at_xp_on_simple_roots():
    C3 = roots.build("C", 3)
    P = roots.parabolic(C3, crossed=[2])
    for i in range(1, 4):
        alpha = C3.fund_of_root(tuple(int(k == i - 1) for k in range(3)))
        assert P.root_at_xp(root_of_fund(C3, alpha)) == (0 if i in P.levi_simple else 1)
    assert P.m_o >= 1
    for (letter, rank) in [("A", 3), ("B", 3), ("G", 2)]:
        R = roots.build(letter, rank)
        for cross in range(1, rank + 1):
            assert roots.parabolic(R, crossed=[cross]).m_o >= 1


@settings(max_examples=60)
@given(st.sampled_from([("A", 3), ("B", 3), ("C", 4), ("D", 4), ("G", 2)]),
       st.lists(st.integers(-6, 6), min_size=4, max_size=4))
def test_lattice_coords_match_rational_inverse(group, weight):
    R = roots.build(*group)
    weight = tuple(weight[:R.rank])
    exact = root_of_fund(R, weight)
    got = R.lattice_coords(weight)
    if all(Fraction(x).denominator == 1 for x in exact):
        assert got == tuple(int(x) for x in exact)
    else:
        assert got is None


# -- the self-filling memo -------------------------------------------------------

def test_memo_computes_each_key_once():
    calls = []
    memo = Memo(lambda key: calls.append(key) or key * 2)
    assert [memo[3], memo[3], memo[4], memo[3]] == [6, 6, 8, 6]
    assert calls == [3, 4] and memo == {3: 6, 4: 8}


def test_memo_reads_that_never_compute():
    """get, `in`, setdefault and dict(memo) read or store without calling fn,
    which is what CupRing.set_row and known_rows rely on."""
    def fn(key):
        raise AssertionError(f"fn called for {key!r}")
    memo = Memo(fn)
    assert memo.get(1) is None and 1 not in memo
    assert memo.setdefault(1, "seeded") == "seeded" == memo.setdefault(1, "again")
    assert dict(memo) == {1: "seeded"} and type(dict(memo)) is dict
    assert memo[1] == "seeded"


def test_memo_leaves_a_failed_key_absent():
    calls = []

    def fn(key):
        calls.append(key)
        raise ValueError(key)
    memo = Memo(fn)
    for _ in range(2):
        with pytest.raises(ValueError):
            memo["k"]
    assert calls == ["k", "k"] and "k" not in memo


def test_a_failed_row_is_computed_again(monkeypatch):
    """A row whose extraction raises ExactnessError stores neither the row
    nor the extraction vector, and the next read raises again."""
    R = roots.build("A", 3)
    ring = CupRing(minimal_coset_reps(R, roots.parabolic(R, crossed=(2,))))
    i = ring.ct.block[ring.parabolic.dim_gp - 1][0]
    calls = []

    def broken(trie, m):
        calls.append(m)
        raise ExactnessError("forced")
    monkeypatch.setattr(ring.engine, "extract", broken)
    for _ in range(2):
        with pytest.raises(ExactnessError):
            ring.row(i, i)
    assert len(calls) == 2 and not ring.known_rows() and not ring._vectors
    monkeypatch.undo()
    assert ring.row(i, i) == ring.row(i, i) and len(ring.known_rows()) == 1
