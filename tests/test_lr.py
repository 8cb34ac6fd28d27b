import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc import lr, oracle, roots
from flagcalc.oracle import grassmannian_bijection
from flagcalc.schubert import CupRing
from flagcalc.weyl import minimal_coset_reps


def conjugate(parts):
    """The transposed partition."""
    p = lr.normalize(parts)
    return tuple(sum(1 for x in p if x > j) for j in range(p[0] if p else 0))


def complement(parts, rows, cols):
    """(cols - p_rows, ..., cols - p_1) inside the rows x cols box."""
    p = lr.normalize(parts)
    if len(p) > rows or (p and p[0] > cols):
        raise ValueError(f"{parts!r} does not fit in a {rows}x{cols} box")
    full = p + (0,) * (rows - len(p))
    return lr.normalize(tuple(cols - x for x in reversed(full)))


def strict_partitions_max(l):
    """All strictly decreasing partitions with parts <= l."""
    return sorted((combo for r in range(l + 1) for combo in combinations(range(l, 0, -1), r)),
                  key=lambda p: (sum(p), p))


def gl_dimension(lam, r):
    """dim of the irreducible GL(r) representation with highest weight lam, by
    Weyl's product over the pairs i < j of (lam_i - lam_j + j - i) / (j - i)."""
    lam = lr.normalize(lam)
    if len(lam) > r:
        raise ValueError(f"{lam!r} has more than {r} parts")
    full = lam + (0,) * (r - len(lam))
    num = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            num *= Fraction(full[i] - full[j] + j - i, j - i)
    assert num.denominator == 1, num
    return int(num)


partitions_3x4 = st.builds(
    lambda a, b, c: tuple(sorted((a, b, c), reverse=True)),
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
)


def test_pieri_and_trivial_cases():
    assert lr.lr_coefficient((1,), (1,), (2,)) == 1
    assert lr.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr.lr_coefficient((1,), (1,), (3,)) == 0
    assert lr.lr_coefficient((2, 1), (), (2, 1)) == 1
    assert lr.lr_coefficient((2, 1), (), (2,)) == 0
    assert lr.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


@settings(max_examples=60, deadline=None)
@given(partitions_3x4, partitions_3x4, partitions_3x4)
def test_lr_symmetries(lam, mu, nu):
    c = lr.lr_coefficient(lam, mu, nu)
    assert c == lr.lr_coefficient(mu, lam, nu)
    assert c == lr.lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu))


def test_dimension_conservation():
    rng = random.Random(5)
    box = lr.partitions_in_box(3, 3)
    for _ in range(8):
        lam, mu = rng.choice(box), rng.choice(box)
        total = 0
        for nu in lr.partitions_in_box(3, 6):
            c = lr.lr_coefficient(lam, mu, nu)
            if c:
                total += c * gl_dimension(nu, 3)
        assert total == gl_dimension(lam, 3) * gl_dimension(mu, 3)


def test_partition_utilities():
    assert lr.normalize((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(ValueError):
        lr.normalize((1, 2))
    assert conjugate((3, 1)) == (2, 1, 1)
    assert complement((1,), 2, 2) == (2, 1)
    assert len(lr.partitions_in_box(2, 2)) == 6
    assert len(lr.partitions_in_box(3, 4)) == 35
    assert len(strict_partitions_max(5)) == 32


def test_box_count_matches_coset_count():
    for (rank, cross) in [(3, 2), (4, 2), (5, 3), (6, 3)]:
        R = roots.build("A", rank)
        P = roots.parabolic(R, crossed=[cross])
        ct = minimal_coset_reps(R, P)
        r, k = cross, rank + 1 - cross
        assert len(lr.partitions_in_box(r, k)) == len(ct)


def test_grassmannian_bijection_endpoints():
    R = roots.build("A", 3)
    P = roots.parabolic(R, crossed=[2])
    ct = minimal_coset_reps(R, P)
    assert grassmannian_bijection(ct, ()) == ct.longest
    assert grassmannian_bijection(ct, (2, 2)) == ct.elements[0]
    for lam in lr.partitions_in_box(2, 2):
        w = grassmannian_bijection(ct, lam)
        assert ct.codim(w) == sum(lam)
        assert lr.grassmannian_partition(ct, w) == lam
    with pytest.raises(ValueError):
        grassmannian_bijection(ct, (3,))


@pytest.mark.parametrize("rank", range(1, 8))
def test_grassmannian_partition_matches_box_search(rank):
    """On every Grassmannian of A1 to A7, the partition read off the one-line
    notation is the one whose cell the box search finds, on every element."""
    R = roots.build("A", rank)
    for r in range(1, rank + 1):
        ct = minimal_coset_reps(R, roots.parabolic(R, crossed=[r]))
        box = {grassmannian_bijection(ct, lam): lam
               for lam in lr.partitions_in_box(r, rank + 1 - r)}
        assert len(box) == len(ct)
        for w in ct.elements:
            assert lr.grassmannian_partition(ct, w) == box[w]


@pytest.mark.parametrize("rank,cross", [(3, 2), (4, 2), (5, 2)])
def test_transported_constants_equal_lr(rank, cross):
    R = roots.build("A", rank)
    P = roots.parabolic(R, crossed=[cross])
    ring = CupRing(minimal_coset_reps(R, P))
    ct = ring.ct
    r, k = cross, rank + 1 - cross
    box = lr.partitions_in_box(r, k)
    bij = {lam: grassmannian_bijection(ct, lam) for lam in box}
    for lam in box:
        for mu in box:
            for nu in box:
                assert (oracle.structure_constant(ring, bij[lam], bij[mu], bij[nu])
                        == lr.lr_coefficient(lam, mu, nu))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_lagrangian_bijection(rank):
    """On LG(l, 2l) the strict partitions with parts <= l and W^P are in
    bijection both ways, on every element."""
    R = roots.build("C", rank)
    P = roots.parabolic(R, crossed=[rank])
    ct = minimal_coset_reps(R, P)
    strict = strict_partitions_max(rank)
    assert len(strict) == len(ct) == 2 ** rank
    assert lr.lagrangian_bijection(ct, ()) == ct.longest
    images = set()
    for a in strict:
        w = lr.lagrangian_bijection(ct, a)
        assert ct.codim(w) == sum(a)
        assert lr.lagrangian_partition(ct, w) == a
        images.add(w)
    assert images == set(ct.elements)
    with pytest.raises(ValueError):
        lr.lagrangian_cell(ct, (2, 2))
    with pytest.raises(ValueError):
        lr.lagrangian_cell(ct, (rank + 1,))


def test_fulton_check_basic():
    rep = lr.fulton_check((1,), (1,), (2,), 4)
    assert rep["applicable"] and rep["scaled"] == {2: 1, 3: 1, 4: 1}
    rep2 = lr.fulton_check((2, 1), (2, 1), (3, 2, 1), 3)
    assert rep2["c"] == 2 and not rep2["applicable"]


def test_fulton_small_sweep():
    rep = lr.fulton_sweep(2, 2, 3)
    assert rep["checked"] > 0 and not rep["violations"]


@pytest.mark.parametrize("rows,cols", [(-1, 2), (2, -1), (-1, -1)])
def test_negative_box_side_rejected(rows, cols):
    """A negative side is refused, on either side, by the box and the sweep
    (it used to recurse until RecursionError, or give [()] for cols)."""
    with pytest.raises(ValueError, match="box sides must be at least 0"):
        lr.partitions_in_box(rows, cols)
    with pytest.raises(ValueError, match="box sides must be at least 0"):
        lr.fulton_sweep(rows, cols, 2)
    assert lr.partitions_in_box(0, 0) == lr.partitions_in_box(0, 3) == [()]
