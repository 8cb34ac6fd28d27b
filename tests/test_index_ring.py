"""The rings on coset-table indices: row(i, j) against the element-level API,
the reference BGG constants and the --trace 1 tooling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from cupfold import cup

import flagcalc
from flagcalc.cli import main
from flagcalc.context import flag_context
from flagcalc.oracle import ReferenceBGG, from_word, pmul, structure_constant

BATTERIES = [("A", 4, (1, 2, 3, 4)), ("C", 4, (1, 4)), ("B", 3, (1, 2, 3)), ("G", 2, (1, 2)),
             ("D", 4, (2,))]
# the parabolics test_engine_matches_reference_constants compares on
REFERENCE = [("C", 3, (3,)), ("B", 2, (2,)), ("G", 2, (1,)), ("A", 3, (2,)),
             ("A", 3, (1, 2, 3)), ("B", 3, (1,)), ("D", 4, (1,))]


def _elements(ct, vec):
    return {ct.elements[k]: c for k, c in vec.items()}


@pytest.mark.parametrize("letter,rank,crossed", BATTERIES)
def test_index_rows_match_element_api(letter, rank, crossed):
    """On every pair of indices, ordinary and deformed: row(i, j) is the
    object row(j, i) returns, the fold of the two classes is that row, and
    product and structure_constant on elements are that row mapped through
    ct.elements."""
    cx = flag_context(letter, rank, crossed)
    ct = cx.ct
    els = ct.elements
    dim = cx.parabolic.dim_gp
    for ring in (cx.ring, cx.deformed):
        for i, u in enumerate(els):
            for j in range(i, len(els)):
                v = els[j]
                row = ring.row(i, j)
                assert ring.row(j, i) is row
                assert all(isinstance(k, int) and c > 0 for k, c in row.items())
                assert cup(ring, {i: 1}, {j: 1}) == row
                assert ring.product([v, u]) == _elements(ct, row)
                length = ct.lengths[i] + ct.lengths[j] - dim
                for k in ct.block.get(length, ()):
                    assert structure_constant(ring, u, v, els[k]) == row.get(k, 0)
                assert set(row) <= set(ct.block.get(length, ()))


@pytest.mark.parametrize("letter,rank,crossed", BATTERIES)
def test_three_class_products_fold_rows_by_index(letter, rank, crossed):
    """product of three classes, which folds rows by index, equals the cup
    of cups the tests fold from rows, mapped to elements, ordinary and
    deformed."""
    cx = flag_context(letter, rank, crossed)
    ct = cx.ct
    step = max(1, len(ct) // 12)
    picks = range(0, len(ct), step)
    for ring in (cx.ring, cx.deformed):
        for i in picks:
            for j in picks:
                for k in picks[::2]:
                    want = _elements(ct, cup(ring, cup(ring, {i: 1}, {j: 1}), {k: 1}))
                    assert ring.product([ct.elements[m] for m in (i, j, k)]) == want


@pytest.mark.parametrize("letter,rank,crossed", BATTERIES)
def test_empty_product_is_the_unit(letter, rank, crossed):
    """The product of no classes is the unit, the class of the longest
    element of W^P, ordinary and deformed; one class is itself."""
    cx = flag_context(letter, rank, crossed)
    ct = cx.ct
    for ring in (cx.ring, cx.deformed):
        assert ring.product([]) == {ct.longest: 1}
        assert all(ring.product([w]) == {w: 1} for w in ct.elements)
        for w in ct.elements[::5]:
            assert ring.product([w, ct.longest]) == ring.product([w])


@pytest.mark.parametrize("letter,rank,crossed", REFERENCE)
def test_index_rows_match_reference_constants(letter, rank, crossed):
    """Every index row equals the constants the textbook-normalised BGG
    table gives, target by target."""
    cx = flag_context(letter, rank, crossed)
    ct, R = cx.ct, cx.system
    dim = cx.parabolic.dim_gp
    ref = ReferenceBGG(R)
    const = (0,) * R.rank
    els = ct.elements
    for i, u in enumerate(els):
        for j in range(i, len(els)):
            length = ct.lengths[i] + ct.lengths[j] - dim
            if length < 0:
                assert cx.ring.row(i, j) == {}
                continue
            f = pmul(ref.rep(ct.dual[u]), ref.rep(ct.dual[els[j]]))
            want = {}
            for k in ct.block[length]:
                g = dict(f)
                for a in reversed(ct.dual[els[k]].word):
                    g = ref.ddiff(a - 1, g)
                if g.get(const, 0):
                    want[k] = g[const]
            assert cx.ring.row(i, j) == want


def test_non_member_elements_rejected():
    """The element-level API still refuses an element outside W^P with the
    same ValueError, and `product` a word outside W^P with exit code 2."""
    cx = flag_context("C", 3, (3,))
    s1 = from_word(cx.wg, (1,))
    e = cx.ct.elements[0]
    msg = "element w\\[1\\] is not a minimal coset representative"
    for ring in (cx.ring, cx.deformed):
        for call in (lambda: ring.product([e, s1]), lambda: structure_constant(ring, s1, e, e),
                     lambda: ring.top_coefficient([e, s1, e])):
            with pytest.raises(ValueError, match=msg):
                call()


def test_product_rejects_non_member_word_message(capsys):
    code = main(["product", "--group", "C3", "--cross", "3", "2,3", "1,1,1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == "error: word 1,1,1 does not reduce to a W^P element\n"


def test_perfbench_tracer_installs_on_the_index_ring(tmp_path):
    """perfbench/tracer.py wraps flagcalc's names through getattr and keys
    rows by the identity of row's arguments: its install() still succeeds,
    it counts one ordinary row call per verify tuple, and verify saves and
    loads no cache table."""
    perfbench = Path(flagcalc.__file__).parents[2] / "perfbench"
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "from tracer import Tracer\n"
        "from flagcalc import cli\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = tracer.call('cli.main', cli.main, ['verify', '--group', 'B3', '--cross',\n"
        "                     '1,2,3', '--s', '3', '--nmax', '3'])\n"
        "m = tracer.layer_metrics(tracer.starts[0], tracer.ends[0])\n"
        "print(json.dumps({'rc': rc, 'tuples': json.loads(out.getvalue())['tuple_count'],\n"
        "                  **{k: m[k]['value'] for k in ('schubert.row.calls',\n"
        "                     'cache.save.calls', 'cache.load.calls')}}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(flagcalc.__file__).parents[1]),
               FLAGCALC_CACHE_DIR=str(tmp_path / "cache"))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert got["rc"] == 0 and got["tuples"] > 0
    assert got["schubert.row.calls"] == got["tuples"]
    assert got["cache.save.calls"] == got["cache.load.calls"] == 0
    assert not (tmp_path / "cache").exists()
