import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import flagcalc
from flagcalc import cache
from flagcalc.cli import main


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FLAGCALC_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_public_name_resolves():
    """`from flagcalc import *` finds every name in flagcalc.__all__."""
    names = {}
    exec("from flagcalc import *", names)
    assert sorted(set(names) - {"__builtins__"}) == sorted(flagcalc.__all__)


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "--group", "C3")
    doc = last_json(out)
    assert code == 0
    assert doc["num_positive_roots"] == 9
    assert doc["highest_root"] == [2, 2, 1]
    assert doc["weyl_order"] == 48


def test_roots_rejects_bad_rank(capsys):
    code, _, err = run(capsys, "roots", "--group", "B9")
    assert code == 2 and "rank" in err


def test_wp_counts(capsys):
    code, out, _ = run(capsys, "wp", "--group", "C3", "--cross", "3")
    assert code == 0 and last_json(out)["count"] == 8
    code, out, _ = run(capsys, "wp", "--group", "A1", "--cross", "1")
    assert code == 0 and last_json(out)["count"] == 2


def test_wp_reference_row(capsys):
    code, out, _ = run(capsys, "wp", "--group", "C3", "--cross", "2")
    doc = last_json(out)
    assert code == 0 and doc["count"] == 12
    rows = {r["word"]: r for r in doc["rows"]}
    target = next(r for r in rows.values()
                  if r["length"] == 6 and r["chi_levi_coords"] == [1, 1])
    assert target["dj"] == [3, 3]
    assert sum((j + 1) * d for j, d in enumerate(target["dj"])) >= target["length"]


def test_wp_partition_labels(capsys):
    code, out, _ = run(capsys, "wp", "--group", "C3", "--cross", "3")
    doc = last_json(out)
    labels = {r["codim"]: r["partition"] for r in doc["rows"] if r["codim"] <= 2}
    assert labels == {0: [], 1: [1], 2: [2]}
    assert all(r["strict"] for r in doc["rows"])
    code, out, _ = run(capsys, "wp", "--group", "A3", "--cross", "2")
    doc = last_json(out)
    assert sorted(tuple(r["partition"]) for r in doc["rows"]) == sorted(
        [(), (1,), (1, 1), (2,), (2, 1), (2, 2)])
    # no partition labels outside the two dictionary cases
    code, out, _ = run(capsys, "wp", "--group", "C3", "--cross", "2")
    assert "partition" not in last_json(out)["rows"][0]


def test_product_lg36(capsys):
    code, out, _ = run(capsys, "product", "--group", "C3", "--cross", "3",
                       "2,3,1,2,3", "1,2,3", "3,1,2,3")
    doc = last_json(out)
    assert code == 0
    assert doc["pretty"] == "2*[e]"
    code, out, _ = run(capsys, "product", "--group", "C3", "--cross", "3",
                       "--deformed", "2,3,1,2,3", "1,2,3", "3,1,2,3")
    assert last_json(out)["pretty"] == "2*[e]"


def test_product_sp6(capsys):
    args = ["product", "--group", "C3", "--cross", "2",
            "1,3,2,1,3,2", "1,3,2,1,3,2", "3,2"]
    code, out, _ = run(capsys, *args)
    assert code == 0 and last_json(out)["pretty"] == "1*[e]"
    code, out, _ = run(capsys, args[0], "--deformed", *args[1:])
    assert code == 0 and last_json(out)["pretty"] == "0"


def test_product_rejects_non_member_word(capsys):
    code, _, err = run(capsys, "product", "--group", "C3", "--cross", "3", "1,1,1")
    assert code == 2
    assert "1,1,1" in err or "1" in err


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--group", "G2",
                       "--weights", "6,0", "0,6", "0,7", "--nmax", "2")
    doc = last_json(out)
    assert code == 0 and doc["invariant_dims"] == {"1": 1, "2": 2}


def test_invariants_rejects_bad_rank(capsys):
    code, _, err = run(capsys, "invariants", "--group", "G2",
                       "--weights", "6,0,0", "--nmax", "1")
    assert code == 2 and "coordinates" in err


def test_verify_a2(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--group", "A2", "--cross", "1",
                       "--s", "3", "--nmax", "3", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["violations"] == 0
    assert all(r["status"] == "OK" for r in doc["tuples"])
    assert all(v == 1 for r in doc["tuples"] if r["invariant_dims"]
               for v in r["invariant_dims"].values())


def test_verify_c3_contains_reference_tuple(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--group", "C3", "--cross", "2",
                       "--s", "3", "--nmax", "2", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["violations"] == 0
    ref = [r for r in doc["tuples"]
           if sorted(r["words"]) == sorted(["1,3,2,1,3,2", "1,3,2,1,3,2", "3,2"])]
    assert len(ref) == 1
    assert ref[0]["cup_top"] == 1 and ref[0]["deformed_top"] == 0
    assert ref[0]["invariant_dims"] is None and ref[0]["status"] == "OK"


def test_verify_warm_cache_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run(capsys, "verify", "--group", "B2", "--cross", "2",
                      "--s", "3", "--nmax", "2", "--out", str(a))
    code2, _, _ = run(capsys, "verify", "--group", "B2", "--cross", "2",
                      "--s", "3", "--nmax", "2", "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_tuple_cap(capsys):
    code, _, err = run(capsys, "verify", "--group", "C3", "--cross", "2",
                       "--s", "3", "--nmax", "1", "--tuple-cap", "5")
    assert code == 2 and "--tuple-cap" in err


def test_verify_tuple_cap_counts_run_tuples(capsys, monkeypatch):
    """C3{2} at s = 3 runs 25 tuples (of 364 multisets): a cap of 25 lets the
    sweep run, 24 refuses it before any row is computed."""
    from flagcalc.schubert import CupRing
    code, out, _ = run(capsys, "verify", "--group", "C3", "--cross", "2",
                       "--s", "3", "--nmax", "1", "--tuple-cap", "25")
    assert code == 0 and last_json(out)["tuple_count"] == 25

    def refuse(*args):
        raise AssertionError("row computed before the cap check")

    monkeypatch.setattr(CupRing, "row", refuse)
    code, out, err = run(capsys, "verify", "--group", "C3", "--cross", "2",
                         "--s", "3", "--nmax", "1", "--tuple-cap", "24")
    assert code == 2 and out == "" and "--tuple-cap" in err


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_verify_tuple_cap_below_zero_rejected(capsys, cap):
    code, out, err = run(capsys, "verify", "--group", "A2", "--cross", "1",
                         "--tuple-cap", cap)
    assert code == 2 and out == ""
    assert err == "error: --tuple-cap must be at least 0\n"


def test_verify_requires_s3(capsys):
    code, _, err = run(capsys, "verify", "--group", "A2", "--cross", "1", "--s", "2")
    assert code == 2 and "--s" in err


@pytest.mark.parametrize("nmax", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "--group", "B3", "--cross", "2", "--s", "3"],
    ["invariants", "--group", "G2", "--weights", "6,0", "0,6", "0,7"],
    ["fulton", "--lam", "1", "--mu", "1", "--nu", "2"],
    ["fulton", "--rows", "2", "--cols", "2"],
])
def test_nmax_below_one_rejected(capsys, argv, nmax):
    code, out, err = run(capsys, *argv, "--nmax", nmax)
    assert code == 2 and out == "" and "--nmax" in err


VERIFY_PARABOLICS = [("A", 4, (1, 2, 3, 4)), ("C", 4, (1, 4)), ("B", 3, (1, 2, 3)),
                     ("G", 2, (1, 2)), ("D", 4, (1, 3, 4))]


def _tuples(ct, s):
    """The tuples of _runs(ct, s), run after run."""
    from flagcalc.cli import _runs
    return [prefix + (c,) for _, prefix, lasts in _runs(ct, s) for c in lasts]


def _streamed_rows(cx, s, nmax=1):
    """The rows _verify_rows writes for the runs of the s-tuples, parsed from
    its text: one write per run, holding one row per tuple of the run."""
    from flagcalc.cli import _runs, _verify_rows
    parts, runs = [], list(_runs(cx.ct, s))
    _verify_rows(cx, iter(runs), nmax, parts.append)
    assert len(parts) == len(runs)
    assert parts[0].startswith("{") and all(p.startswith(",{") for p in parts[1:])
    rows = [json.loads(f"[{p.lstrip(',')}]") for p in parts]
    assert [len(r) for r in rows] == [len(lasts) for _, _, lasts in runs]
    return [row for run in rows for row in run]


def _check_tops_against_products(letter, rank, crossed, s):
    """On every verify index tuple, the cup_top and deformed_top of the row
    _verify_rows writes, and both top methods, equal the coefficient of [X_e]
    in the iterated product, ordinary and deformed (the oracle), and the
    deformed top is the ordinary one exactly when chi_balanced holds.  So do
    top_run and tops_run, run by run."""
    from flagcalc.cli import _runs
    from flagcalc.context import flag_context
    from flagcalc.oracle import chi_balanced
    cx = flag_context(letter, rank, crossed)
    els = cx.ct.elements
    e = els[0]
    tuples = _tuples(cx.ct, s)
    assert tuples
    rows = _streamed_rows(cx, s)
    assert len(rows) == len(tuples)
    kept = dropped = 0
    want = {}
    for tup, row in zip(tuples, rows):
        ws = [els[i] for i in tup]
        top = cx.ring.product(ws).get(e, 0)
        deformed = cx.deformed.product(ws).get(e, 0)
        want[tup] = top, deformed
        assert row["words"] == [w.word_str() for w in ws]
        assert (row["cup_top"], row["deformed_top"]) == (top, deformed)
        assert cx.ring.top_coefficient(ws) == top
        assert cx.deformed.top_coefficient(ws) == deformed
        assert deformed == (top if chi_balanced(cx.deformed, tup) else 0)
        kept += bool(deformed)
        dropped += bool(top) and not deformed
    for _, prefix, lasts in _runs(cx.ct, s):
        pairs = [want[prefix + (c,)] for c in lasts]
        assert cx.ring.top_run(prefix, lasts) == [top for top, _ in pairs]
        assert cx.deformed.tops_run(prefix, lasts) == pairs
    return kept, dropped


@pytest.mark.parametrize("letter,rank,crossed", VERIFY_PARABOLICS)
def test_s3_tops_read_by_duality(letter, rank, crossed):
    """The s = 3 tops, one class paired with the row of the other two, equal
    the iterated products on every verify tuple."""
    _check_tops_against_products(letter, rank, crossed, 3)


@pytest.mark.parametrize("letter,rank,crossed,s", [
    ("A", 3, (1, 2, 3), 4), ("C", 3, (1, 3), 4), ("D", 4, (2,), 4), ("B", 3, (2,), 5)])
def test_tops_match_iterated_products(letter, rank, crossed, s):
    """s = 4 pairs two rows, s = 5 a row with a three-class product; both
    equal the iterated products, and the criterion keeps some nonzero tops
    and drops others."""
    kept, dropped = _check_tops_against_products(letter, rank, crossed, s)
    assert kept and dropped


@pytest.mark.parametrize("letter,rank,crossed", [("C", 3, (2,)), ("A", 3, (1, 2, 3)),
                                                 ("G", 2, (1,))])
def test_two_class_tops_are_poincare_duality(letter, rank, crossed):
    """At s = 2 the right half is the last class itself: the top of (u, v)
    is 1 exactly when v is the dual of u, as the products say, and the
    criterion keeps every such pair."""
    from flagcalc.context import flag_context
    cx = flag_context(letter, rank, crossed)
    els, dual = cx.ct.elements, cx.ct.dual_index
    for i, u in enumerate(els):
        for j, v in enumerate(els):
            top = cx.ring.product([u, v]).get(els[0], 0)
            assert top == int(j == dual[i])
            assert cx.ring.top_coefficient([u, v]) == cx.deformed.top_coefficient([u, v]) == top
            assert cx.deformed.tops_run((i,), (j,)) == [(top, top)]


@pytest.mark.parametrize("letter,rank,crossed,s", [
    ("A", 4, (1, 2, 3, 4), 3), ("D", 4, (2,), 4), ("B", 3, (2,), 5)])
def test_verify_rows_pair_once_per_tuple(monkeypatch, letter, rank, crossed, s):
    """_verify_rows gets both tops of every tuple from one ordinary pairing:
    one top_run per run, on the run itself, never top_coefficient; the
    runs' tuples are the multiset-filter oracle's, each once."""
    from flagcalc.cli import _runs
    from flagcalc.context import flag_context
    from flagcalc.schubert import SchubertBasisRing
    cx = flag_context(letter, rank, crossed)
    runs = [(prefix, lasts) for _, prefix, lasts in _runs(cx.ct, s)]
    calls = []
    top_run = SchubertBasisRing.top_run

    def counted(self, prefix, lasts):
        calls.append((prefix, lasts))
        return top_run(self, prefix, lasts)

    def refused(self, ws):
        raise AssertionError("top_coefficient called in a sweep")

    monkeypatch.setattr(SchubertBasisRing, "top_run", counted)
    monkeypatch.setattr(SchubertBasisRing, "top_coefficient", refused)
    rows = _streamed_rows(cx, s)
    assert any(r["deformed_top"] for r in rows)
    assert calls == runs
    assert [p + (c,) for p, lasts in calls for c in lasts] == _multiset_filter(cx, s)


def _multiset_filter(cx, s):
    """The oracle for _runs: every s-multiset of indices, filtered by its
    length sum and sorted by (lengths, words)."""
    from itertools import combinations_with_replacement
    lengths = cx.ct.lengths
    words = [w.word_str() for w in cx.ct.elements]
    need = (s - 1) * cx.parabolic.dim_gp
    return sorted((tup for tup in combinations_with_replacement(range(len(lengths)), s)
                   if sum(lengths[i] for i in tup) == need),
                  key=lambda tup: ([lengths[i] for i in tup], [words[i] for i in tup]))


@pytest.mark.parametrize("letter,rank,crossed,s", [
    (*p, 3) for p in VERIFY_PARABOLICS + [("A", 3, (1, 2, 3))]] + [
    ("A", 3, (1, 2, 3), 4), ("B", 3, (1, 2, 3), 4), ("G", 2, (1, 2), 4), ("C", 3, (2,), 4)])
def test_tuples_match_multiset_filter(letter, rank, crossed, s):
    """The runs of _runs, flattened, are the multisets of the right length
    sum already in the report's (lengths, words) order, and _tuple_count
    counts them.  Each run is one profile's tuples that differ in the last
    class only, a range of one length block, and no two runs share a prefix."""
    from flagcalc.cli import _profiles, _runs, _tuple_count
    from flagcalc.context import flag_context
    cx = flag_context(letter, rank, crossed)
    want = _multiset_filter(cx, s)
    assert want and _tuples(cx.ct, s) == want
    assert _tuple_count(cx.ct, s) == len(want)
    runs = list(_runs(cx.ct, s))
    assert len({prefix for _, prefix, _ in runs}) == len(runs)
    profiles = list(_profiles(cx.parabolic.dim_gp, s))
    for profile, prefix, lasts in runs:
        assert profile in profiles and isinstance(lasts, range) and lasts
        assert [cx.ct.lengths[i] for i in prefix + (lasts[-1],)] == [
            l for l, k in profile for _ in range(k)]
        assert lasts.stop == cx.ct.block[profile[-1][0]].stop


def test_word_letters_are_single_digits():
    from flagcalc.roots import SUPPORTED_RANKS
    wide = {letter: ranks[-1] for letter, ranks in SUPPORTED_RANKS.items() if ranks[-1] > 9}
    assert not wide, (f"ranks {wide} give two-digit word letters, so index order is no "
                      "longer word-string order: see the docstring of flagcalc.cli._runs")


def test_verify_many_classes(capsys):
    """The enumeration recurses at most dim G/P deep, not once per class:
    A2{1} (dim 2) at s = 2000 has the two tuples of lengths (0, 2, ..., 2)
    and (1, 1, 2, ..., 2)."""
    code, out, _ = run(capsys, "verify", "--group", "A2", "--cross", "1",
                       "--s", "2000", "--nmax", "1")
    assert code == 0 and last_json(out)["tuple_count"] == 2


def test_verify_s4_report_bytes(capsys):
    # the sha256 was recorded when every s took the iterated products, so it
    # pins the report bytes across the half-product pairing
    import hashlib
    code, out, _ = run(capsys, "verify", "--group", "A3", "--cross", "1,2,3",
                       "--s", "4", "--nmax", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "26d5d5fb64311bb24fcc373481fb9bccd3d9d7147b58d5b5868eb9a4909efe40")


@pytest.mark.parametrize("group,digest", [
    ("D4", "df2074a09aabee7e6eb682ad61b9284e636470fa2a47be0a2f6a35303103ee1f"),  # A1^3
    ("B4", "8372f0177de6f827eeae05958548cfcc150d98a64a431a9e75e514b57542e717"),  # A1 x B2
])
def test_verify_multi_factor_levi_report_bytes(capsys, group, digest):
    # recorded before the chamber map was memoised; pins the per-factor
    # counts of Levis with more than one simple factor
    import hashlib
    code, out, _ = run(capsys, "verify", "--group", group, "--cross", "2",
                       "--s", "3", "--nmax", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _dict_report(letter, rank, crossed, s, nmax):
    """The oracle for verify's streamed report: every row built as a dict and
    the whole document serialised at once by cache.canonical_json."""
    from flagcalc.context import flag_context
    cx = flag_context(letter, rank, crossed)
    rows = []
    for tup in _multiset_filter(cx, s):
        ws = [cx.ct.elements[i] for i in tup]
        (d, dt), = cx.deformed.tops_run(tup[:-1], tup[-1:])
        dims = None
        if dt == 1:
            chis = [cx.deformed.chi(w).levi_coords for w in ws]
            dims = {str(n): cx.levi.invariant_dimension(chis, n=n)
                    for n in range(1, nmax + 1)}
        rows.append({"words": [w.word_str() for w in ws], "lengths": [w.length for w in ws],
                     "cup_top": d, "deformed_top": dt, "levi_movable": dt > 0,
                     "invariant_dims": dims,
                     "status": "VIOLATION" if dims and any(v != 1 for v in dims.values())
                     else "OK"})
    return cache.canonical_json({
        "schema_version": cache.SCHEMA_VERSION, "group": f"{letter}{rank}",
        "group_type": letter, "rank": rank, "crossed": sorted(crossed),
        "levi_simple": sorted(set(range(1, rank + 1)) - set(crossed)), "s": s,
        "n_max": nmax, "dim_gp": cx.parabolic.dim_gp, "tuple_count": len(rows),
        "violations": sum(r["status"] == "VIOLATION" for r in rows), "tuples": rows})


def _assert_same_text(got, want):
    """got == want, failing at the first differing character: pytest's own
    diff of two long reports takes minutes."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"lengths {len(got)}, {len(want)}; first difference at {i}: "
                    f"{got[max(i - 40, 0):i + 40]!r} != {want[max(i - 40, 0):i + 40]!r}")


def _verify_argv(letter, rank, crossed, s, nmax):
    return ["verify", "--group", f"{letter}{rank}", "--cross", ",".join(map(str, crossed)),
            "--s", str(s), "--nmax", str(nmax)]


STREAMED_SWEEPS = ([(*p, 3, 3) for p in VERIFY_PARABOLICS]
                   + [("A", 3, (1, 2, 3), 4, 2), ("C", 3, (1, 3), 4, 2), ("D", 4, (2,), 4, 2),
                      ("B", 3, (2,), 5, 2), ("A", 2, (1,), 3, 10), ("A", 3, (), 3, 3)])


@pytest.mark.parametrize("letter,rank,crossed,s,nmax", STREAMED_SWEEPS)
def test_streamed_report_matches_dict_document(capsys, letter, rank, crossed, s, nmax):
    """verify writes its report row by row; the bytes are those of the dict
    document serialised whole, including the string order of the
    invariant_dims keys at --nmax 10 and the single tuple of P = G."""
    code, out, _ = run(capsys, *_verify_argv(letter, rank, crossed, s, nmax))
    assert code == 0
    _assert_same_text(out, _dict_report(letter, rank, crossed, s, nmax))


@pytest.mark.parametrize("top,dims", [
    ((2**60, 1), 2**60), ((-(2**60), 2**60), 1), ((2**53 - 1, 1), 2**53), ((2**53, 1), -(2**53))])
def test_streamed_report_renders_big_integers(capsys, monkeypatch, top, dims):
    """Every integer of a row beyond 2**53 - 1 is written as a string, as
    cache.canonical_json writes it."""
    from flagcalc.deformed import DeformedRing
    from flagcalc.levi import LeviSystem
    monkeypatch.setattr(DeformedRing, "tops_run", lambda self, prefix, lasts: [top] * len(lasts))
    monkeypatch.setattr(LeviSystem, "invariant_dimension", lambda self, ws, n=1: dims)
    code, out, _ = run(capsys, *_verify_argv("C", 3, (2,), 3, 10))
    assert code == (0 if dims == 1 else 1)
    _assert_same_text(out, _dict_report("C", 3, (2,), 3, 10))
    assert str(max(abs(x) for x in (*top, dims))) in out


def test_streamed_report_under_python_O():
    argv = _verify_argv("B", 3, (1, 2, 3), 3, 2)
    res = _flagcalc("-m", "flagcalc", *argv, optimize=True)
    assert res.returncode == 0, res.stderr
    _assert_same_text(res.stdout, _dict_report("B", 3, (1, 2, 3), 3, 2))


@pytest.mark.parametrize("existing", [None, "an earlier report\n"])
def test_verify_out_is_atomic(capsys, monkeypatch, tmp_path, existing):
    """A sweep that fails after some rows leaves --out as it was: no file
    where there was none, the old bytes where there was one, and no
    temporary file."""
    from flagcalc.deformed import DeformedRing
    from flagcalc.roots import ExactnessError
    outdir = tmp_path / "reports"
    outdir.mkdir()
    out = outdir / "r.json"
    if existing is not None:
        out.write_text(existing)
    tops_run, calls = DeformedRing.tops_run, []

    def failing(self, prefix, lasts):
        calls.append(prefix)
        if len(calls) > 5:
            raise ExactnessError("injected")
        return tops_run(self, prefix, lasts)

    monkeypatch.setattr(DeformedRing, "tops_run", failing)
    with pytest.raises(ExactnessError):
        main(_verify_argv("C", 3, (2,), 3, 1) + ["--out", str(out)])
    assert capsys.readouterr().out == ""
    assert [p.name for p in outdir.iterdir()] == ([] if existing is None else ["r.json"])
    if existing is not None:
        assert out.read_text() == existing


def test_out_through_symlink_and_to_fifo(capsys, tmp_path):
    """--out through a symlink replaces the file it points to and keeps the
    link; an --out that is not a regular file (here a FIFO) is written, not
    replaced."""
    import stat
    argv = _verify_argv("A", 2, (1,), 3, 1)
    code, want, _ = run(capsys, *argv)
    assert code == 0
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("an earlier report\n")
    link.symlink_to(target)
    assert run(capsys, *argv, "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and target.read_text() == want
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so the writer's open returns
    try:
        assert run(capsys, *argv, "--out", str(fifo)) == (0, "", "")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(fd, 1 << 16).decode() == want
    finally:
        os.close(fd)
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("target,existing", [
    ("a directory", None), ("a directory", "an earlier report\n"),
    ("in a missing directory", None)])
def test_unwritable_out_refused(capsys, tmp_path, target, existing):
    """An --out that cannot be opened is refused with exit 2 and one error
    line; it leaves no temporary file and the target as it was."""
    if target == "a directory":
        out = tmp_path / "reports"
        out.mkdir()
        if existing is not None:
            (out / "kept.json").write_text(existing)
    else:
        out = tmp_path / "missing" / "r.json"
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    code, out_text, err = run(capsys, "roots", "--group", "A2", "--out", str(out))
    assert (code, out_text) == (2, "")
    assert err.startswith(f"error: cannot write --out {out}: ") and err.count("\n") == 1
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    if existing is not None:
        assert (out / "kept.json").read_text() == existing


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "B4", "--cross", "1,2,3,4", "--nmax", "1"],
    ["wp", "--group", "C5", "--cross", "5"]])
def test_closed_stdout_exits_2_quietly(argv):
    """A stdout whose reader has gone (here a pipe with its read end closed)
    ends the command with exit 2: no traceback, and no "Exception ignored"
    from the interpreter's last flush."""
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=str(Path(flagcalc.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "flagcalc", *argv], stdout=w,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=600)
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_closed_stdout_in_a_shell_pipeline(tmp_path):
    """verify | head -c 100: head reads the start of the report and leaves,
    and verify exits 2 without a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(flagcalc.__file__).parents[1]))
    cmd = (f"{sys.executable} -m flagcalc verify --group B4 --cross 1,2,3,4 --nmax 1 "
           f"2>{tmp_path / 'err'} | head -c 100; exit ${{PIPESTATUS[0]}}")
    proc = subprocess.run(["bash", "-c", cmd], capture_output=True, env=env, timeout=600)
    assert proc.returncode == 2 and proc.stdout.startswith(b'{"crossed":[1,2,3,4]')
    assert len(proc.stdout) == 100 and (tmp_path / "err").read_text() == ""


@pytest.mark.parametrize("cross", ["3", "0", "-1", "1,3"])
@pytest.mark.parametrize("argv", [
    ["verify", "--nmax", "1"], ["wp"], ["product", "1", "2"],
    ["invariants", "--weights", "1", "1"]])
def test_crossed_node_out_of_range_rejected(capsys, argv, cross):
    code, out, err = run(capsys, *argv, "--group", "A2", "--cross", cross)
    assert code == 2 and out == ""
    assert err.startswith("error: crossed nodes") and "1..2" in err


@pytest.mark.parametrize("argv,bad,role", [
    (["roots", "--group", "AB"], "'AB'", "group name"),
    (["roots", "--group", "3A"], "'3A'", "group name"),
    (["wp", "--group", "A3", "--cross", "x"], "'x'", "--cross"),
    (["product", "--group", "C3", "--cross", "2", "1,a", "3,2"], "'1,a'", "word"),
    (["invariants", "--group", "G2", "--weights", "6,x", "0,6", "0,7"], "'6,x'", "--weights"),
    (["fulton", "--lam", "2,a", "--mu", "1", "--nu", "3,1"], "'2,a'", "--lam")])
def test_malformed_integers_name_the_text_and_its_role(capsys, argv, bad, role):
    """A group name or integer list that int() cannot read exits 2 with one
    error line that quotes the text and says what it was read as, not
    int()'s own message."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err and role in err and "invalid literal" not in err


def test_fulton_single_and_sweep(capsys):
    code, out, _ = run(capsys, "fulton", "--lam", "1", "--mu", "1", "--nu", "2",
                       "--nmax", "4")
    doc = last_json(out)
    assert code == 0
    assert doc["report"]["scaled"] == {"2": 1, "3": 1, "4": 1}
    code, out, _ = run(capsys, "fulton", "--rows", "2", "--cols", "2", "--nmax", "3")
    doc = last_json(out)
    assert code == 0 and doc["violations"] == []


def test_fulton_partial_triple_rejected(capsys):
    code, _, err = run(capsys, "fulton", "--lam", "1", "--nmax", "2")
    assert code == 2 and "--lam" in err


@pytest.mark.parametrize("lam,mu,nu", [("", "", ""), ("1", "", "1")])
def test_fulton_empty_partition_is_given(capsys, lam, mu, nu):
    """An empty --lam/--mu/--nu is the empty partition, not a missing option:
    all three empty check c^0_{0,0} = 1 instead of running the box sweep, and
    c^(1)_{(1),0} = 1 is checked instead of refused."""
    code, out, _ = run(capsys, "fulton", "--lam", lam, "--mu", mu, "--nu", nu, "--nmax", "3")
    doc = last_json(out)
    assert code == 0 and doc["mode"] == "single"
    assert [doc["report"][k] for k in ("lam", "mu", "nu")] == [
        [int(x) for x in p.split(",") if x] for p in (lam, mu, nu)]
    assert doc["report"]["c"] == 1 and doc["report"]["scaled"] == {"2": 1, "3": 1}


@pytest.mark.parametrize("option,other", [("--rows", "--cols"), ("--cols", "--rows")])
def test_fulton_negative_box_rejected(capsys, option, other):
    """A negative box side is refused with exit 2 and one error line, before
    any partition is listed (--rows -1 used to recurse until RecursionError,
    and --cols -1 was swept as a box holding only the empty partition)."""
    code, out, err = run(capsys, "fulton", option, "-1", other, "2")
    assert code == 2 and out == ""
    assert err == f"error: {option} must be at least 0\n"


# each command's report names the group as roots.build does, whatever the
# spelling of --group
@pytest.mark.parametrize("argv", [
    ["verify", "--cross", "2", "--nmax", "1"],
    ["product", "--cross", "2", "2", "1,2"],
    ["product", "--cross", "2", "--deformed", "2", "1,2"],
    ["wp", "--cross", "2"],
    ["invariants", "--cross", "2", "--weights", "1,1", "1,1", "2,2"]],
    ids=["verify", "product", "product-deformed", "wp", "invariants"])
def test_report_group_is_canonical(capsys, argv):
    code, want, _ = run(capsys, *argv, "--group", "A3")
    assert code == 0 and json.loads(want)["group"] == "A3"
    for spelling in ("A03", " a3", "a3 "):
        assert run(capsys, *argv, "--group", spelling) == (0, want, "")


# modules `import flagcalc.cli` must not load: dataclasses drags in inspect,
# ast and dis, lr is for wp, fulton and examples only, cells for wp only, and
# oracle for the tests only
IMPORT_FLOOR_PROBE = """
import contextlib, hashlib, io, json, sys
before = set(sys.modules)
from flagcalc.cli import main
added = sorted(set(sys.modules) - before)

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]

def loaded():
    return [m for m in ("flagcalc.oracle", "flagcalc.cells", "flagcalc.lr") if m in sys.modules]

words = ["1,3,2,1,3,2", "1,3,2", "3,2"]
codes = [run(argv)[0] for argv in (
    ["verify", "--group", "C3", "--cross", "2", "--s", "3", "--nmax", "2"],
    ["product", "--group", "C3", "--cross", "2", *words],
    ["product", "--group", "C3", "--cross", "2", "--deformed", *words],
    ["invariants", "--group", "G2", "--weights", "6,0", "0,6", "0,7"])]
production = loaded()
digests = [run(["wp", "--group", "C3", "--cross", "3"])]
wp = loaded()
digests.append(run(["fulton", "--rows", "2", "--cols", "2", "--nmax", "3"]))
fulton = loaded()
from flagcalc import (ReferenceBGG, cell_in_stabilizer_orbit, cover_level_identity, dj_profile,
                      dj_profile_at_cover, hom_dimension, stabilizer_simple_roots)
names = {}
exec("from flagcalc import *", names)
import flagcalc
print(json.dumps({"added": added, "codes": codes, "digests": digests, "production": production,
                  "wp": wp, "fulton": fulton, "lazy": [f.__module__ for f in (
                      ReferenceBGG, dj_profile, stabilizer_simple_roots, hom_dimension,
                      cell_in_stabilizer_orbit, dj_profile_at_cover, cover_level_identity)],
                  "star": sorted(set(flagcalc.__all__) - set(names))}))
"""


def test_import_floor():
    """A fresh `import flagcalc.cli` loads none of dataclasses, inspect, ast,
    dis, flagcalc.lr, flagcalc.cells or flagcalc.oracle; verify, product
    (plain and deformed) and invariants load none of the last three either;
    wp loads cells and lr on demand but not oracle, and wp's and fulton's
    reports keep the sha256 they had when cli imported lr and the cell data
    eagerly.  The names that moved to cells and oracle still import from
    flagcalc, one by one and through `import *`: hom_dimension and the three
    cover lemmas from oracle."""
    res = _flagcalc("-c", IMPORT_FLOOR_PROBE)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert "flagcalc.cli" in doc["added"]
    assert not {"dataclasses", "inspect", "ast", "dis", "flagcalc.lr", "flagcalc.cells",
                "flagcalc.oracle"} & set(doc["added"])
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["production"] == []
    assert doc["wp"] == ["flagcalc.cells", "flagcalc.lr"]
    assert doc["fulton"] == ["flagcalc.cells", "flagcalc.lr"]
    assert doc["digests"] == [
        [0, "279c97d3a4456e02d11819ddd4c426f314e52289cb3ec30db32c7bd9920f99f5"],
        [0, "2a58a821fe21f9a2d8ebc0cecd7f41d6c8de31e2cbe1284ac3e9c590b092e860"]]
    assert doc["lazy"] == ["flagcalc.oracle", "flagcalc.cells", "flagcalc.cells"] + [
        "flagcalc.oracle"] * 4
    assert doc["star"] == []


def test_examples_command(capsys):
    code, out, _ = run(capsys, "examples")
    doc = last_json(out)
    rows = {r["name"]: r for r in doc["rows"]}
    # one recorded reference value is known to disagree with the verified
    # computation (LG(5,10) top coefficient: recorded 4, computed 6);
    # the command reports it honestly and exits nonzero
    assert code == 1 and doc["failed"] == 1
    bad = rows["LG(5,10) intersection number"]
    assert bad["status"] == "FAIL" and bad["expected"] == 4 and bad["got"] == 6
    for name, row in rows.items():
        if name != "LG(5,10) intersection number":
            assert row["status"] == "PASS", name


def test_report_roundtrip_bytes(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    run(capsys, "verify", "--group", "A2", "--cross", "2", "--s", "3",
        "--nmax", "1", "--out", str(out_file))
    text = out_file.read_text()
    assert cache.canonical_json(json.loads(text)) == text


def test_big_integer_rendering():
    doc = {"n": 2**80, "k": [1, 2**60]}
    text = cache.canonical_json(doc)
    parsed = json.loads(text)
    assert parsed["n"] == str(2**80)
    assert cache.canonical_json(parsed) == text


def _encode_route(doc):
    return json.dumps(cache._encode(doc), sort_keys=True, separators=(",", ":")) + "\n"


BIG_EDGES = [2**53 - 1, -(2**53 - 1), 2**53, -(2**53), 10**15, 10**16, -(10**16)]


@pytest.mark.parametrize("doc", [
    *BIG_EDGES, True, False, None, 0,
    BIG_EDGES,
    [True, False, 1, [2**53, [-(2**53), {"k": 2**53 - 1}]]],
    {"a": {"b": [True, 2**80]}, "c": -(2**53 - 1), "d": False},
    "1234567890123456", "x" + "9" * 40 + "y", ["123456789012345", 123456789012345],
    {"9" * 16: 1, "k": "0" * 15},
    {"n": 2**53, "s": "2" * 16, "t": [2**53 - 1, "3" * 17]},
])
def test_canonical_json_matches_encode_route(doc):
    assert cache.canonical_json(doc) == _encode_route(doc)


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.sampled_from(BIG_EDGES),
    st.integers(-(2**70), 2**70), st.text(alphabet="0123456789-,x", max_size=40))


@given(st.recursive(_json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.dictionaries(st.text(alphabet="09ab", max_size=18), kids, max_size=4)),
    max_leaves=16))
def test_canonical_json_matches_encode_route_on_random_documents(doc):
    assert cache.canonical_json(doc) == _encode_route(doc)


def test_corrupt_cache_ignored(capsys, monkeypatch, fresh_contexts):
    """product ignores a table that is not JSON or has the wrong schema
    version, answers the same and writes the table it would have written."""
    from flagcalc import context
    argv = C3_2_PRODUCT + ["1,2,1,3,2", "3,2,1,3,2", "3,2"]
    code, first, _ = run(capsys, *argv)
    path = _c3_2_table()
    assert code == 0 and path.exists()
    good = path.read_bytes()
    for bad in ("{not json", cache.canonical_json({"schema_version": 999, "group": "C3",
                                                   "levi_simple": [1, 3], "entries": []})):
        path.write_text(bad)
        monkeypatch.setattr(context, "_contexts", {})  # no row in memory hides the file
        code, again, _ = run(capsys, *argv)
        assert code == 0 and again == first
        assert path.read_bytes() == good


VERIFY_ARGV = ["verify", "--group", "B3", "--cross", "2", "--s", "3", "--nmax", "1"]


def test_verify_leaves_cache_dir_empty(capsys, tmp_cache):
    """verify neither reads nor writes the disk cache."""
    cache_dir = tmp_cache / "cache"
    cache_dir.mkdir()
    code, out, _ = run(capsys, *VERIFY_ARGV)
    assert code == 0 and last_json(out)["tuple_count"] > 0
    assert list(cache_dir.iterdir()) == []


def test_verify_report_ignores_existing_table(capsys, tmp_cache, monkeypatch,
                                              fresh_contexts):
    """A corrupt table, or one whose constants are wrong under a valid digest,
    changes no byte of a verify report, and verify leaves the file as it is."""
    from flagcalc import context, roots
    code, want, _ = run(capsys, *VERIFY_ARGV)
    assert code == 0
    run(capsys, "product", "--group", "B3", "--cross", "2", "1,3,2", "2,3,2")
    path = cache.table_path(roots.build("B", 3), [2])
    doc = json.loads(path.read_text())
    assert doc["entries"]
    for e in doc["entries"]:
        e["c"] = 64
    doc["entries_sha256"] = cache._entries_digest(doc["entries"])
    for bad in ("{not json", cache.canonical_json(doc)):
        path.write_text(bad)
        monkeypatch.setattr(context, "_contexts", {})
        code, out, _ = run(capsys, *VERIFY_ARGV)
        assert code == 0 and out == want
        assert path.read_text() == bad


def _flagcalc(*argv, optimize=False):
    """Run flagcalc in a fresh interpreter (optionally under python -O)."""
    env = dict(os.environ, PYTHONPATH=str(Path(flagcalc.__file__).parents[1]))
    cmd = [sys.executable] + (["-O"] if optimize else []) + list(argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600)


def test_main_sweep_script(capsys, tmp_path):
    """scripts/run_main_sweep.py writes one report per maximal parabolic of
    its battery, each the bytes of the matching `verify` run."""
    script = Path(flagcalc.__file__).parents[2] / "scripts" / "run_main_sweep.py"
    outdir = tmp_path / "reports"
    proc = _flagcalc(str(script), "--nmax", "1", "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stderr
    assert len(list(outdir.glob("*.json"))) == 15
    code, _, _ = run(capsys, "verify", "--group", "C3", "--cross", "2", "--s", "3",
                     "--nmax", "1", "--out", str(tmp_path / "direct.json"))
    assert code == 0
    assert ((outdir / "verify-C3-cross2.json").read_bytes()
            == (tmp_path / "direct.json").read_bytes())


def test_exactness_checks_survive_python_O(tmp_path, monkeypatch):
    probe = ("from fractions import Fraction\n"
             "from flagcalc import oracle, roots, schubert\n"
             "from flagcalc.context import flag_context\n"
             "from flagcalc.levi import LeviSystem\n"
             "from flagcalc.schubert import CupRing, Realization, SchubertEngine\n"
             "from flagcalc.weyl import minimal_coset_reps\n"
             "def probe(name, fn, exc=roots.ExactnessError):\n"
             "    try:\n"
             "        fn()\n"
             "    except exc:\n"
             "        print(name, 'raised')\n"
             "print(__debug__)\n"
             "eng = SchubertEngine(roots.build('A', 2))\n"
             "s1 = oracle.from_word(eng.wg, (1,))\n"
             "trie = schubert.extraction_trie({s1: s1.word})\n"
             "probe('leaf', lambda: eng.extract(trie, (2, 0, 0)))\n"
             "real = Realization(roots.build('B', 3))\n"
             "real.rules[2] = ('odd', 2, 1)\n"
             "probe('rules', real.check_rules)\n"
             "probe('restrict', lambda: oracle.restrict(LeviSystem(roots.build('C', 3), (1, 2)),\n"
             "    (Fraction(1, 2), 3, Fraction(7, 2))), ValueError)\n"
             "def ring(letter, rank, crossed):\n"
             "    R = roots.build(letter, rank)\n"
             "    ring = CupRing(minimal_coset_reps(R, roots.parabolic(R, crossed=crossed)))\n"
             "    return ring, ring.ct.block[ring.parabolic.dim_gp - 2][0]\n"
             "r, w = ring('C', 3, [3])\n"
             "r.width = 2\n"
             "probe('packing', lambda: r.row(w, w))\n"
             "r, w = ring('A', 3, [2])\n"
             "r.engine.scale = 2\n"
             "probe('remainder', lambda: r.row(w, w))\n"
             "r, w = ring('A', 3, [2])\n"
             "d = r.ct.dual_index[w]\n"
             "r._packed[d] = {m: -c for m, c in r._pack(d).items()}\n"
             "probe('negative', lambda: r.row(w, len(r.ct) - 1))\n"
             "cx = flag_context('C', 3, (2,))\n"
             "dr, (a, c) = cx.deformed, [cx.ct.index_of(cx.element(w)) for w in ((1, 3, 2, 1, 3, 2),\n"
             "                                                                (3, 2))]\n"
             "dr._completing_column = lambda prefix: (-9,)  # below every column\n"
             "probe('inequality', lambda: dr.tops_run((a, a), [c]))\n"
             "probe('row-inequality', lambda: dr.row(a, a))\n"
             "b3 = SchubertEngine(roots.build('B', 3))\n"
             "top, reflect = b3.wg.longest().inv, b3.wg._reflect\n"
             "b3.wg._reflect = lambda f, i0: reflect(f, (i0 + 1) % 3)\n"
             "b3._table = {top: b3.realization.seed()}\n"
             "probe('climb', lambda: b3.rep(b3.wg.identity))\n"
             "Realization.seed = lambda self: {(4, 0): 1}\n"
             "probe('seed', lambda: SchubertEngine(roots.build('C', 2)))\n"
             "LeviSystem._simple_invariants = lambda self, ws: print('factor', self.nodes)\n"
             "a5 = LeviSystem(roots.build('A', 5), (1, 2, 4, 5))\n"
             "probe('dominance', lambda: a5.invariant_dimension([(1, 0, 0, -1)] * 3), ValueError)\n")
    res = _flagcalc("-c", probe, optimize=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] + [
        word for name in ("leaf", "rules", "restrict", "packing", "remainder", "negative",
                          "inequality", "row-inequality", "climb", "seed", "dominance")
        for word in (name, "raised")]
    # the same reports, byte for byte, with and without -O (each from a cold cache)
    for argv in (["verify", "--group", "C3", "--cross", "2", "--s", "3", "--nmax", "1"],
                 ["product", "--group", "C3", "--cross", "2", "1,3,2,1,3,2", "1,3,2", "3,2"]):
        outs = []
        for optimize in (False, True):
            monkeypatch.setenv("FLAGCALC_CACHE_DIR", str(tmp_path / f"cache-{optimize}"))
            res = _flagcalc("-m", "flagcalc", *argv, optimize=optimize)
            assert res.returncode == 0, res.stderr
            outs.append(res.stdout)
        assert outs[0] == outs[1] and outs[0]


def test_tampered_cache_is_recomputed(tmp_path):
    from flagcalc import roots
    from flagcalc.schubert import CupRing
    from flagcalc.weyl import minimal_coset_reps

    argv = ["-m", "flagcalc", "product", "--group", "C3", "--cross", "2", "3,2",
            "1,3,2,1,3,2"]
    first = _flagcalc(*argv)
    assert first.returncode == 0 and last_json(first.stdout)["pretty"] == "1*[2]"
    R = roots.build("C", 3)
    P = roots.parabolic(R, crossed=[2])
    path = cache.table_path(R, [2])
    assert cache.load_table(CupRing(minimal_coset_reps(R, P))) > 0
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left
    good = json.loads(path.read_text())
    bad = json.loads(path.read_text())
    for e in bad["entries"]:
        e["c"] = 64
    no_digest = dict(bad)
    del no_digest["entries_sha256"]
    for doc in (bad, no_digest):
        path.write_text(cache.canonical_json(doc))
        assert cache.load_table(CupRing(minimal_coset_reps(R, P))) == 0
        # a fresh process, so no in-memory row hides the file
        again = _flagcalc(*argv)
        assert again.returncode == 0 and again.stdout == first.stdout
        # the recomputed table replaced the bad file
        assert json.loads(path.read_text()) == good


@pytest.mark.parametrize("tamper", [
    lambda e: ["3,2", "1,3,2,1,3,2", "2", 1],  # not a dict
    lambda e: dict(e, c=-7),
    lambda e: dict(e, c=0),
    lambda e: dict(e, c=True),
    lambda e: dict(e, c="1"),
    lambda e: dict(e, w=""),  # a target of length 0, not 2 + 6 - 7
    lambda e: dict(e, u=32),  # a word that is not a string
], ids=["list", "negative", "zero", "bool", "string", "length", "word"])
def test_tampered_entries_with_a_matching_digest_are_recomputed(capsys, monkeypatch, tamper):
    """A table whose entries digest matches is still checked entry by entry:
    an entry that is not a dict, a c that is not an int above 0, a target of
    the wrong length or a word that is not a string makes product ignore the
    file, answer as before, and write the table it would have written."""
    from flagcalc import context
    argv = C3_2_PRODUCT + ["3,2", "1,3,2,1,3,2"]
    monkeypatch.setattr(context, "_contexts", {})
    code, first, _ = run(capsys, *argv)
    path = _c3_2_table()
    good = path.read_bytes()
    doc = json.loads(good)
    assert code == 0 and doc["entries"] == [{"c": 1, "u": "3,2", "v": "1,3,2,1,3,2", "w": "2"}]
    doc["entries"] = [tamper(doc["entries"][0])]
    doc["entries_sha256"] = cache._entries_digest(doc["entries"])
    path.write_text(cache.canonical_json(doc))
    monkeypatch.setattr(context, "_contexts", {})  # no row in memory hides the file
    assert cache.load_table(context.flag_context("C", 3, (2,)).ring) == 0
    monkeypatch.setattr(context, "_contexts", {})
    code, again, err = run(capsys, *argv)
    assert (code, err) == (0, "") and again == first
    assert path.read_bytes() == good


def test_big_coefficient_entry_is_read_back(capsys, monkeypatch):
    """A c beyond 2**53 - 1, which canonical_json writes as a decimal string,
    is read back as that integer."""
    from flagcalc import context
    monkeypatch.setattr(context, "_contexts", {})
    code, _, _ = run(capsys, *C3_2_PRODUCT, "3,2", "1,3,2,1,3,2")
    path = _c3_2_table()
    doc = json.loads(path.read_text())
    doc["entries"][0]["c"] = 2**53 + 1
    doc["entries_sha256"] = cache._entries_digest(doc["entries"])
    path.write_text(cache.canonical_json(doc))
    assert code == 0 and '"c":"9007199254740993"' in path.read_text()
    monkeypatch.setattr(context, "_contexts", {})
    cx = context.flag_context("C", 3, (2,))
    assert cache.load_table(cx.ring) == 1
    i, j, k = (cx.ct.index_of(cx.element(w)) for w in ((3, 2), (1, 3, 2, 1, 3, 2), (2,)))
    assert cx.ring.row(i, j) == {k: 2**53 + 1}


def test_cache_file_rewritten_only_when_rows_are_added(tmp_path):
    from flagcalc import roots

    path = cache.table_path(roots.build("C", 3), [2])
    argv = ["-m", "flagcalc", "product", "--group", "C3", "--cross", "2"]
    first = _flagcalc(*argv, "3,2", "1,3,2,1,3,2")
    assert first.returncode == 0, first.stderr
    before = path.stat()
    entries = len(json.loads(path.read_text())["entries"])
    # each a fresh process: only the file carries rows from one to the next
    again = _flagcalc(*argv, "3,2", "1,3,2,1,3,2")
    assert again.returncode == 0 and again.stdout == first.stdout
    assert path.stat().st_ino == before.st_ino
    assert path.stat().st_mtime_ns == before.st_mtime_ns
    other = _flagcalc(*argv, "1,3,2,1,3,2", "1,3,2,1,3,2")
    assert other.returncode == 0, other.stderr
    assert path.stat().st_ino != before.st_ino
    assert len(json.loads(path.read_text())["entries"]) > entries


def _same_as_fresh_process(capsys, argv, out):
    """main(argv) in this process prints, and writes to out, what a fresh
    `python -m flagcalc` with the same argv does."""
    out.unlink(missing_ok=True)
    code, stdout, _ = run(capsys, *argv)
    written = out.read_bytes() if out.exists() else None
    assert ("--out" in argv) == (written is not None), argv
    out.unlink(missing_ok=True)
    fresh = _flagcalc("-m", "flagcalc", *argv)
    assert (code, stdout) == (fresh.returncode, fresh.stdout), argv
    assert written == (out.read_bytes() if out.exists() else None), argv


def test_parser_reused_across_calls(capsys, tmp_path):
    """One process, every subcommand twice with different options and a parse
    error in between: no option carries over from one call to the next."""
    out = tmp_path / "out.json"
    pairs = [
        (["roots", "--group", "B3", "--out", str(out)], ["roots", "--group", "G2"]),
        (["wp", "--group", "C3", "--cross", "3", "--out", str(out)],
         ["wp", "--group", "A3", "--cross", "2"]),
        (["product", "--group", "C3", "--cross", "2", "--deformed", "--out", str(out),
          "1,3,2,1,3,2", "1,3,2,1,3,2", "3,2"],
         ["product", "--group", "C3", "--cross", "2", "1,3,2,1,3,2", "1,3,2,1,3,2", "3,2"]),
        (["invariants", "--group", "G2", "--weights", "6,0", "0,6", "10,1", "--nmax", "2",
          "--out", str(out)],
         ["invariants", "--group", "C3", "--cross", "3", "--weights", "2,0", "0,3", "2,1"]),
        (["verify", "--group", "A2", "--cross", "2", "--nmax", "1", "--out", str(out)],
         ["verify", "--group", "B2", "--cross", "1"]),
        (["fulton", "--lam", "1", "--mu", "1", "--nu", "2", "--nmax", "3", "--out", str(out)],
         ["fulton", "--rows", "2", "--cols", "2"]),
        (["examples", "--out", str(out)], ["examples"]),
    ]
    for first, second in pairs:
        _same_as_fresh_process(capsys, first, out)
        with pytest.raises(SystemExit) as exc:
            main([first[0], "--bogus"])
        assert exc.value.code == 2 and "usage: flagcalc" in capsys.readouterr().err
        _same_as_fresh_process(capsys, second, out)


@pytest.mark.parametrize("argv", [["--help"], ["product", "--help"]])
def test_help_exits_zero(capsys, argv):
    res = _flagcalc("-m", "flagcalc", *argv)
    assert res.returncode == 0 and res.stdout.startswith("usage: flagcalc")
    for _ in range(2):  # the reused parser prints its help again
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: flagcalc")


@pytest.fixture
def fresh_contexts(monkeypatch):
    """Rings built in this test only, so no earlier test's rows are in memory."""
    from flagcalc import context
    monkeypatch.setattr(context, "_contexts", {})


def test_a_repeated_crossed_node_names_the_same_context(capsys, fresh_contexts):
    """--cross 1,1 is the parabolic of --cross 1: one FlagContext, one pair of
    rings, and the same product."""
    from flagcalc import context
    from flagcalc.context import flag_context
    assert flag_context("A", 3, (1, 1)) is flag_context("A", 3, (1,))
    assert len(context._contexts) == 1
    outs = []
    for cross in ("1", "1,1"):
        code, out, _ = run(capsys, "product", "--group", "A3", "--cross", cross, "1", "2,1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and len(context._contexts) == 1


@pytest.fixture
def table_parses(monkeypatch):
    """Calls of json.loads, which load_table makes once per table it parses."""
    calls = []
    loads = json.loads

    def counting(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(cache.json, "loads", counting)
    return calls


C3_2_PRODUCT = ["product", "--group", "C3", "--cross", "2"]


def _c3_2_table():
    from flagcalc import roots
    return cache.table_path(roots.build("C", 3), [2])


def _parses(calls, capsys, *argv):
    before = len(calls)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return len(calls) - before, out


def test_unchanged_table_not_reparsed(capsys, fresh_contexts, table_parses):
    argv = C3_2_PRODUCT + ["1,2,1,3,2", "3,2,1,3,2"]
    parses, first = _parses(table_parses, capsys, *argv)
    assert parses == 0  # no table yet; this request writes it
    path = _c3_2_table()
    written = path.stat()
    for _ in range(2):
        parses, again = _parses(table_parses, capsys, *argv)
        assert parses == 0 and again == first
    assert path.stat().st_mtime_ns == written.st_mtime_ns  # and not rewritten


def test_rows_added_by_another_process_are_read_and_kept(capsys, fresh_contexts,
                                                          table_parses):
    run(capsys, *C3_2_PRODUCT, "1,2,1,3,2", "3,2,1,3,2")
    path = _c3_2_table()
    ours = json.loads(path.read_text())["entries"]
    other = _flagcalc("-m", "flagcalc", *C3_2_PRODUCT, "1,2,1,3,2", "1,2,3,2")
    assert other.returncode == 0, other.stderr
    theirs = json.loads(path.read_text())["entries"]
    assert len(theirs) > len(ours)
    parses, _ = _parses(table_parses, capsys, *C3_2_PRODUCT, "1,3,2,1,3,2", "2,3,2")
    assert parses == 1
    kept = json.loads(path.read_text())["entries"]
    assert len(kept) > len(theirs) and all(e in kept for e in theirs)


def test_tampered_table_reread_in_process(capsys, fresh_contexts, table_parses):
    argv = C3_2_PRODUCT + ["3,2", "1,3,2,1,3,2"]
    _, first = _parses(table_parses, capsys, *argv)
    path = _c3_2_table()
    good = json.loads(path.read_text())
    bad = json.loads(path.read_text())
    for e in bad["entries"]:
        e["c"] = 64
    path.write_text(cache.canonical_json(bad))
    parses, again = _parses(table_parses, capsys, *argv)
    assert parses == 1 and again == first
    assert json.loads(path.read_text()) == good  # the bad file was replaced


def test_new_cache_dir_gets_its_own_table(capsys, fresh_contexts, monkeypatch, tmp_path):
    argv = C3_2_PRODUCT + ["1,2,1,3,2", "3,2,1,3,2"]
    first = run(capsys, *argv)[1]
    assert _c3_2_table().exists()
    monkeypatch.setenv("FLAGCALC_CACHE_DIR", str(tmp_path / "other"))
    assert not _c3_2_table().exists()
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == first
    assert _c3_2_table().exists()
