import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # a cache file was actually written and reused
    from flagcalc import roots
    R = roots.build("B", 2)
    assert cache.table_path(R, [2]).exists()


def test_verify_jobs_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--group", "B3", "--cross", "2", "--s", "3",
        "--nmax", "1", "--jobs", "1", "--out", str(a))
    run(capsys, "verify", "--group", "B3", "--cross", "2", "--s", "3",
        "--nmax", "1", "--jobs", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_tuple_cap(capsys, monkeypatch):
    monkeypatch.setenv("FLAGCALC_TUPLE_CAP", "5")
    code, _, err = run(capsys, "verify", "--group", "C3", "--cross", "2",
                       "--s", "3", "--nmax", "1")
    assert code == 2 and "cap" in err


def test_verify_requires_s3(capsys):
    code, _, err = run(capsys, "verify", "--group", "A2", "--cross", "1", "--s", "2")
    assert code == 2 and "--s" in err


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


def test_corrupt_cache_ignored(capsys, tmp_path):
    from flagcalc import roots
    out1 = tmp_path / "r1.json"
    run(capsys, "verify", "--group", "B2", "--cross", "1", "--s", "3",
        "--nmax", "1", "--out", str(out1))
    path = cache.table_path(roots.build("B", 2), [1])
    assert path.exists()
    path.write_text("{not json")
    out2 = tmp_path / "r2.json"
    code, _, _ = run(capsys, "verify", "--group", "B2", "--cross", "1", "--s", "3",
                     "--nmax", "1", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    # wrong schema version is ignored too
    path.write_text(cache.canonical_json({"schema_version": 999, "group": "B2",
                                          "levi_simple": [2], "entries": []}))
    code, _, _ = run(capsys, "verify", "--group", "B2", "--cross", "1", "--s", "3",
                     "--nmax", "1", "--out", str(out2))
    assert code == 0 and out1.read_bytes() == out2.read_bytes()


def _flagcalc(*argv, optimize=False):
    """Run flagcalc in a fresh interpreter (optionally under python -O)."""
    env = dict(os.environ, PYTHONPATH=str(Path(flagcalc.__file__).parents[1]))
    cmd = [sys.executable] + (["-O"] if optimize else []) + list(argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600)


def test_exactness_checks_survive_python_O(tmp_path, monkeypatch):
    probe = ("from flagcalc.roots import ExactnessError\n"
             "from flagcalc.schubert import divide_linear\n"
             "try:\n"
             "    divide_linear({(1, 0): 3}, {0: 2})\n"
             "except ExactnessError:\n"
             "    print(__debug__, 'raised')\n")
    res = _flagcalc("-c", probe, optimize=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "raised"]
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

    argv = ["-m", "flagcalc", "product", "--group", "C3", "--cross", "2", "3,2",
            "1,3,2,1,3,2"]
    first = _flagcalc(*argv)
    assert first.returncode == 0 and last_json(first.stdout)["pretty"] == "1*[2]"
    R = roots.build("C", 3)
    P = roots.parabolic(R, crossed=[2])
    path = cache.table_path(R, [2])
    assert cache.load_table(CupRing(R, P)) > 0
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left
    good = json.loads(path.read_text())
    bad = json.loads(path.read_text())
    for e in bad["entries"]:
        e["c"] = 64
    no_digest = dict(bad)
    del no_digest["entries_sha256"]
    for doc in (bad, no_digest):
        path.write_text(cache.canonical_json(doc))
        assert cache.load_table(CupRing(R, P)) == 0
        # a fresh process, so no in-memory row hides the file
        again = _flagcalc(*argv)
        assert again.returncode == 0 and again.stdout == first.stdout
        # the recomputed table replaced the bad file
        assert json.loads(path.read_text()) == good
