import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

BASE = [100, 104, 96, 102, 98, 101, 99, 103, 97, 100]  # quartiles 98.25-101.75


def test_summary_of_a_clear_gain():
    r = summarize(BASE, [x + 20 for x in BASE], "higher")
    assert r["pairs"] == 10 and r["wins"] == 10 and r["holds"]
    assert r["base_median"] == 100 and r["change_median"] == 120
    assert r["base_quartiles"] == pytest.approx((98.25, 101.75))
    assert r["change_quartiles"] == pytest.approx((118.25, 121.75))


def test_one_loss_in_ten_still_holds_two_do_not():
    change = [x + 20 for x in BASE]
    change[3] = 90
    assert summarize(BASE, change, "higher")["wins"] == 9
    assert summarize(BASE, change, "higher")["holds"]
    change[4] = 90
    assert summarize(BASE, change, "higher")["wins"] == 8
    assert not summarize(BASE, change, "higher")["holds"]


def test_ties_count_for_neither():
    change = [x + 20 for x in BASE]
    change[0] = BASE[0]
    r = summarize(BASE, change, "higher")
    assert r["wins"] == 9 and r["holds"]
    change[1] = BASE[1]
    assert not summarize(BASE, change, "higher")["holds"]


def test_gap_must_exceed_the_base_spread():
    # every pair won, but by less than the base's quartile spread of 3.5
    r = summarize(BASE, [x + 3 for x in BASE], "higher")
    assert r["wins"] == 10 and not r["holds"]
    assert summarize(BASE, [x + 4 for x in BASE], "higher")["holds"]


def test_lower_is_better_direction():
    r = summarize(BASE, [x - 20 for x in BASE], "lower")
    assert r["wins"] == 10 and r["holds"]
    r = summarize(BASE, [x + 20 for x in BASE], "lower")
    assert r["wins"] == 0 and not r["holds"]


def test_fewer_than_ten_pairs_never_hold():
    r = summarize(BASE[:9], [x + 20 for x in BASE[:9]], "higher")
    assert r["wins"] == 9 and not r["holds"]
    r = summarize([5.0], [9.0], "higher")
    assert r["base_quartiles"] == (5.0, 5.0) and not r["holds"]


def test_last_line_must_read_correct_true():
    ok = 'workload line\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n'
    assert bench_pairs.last_json(ok)["attempted"] == 3
    assert bench_pairs.last_json('{"correct": false, "metrics": {}}') is None
    assert bench_pairs.last_json('{"correct": true}\nTraceback ...') is None
    assert bench_pairs.last_json("") is None


def test_bound_is_a_fraction_of_the_base_median():
    within_bound = bench_pairs.within_bound
    # higher is better: 25% below a median of 100 is the edge
    assert within_bound(100, 75, "higher", 0.25)
    assert not within_bound(100, 74.9, "higher", 0.25)
    assert within_bound(100, 500, "higher", 0.25)
    # lower is better: 15% above a median of 20 MB is the edge
    assert within_bound(20, 23, "lower", 0.15)
    assert not within_bound(20, 23.1, "lower", 0.15)
    assert within_bound(20, 1, "lower", 0.15)


def test_workloads_default_to_benchmark_json(monkeypatch):
    """With no --workload, every BENCHMARK.json workload runs on its own, never
    perfbench's "all"; a repeated --workload runs just those, in order."""
    import json
    import subprocess
    import sys
    ran = []

    def fake_run_once(tree, workload, seed, seconds):
        ran.append(workload)
        return {"correct": True, "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}, None

    def fake_subprocess_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda: "TREE")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    listed = [w["name"] for w in json.loads(
        (bench_pairs.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--pairs", "1"])
    assert bench_pairs.main() == 0
    assert ran == [w for w in listed for side in ("base", "change")]
    ran.clear()
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--pairs", "2",
                                      "--workload", "queries", "--workload", "verify-levi"])
    assert bench_pairs.main() == 0
    assert ran == ["queries"] * 4 + ["verify-levi"] * 4


def test_both_sides_run_exports_and_the_change_carries_uncommitted_work(tmp_path, monkeypatch):
    """The base runs an export of REV and the change an export of the working
    tree: a tracked edit and an untracked file reach it, an ignored file does
    not, neither side runs in the checkout, and its index is left as it was."""
    import json
    import subprocess
    import sys
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout

    (repo / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "mod.py").write_text("committed\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "mod.py").write_text("edited\n")
    (repo / "new.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    status = git("status", "--porcelain")
    seen = []

    def fake_run_once(tree, workload, seed, seconds):
        tree = Path(tree)
        seen.append((tree, (tree / "mod.py").read_text(), (tree / "new.py").exists(),
                     (tree / "ignored.txt").exists()))
        return {"correct": True, "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}, None

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--pairs", "2"])
    assert bench_pairs.main() == 0
    # pair 1 runs the base first, pair 2 the change first
    base, change = seen[0], seen[1]
    assert seen[2:] == [change, base]
    assert base[1:] == ("committed\n", False, False)
    assert change[1:] == ("edited\n", True, False)
    assert all(repo not in tree.parents and tree != repo for tree, *_ in seen)
    assert git("status", "--porcelain") == status
