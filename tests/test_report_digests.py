import contextlib
import hashlib
import importlib.util
import io
import shutil
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TINY = [("A2", "1", 3, 1), ("B2", "2", 4, 2)]
TINY_COMMANDS = [["fulton", "--rows", "1", "--cols", "1", "--nmax", "2"]]


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # the script imports bench_pairs
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPTS / "report_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "SWEEPS", TINY)
    monkeypatch.setattr(mod, "COMMANDS", TINY_COMMANDS)
    return mod


def _in_process_digest(argv):
    from flagcalc.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_digests_match_the_report_bytes_and_a_copy_of_the_tree(monkeypatch, capsys):
    """Each printed digest is the sha256 of the report flagcalc writes, and a
    base tree with the same src/ matches on every run."""
    mod = _load(monkeypatch)
    monkeypatch.setattr(mod, "export", lambda rev, dest: shutil.copytree(
        mod.ROOT / "src", Path(dest) / "src"))
    assert mod.main(["--base", "REV"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cmds = mod.runs()
    assert len(cmds) == len(lines) - 1 == 3 and cmds[-1] == TINY_COMMANDS[0]
    assert lines[-1] == "3 of 3 runs match REV"
    for argv, line in zip(cmds, lines):
        want = _in_process_digest(argv)
        assert line.split()[:5] == ["same", want, "exit", "0", "base"]
        assert line.split()[5] == want


def test_a_differing_base_exits_1(monkeypatch, capsys):
    """A base whose flagcalc writes other bytes is reported and fails the run."""
    mod = _load(monkeypatch)

    def fake_export(rev, dest):
        pkg = Path(dest) / "src" / "flagcalc"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "__main__.py").write_text("print('another report')\n")

    monkeypatch.setattr(mod, "export", fake_export)
    assert mod.main(["--base", "REV"]) == 1
    out = capsys.readouterr().out
    assert out.count("DIFFER") == 3 and "0 of 3 runs match REV" in out
