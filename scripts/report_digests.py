#!/usr/bin/env python3
"""sha256 of the reports that a change to flagcalc must leave as they are.

    python3 scripts/report_digests.py [--base REV]

Runs `python3 -m flagcalc ...` for each `verify` sweep of SWEEPS and each
command line of COMMANDS, in a fresh process with the working tree's src/ on
PYTHONPATH, and prints one line per run: the sha256 of its stdout, its exit
code and its arguments.  With --base, also exports REV with `git archive`
into a temporary directory, runs the same command lines there, prints both
digests per run, and exits 1 when any digest or exit code differs.  Each side
gets its own empty FLAGCALC_CACHE_DIR, so `product` starts cold on both and
writes nothing outside the temporary directory.  A run's stderr passes
through.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

# (group, crossed nodes, s, nmax): the benchmark's parabolics, Levis with
# several factors, s = 4 and 5, long tuples, P = G, a wide --nmax, and the
# 243,670 tuples of B4{1,2,3,4}
SWEEPS = [
    ("A4", "1,2,3,4", 3, 3), ("C4", "1,4", 3, 3), ("B3", "1,2,3", 3, 3), ("G2", "1,2", 3, 3),
    ("A5", "3", 3, 5), ("C4", "4", 3, 5), ("D4", "1,3,4", 3, 3), ("C5", "5", 3, 3),
    ("D4", "2", 3, 3), ("B4", "2", 3, 3), ("A7", "1,4", 3, 3),
    ("A3", "1,2,3", 4, 3), ("C3", "1,3", 4, 2), ("D4", "2", 4, 2), ("C3", "2", 4, 3),
    ("B4", "2", 4, 1), ("B3", "2", 5, 2), ("C3", "2", 5, 3),
    ("A2", "1", 900, 1), ("A2", "1", 3, 10), ("A3", "", 3, 3), ("B3", "2", 3, 12),
    ("B4", "1,2,3,4", 3, 1),
]

# the other commands, one run each: wp with the Lagrangian and the
# Grassmannian labeller of lr, on G2 (the "subst" realization), on a
# three-factor Levi of D4 and on the Borel of B3 (48 classes, m_o = 5),
# product plain, deformed and with a crossed node
# listed twice (the parabolic of --cross 2, so the same bytes), invariants on
# G2 and on the Levis A1 x B2 (B4{2}), A2 x A3 (A6{3}), D4 (D5{1}) and A4
# (C5{5}) with counts above 1, invariants and a deformed product on a Borel
# (the rank-0 Levi), fulton in single and sweep mode, roots on every
# supported group (positive roots, highest root and Weyl order), and examples
# (exit 1: its intentional FAIL row)
WORDS = ["1,3,2,1,3,2", "1,3,2,1,3,2", "3,2"]
GROUPS = ([f"A{l}" for l in range(1, 8)] + [f"{t}{l}" for t in "BC" for l in range(2, 6)]
          + ["D4", "D5", "G2"])
COMMANDS = [
    ["wp", "--group", "C3", "--cross", "3"],
    ["wp", "--group", "A3", "--cross", "2"],
    ["wp", "--group", "G2", "--cross", "1"],
    ["wp", "--group", "D4", "--cross", "2"],
    ["wp", "--group", "B3", "--cross", "1,2,3"],
    ["product", "--group", "C3", "--cross", "2", *WORDS],
    ["product", "--group", "C3", "--cross", "2", "--deformed", *WORDS],
    ["product", "--group", "C3", "--cross", "2,2", *WORDS],
    ["invariants", "--group", "G2", "--weights", "6,0", "0,6", "0,7", "--nmax", "2"],
    ["invariants", "--group", "B4", "--cross", "2", "--weights", "1,2,1", "1,2,1", "2,1,2",
     "--nmax", "3"],
    ["invariants", "--group", "A6", "--cross", "3", "--weights", "1,1,2,1,1", "1,0,2,0,2",
     "0,1,2,0,1", "--nmax", "3"],
    ["invariants", "--group", "D5", "--cross", "1", "--weights", "2,2,2,1", "1,0,2,2", "2,0,1,2",
     "--nmax", "3"],
    ["invariants", "--group", "C5", "--cross", "5", "--weights", "1,1,1,2", "1,0,2,2", "2,2,2,1",
     "--nmax", "3"],
    ["invariants", "--group", "A2", "--cross", "1,2", "--weights", "", "", "", "--nmax", "2"],
    ["product", "--group", "A3", "--cross", "1,2,3", "--deformed", "1,2", "2,3", "1"],
    ["fulton", "--lam", "2,1", "--mu", "2,1", "--nu", "4,2", "--nmax", "3"],
    ["fulton", "--rows", "3", "--cols", "2", "--nmax", "4"],
    *(["roots", "--group", g] for g in GROUPS),
    ["examples"],
]


def argv_of(sweep):
    group, crossed, s, nmax = sweep
    return ["verify", "--group", group, "--cross", crossed, "--s", str(s), "--nmax", str(nmax)]


def runs():
    """Every command line whose stdout and exit code are compared."""
    return [argv_of(sweep) for sweep in SWEEPS] + COMMANDS


def digest(tree, argv, cache_dir):
    """(sha256 of stdout, exit code) of `python3 -m flagcalc *argv` on tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), FLAGCALC_CACHE_DIR=cache_dir)
    h = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-m", "flagcalc", *argv], cwd=tree, env=env,
                          stdout=subprocess.PIPE) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest(), proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", help="git revision whose digests must match the working tree's")
    args = ap.parse_args(argv)
    differ, cmds = 0, runs()
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        base, caches = Path(tmp) / "base", Path(tmp) / "caches"
        if args.base:
            export(args.base, base)
        for cmd in cmds:
            got, code = digest(ROOT, cmd, str(caches / "tree"))
            line = f"{got} exit {code}"
            if args.base:
                want, base_code = digest(base, cmd, str(caches / "base"))
                same = (got, code) == (want, base_code)
                differ += not same
                line = (f"{'same' if same else 'DIFFER'}  {got} exit {code}  "
                        f"base {want} exit {base_code}")
            print(f"{line}  {' '.join(cmd)}", flush=True)
    if args.base:
        print(f"{len(cmds) - differ} of {len(cmds)} runs match {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
