#!/usr/bin/env python3
"""Alternated benchmark pairs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base REV [--workload verify-levi ...]
        [--pairs 10] [--seconds 40] [--seed-start 1]

Exports REV and the working tree with `git archive` into two temporary
directories and runs `python3 perfbench/run.py --workload W --seed S --seconds
T` in each, once each per pair, the base first on odd pairs; pair k runs seed
seed-start + k - 1 on both sides.  The working tree is taken as `git add -A`
would stage it (tracked edits and untracked files that are not ignored),
through a scratch index that leaves the repository's own index as it is.
--workload may be given more than once; the default is every workload
BENCHMARK.json lists, each run on its own (never perfbench's "all").  Refuses
to start when perfbench/ or BENCHMARK.json differ between REV and the working
tree, so both sides run the same benchmark code.  Exits 1 as soon as a run's
last output line is not a JSON object with "correct": true.

Prints every pair's end-to-end metrics (those BENCHMARK.json names), then per
workload and metric both medians and quartiles, the change's wins (ties count
for neither), whether a gain may be claimed (at least ten pairs, the change
ahead in at least nine tenths of them, and the medians apart by more than the
spread between the base's quartiles, in the metric's better direction), and
the no-regression verdict: the change's median is worse than the base's by
at most the metric's BENCHMARK.json bound, a fraction of the base median.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def last_json(stdout):
    """The run's summary object, or None unless it reads "correct": true."""
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and doc.get("correct") is True else None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(base, change, better):
    """Medians, quartiles, wins and the gain rule for paired samples of one
    metric; better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    med_b, med_c = statistics.median(base), statistics.median(change)
    q_b, q_c = quartiles(base), quartiles(change)
    gain = sign * (med_c - med_b)
    holds = len(base) >= 10 and 10 * wins >= 9 * len(base) and gain > q_b[1] - q_b[0]
    return {"pairs": len(base), "wins": wins, "base_median": med_b, "change_median": med_c,
            "base_quartiles": q_b, "change_quartiles": q_c, "holds": holds}


def within_bound(base_median, change_median, better, bound):
    """False when the change's median is worse than the base's by more than
    bound times the base median, in the metric's better direction."""
    sign = 1 if better == "higher" else -1
    return sign * (change_median - base_median) >= -bound * abs(base_median)


def export(rev, dest):
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def snapshot():
    """A git tree object of the working tree as `git add -A` would stage it,
    built in a scratch index."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        subprocess.run(["git", "add", "-A"], cwd=ROOT, env=env, check=True)
        return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True).stdout.strip()


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return last_json(proc.stdout), proc


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append",
                    help="a workload of BENCHMARK.json; repeatable (default: all of them)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed-start", type=int, default=1)
    args = ap.parse_args()

    change = snapshot()
    same = subprocess.run(["git", "diff", "--quiet", args.base, change, "--", "perfbench",
                           "BENCHMARK.json"], cwd=ROOT)
    if same.returncode != 0:
        print(f"error: perfbench/ or BENCHMARK.json differ from {args.base} "
              f"(or {args.base} is not a revision)", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    samples = {}  # "workload.metric" -> {"base": [...], "change": [...]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export(args.base, trees["base"])
        export(change, trees["change"])
        for workload in workloads:
            for k in range(1, args.pairs + 1):
                seed = args.seed_start + k - 1
                sides = list(trees.items())
                docs = {}
                for side, tree in sides if k % 2 else sides[::-1]:
                    doc, proc = run_once(tree, workload, seed, args.seconds)
                    if doc is None:
                        print(f"error: {workload} pair {k} {side} run (seed {seed}) is not "
                              f"correct:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}",
                              file=sys.stderr)
                        return 1
                    docs[side] = doc["metrics"]
                for name in sorted(docs["base"]):
                    if name.rsplit(".", 1)[-1] in metrics and name in docs["change"]:
                        key = f"{workload}.{name}"
                        b, c = docs["base"][name]["value"], docs["change"][name]["value"]
                        samples.setdefault(key, {"base": [], "change": []})
                        samples[key]["base"].append(b)
                        samples[key]["change"].append(c)
                        print(f"pair {k:2d} seed {seed:3d} {key:42s} {b:>12.6g} -> {c:<12.6g}",
                              flush=True)
    print()
    for key, s in samples.items():
        m = metrics[key.rsplit(".", 1)[-1]]
        r = summarize(s["base"], s["change"], m["better"])
        ok = within_bound(r["base_median"], r["change_median"], m["better"], m["bound"])
        print(f"{key:42s} median {r['base_median']:.6g} -> {r['change_median']:.6g}  "
              f"quartiles {r['base_quartiles'][0]:.6g}-{r['base_quartiles'][1]:.6g} -> "
              f"{r['change_quartiles'][0]:.6g}-{r['change_quartiles'][1]:.6g}  "
              f"wins {r['wins']}/{r['pairs']}  gain rule {'holds' if r['holds'] else 'fails'}  "
              f"bound {m['bound']:g} {'kept' if ok else 'EXCEEDED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
