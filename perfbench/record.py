#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Writes perfbench/expected.json:
  sweeps   {verify argv: {"tuple_count", "sha256"}} for every sweep battery
  queries  {slot: [[argv, sha256 of the answer], ...]}, the fixed query pool

Run from the repository root, after a change that is meant to alter outputs:

    python3 perfbench/record.py

Every recorded sweep must report zero violations, and every pool answer must
pass the structural checks of workloads.py, or nothing is written.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    out = buf.getvalue()
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {rc}")
    canonical, doc = workloads.is_canonical(out)
    if not canonical:
        raise SystemExit(f"{' '.join(argv)}: output is not canonical JSON")
    return out, doc


def main():
    scratch = ROOT / ".perfbench" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    os.environ.pop("FLAGCALC_TUPLE_CAP", None)
    from flagcalc import cli, lr

    try:
        # answers do not depend on the disk cache; a fresh one per slot keeps
        # the tables, and so each request, small
        contexts = {p: cli.flag_context(*p) for p in workloads.QUERY_PARABOLICS}
        dims = {(workloads.group_name(p), workloads.cross_arg(p)): contexts[p].parabolic.dim_gp
                for p in contexts}
        pool = workloads.make_pool(contexts, lr.partitions_in_box)
        queries = {}
        for k, (slot, entries) in enumerate(pool.items()):
            os.environ["FLAGCALC_CACHE_DIR"] = str(scratch / f"queries{k}")
            queries[slot] = []
            for argv in entries:
                out, doc = call(cli, argv)
                err = workloads.check_answer(argv, doc, dims)
                if err:
                    raise SystemExit(f"{' '.join(argv)}: {err}")
                queries[slot].append([argv, hashlib.sha256(out.encode()).hexdigest()])
            print(f"{slot}: {len(entries)} requests", file=sys.stderr)

        # reports do not depend on the disk cache either; this one starts empty
        os.environ["FLAGCALC_CACHE_DIR"] = str(scratch / "sweeps")
        sweeps = {}
        for spec in workloads.SWEEPS.values():
            for p in spec["battery"]:
                argv = workloads.verify_argv(p, spec["nmax"])
                if " ".join(argv) in sweeps:
                    continue
                out, doc = call(cli, argv)
                if doc["violations"]:
                    raise SystemExit(f"{' '.join(argv)}: {doc['violations']} violations")
                sweeps[" ".join(argv)] = {"tuple_count": doc["tuple_count"],
                                          "sha256": hashlib.sha256(out.encode()).hexdigest()}
                print(f"{' '.join(argv)}: {doc['tuple_count']} tuples", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # one pool entry or sweep per line, so that a re-recording diffs readably
    lines = ['{"queries": {']
    for n, slot in enumerate(sorted(queries)):
        lines.append(f" {json.dumps(slot)}: [")
        lines += [f"  {json.dumps(e)}," for e in queries[slot]]
        lines[-1] = lines[-1].rstrip(",")
        lines.append(" ]," if n < len(queries) - 1 else " ]")
    lines.append('}, "sweeps": {')
    lines += [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}," for k, v in sorted(sweeps.items())]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}}")
    workloads.EXPECTED_PATH.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
