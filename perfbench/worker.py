#!/usr/bin/env python3
"""One benchmark process: set up, then run one phase of a workload.

run.py starts every phase in a fresh interpreter, so no in-process memo of
flagcalc (flag_context, levi_system, group) carries over from one phase to
the next, nor from one parabolic of a timed sweep to the next.  The disk
cache is whatever FLAGCALC_CACHE_DIR names.  The result is written as JSON
to --out.

Modes:
  setup   imports, every flag_context the workload touches and, with
          --warm-from, copying a filled disk cache into place; then exit
  sweep   setup, then `verify` on the --parabolic named, or one pass over
          the whole battery in the order the seed gives
  stream  setup, then the query stream: the whole pool once, round by round
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_request(cli, argv, tracer, request_id):
    """(exit code, stdout, seconds) of one in-process `flagcalc` call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.request = request_id
                rc = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue(), time.perf_counter() - start


def check_verify(rc, out, expected):
    """(tuple count, error or None) for one verify report.

    A report whose digest matches the recorded one is that report, which had
    zero violations when it was recorded; only a mismatch is parsed, so the
    check adds nothing to the process's peak memory on success.
    """
    if rc != 0:
        return 0, f"exit code {rc}"
    if expected and hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]:
        return expected["tuple_count"], None
    canonical, doc = workloads.is_canonical(out)
    if not canonical:
        return 0, "report is not canonical JSON"
    if doc["violations"]:
        return doc["tuple_count"], f"{doc['violations']} violations"
    if expected is None:
        return doc["tuple_count"], "no recorded report for this sweep"
    if doc["tuple_count"] != expected["tuple_count"]:
        return doc["tuple_count"], (f"tuple_count {doc['tuple_count']}, "
                                    f"recorded {expected['tuple_count']}")
    return doc["tuple_count"], "report differs from the recorded one"


def check_query(argv, rc, out, sha, dims):
    if rc != 0:
        return f"exit code {rc}"
    canonical, doc = workloads.is_canonical(out)
    if not canonical:
        return "answer is not canonical JSON"
    err = workloads.check_answer(argv, doc, dims)
    if err:
        return err
    if hashlib.sha256(out.encode()).hexdigest() != sha:
        return "answer differs from the recorded one"
    return None


def selected(args, battery):
    return [p for p in battery if args.parabolic in (None, workloads.label(p))]


def sweep(cli, args, tracer, sizes):
    nmax = workloads.SWEEPS[args.workload]["nmax"]
    expected = workloads.load_expected()["sweeps"]
    ops = []
    for p in selected(args, workloads.sweep_order(args.workload, args.seed)):
        argv = workloads.verify_argv(p, nmax)
        rc, out, dt = run_request(cli, argv, tracer, workloads.label(p))
        tuples, err = check_verify(rc, out, expected.get(" ".join(argv)))
        if tracer is not None:
            tracer.counts["cli.verify.candidates"] += comb(sizes[p] + workloads.SWEEP_S - 1,
                                                           workloads.SWEEP_S)
            tracer.counts["cli.verify.tuples"] += tuples
        ops.append({"id": workloads.label(p), "latency_s": dt, "tuples": tuples,
                    "error": err})
    return ops


def stream(cli, args, tracer, dims):
    pool = workloads.load_expected()["queries"]
    ops = []
    for round_ in workloads.query_rounds(pool, args.seed):
        for slot, k in round_:
            argv, sha = pool[slot][k]
            rc, out, dt = run_request(cli, argv, tracer, len(ops))
            ops.append({"id": f"{slot}#{k}", "latency_s": dt,
                        "error": check_query(argv, rc, out, sha, dims)})
    return ops


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("setup", "sweep", "stream"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--parabolic", default=None,
                    help="sweep only this parabolic of the battery, e.g. 'C4{1,4}'")
    ap.add_argument("--warm-from", default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from flagcalc import cli

    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    dims, sizes = {}, {}
    for p in selected(args, workloads.parabolics(args.workload)):
        cx = cli.flag_context(p[0], p[1], p[2])
        dims[(workloads.group_name(p), workloads.cross_arg(p))] = cx.parabolic.dim_gp
        sizes[p] = len(cx.ct.elements)
    if args.warm_from:
        cache_dir = Path(os.environ["FLAGCALC_CACHE_DIR"])
        cache_dir.mkdir(parents=True, exist_ok=True)
        for f in sorted(Path(args.warm_from).iterdir()):
            shutil.copyfile(f, cache_dir / f.name)
    result = {"setup_s": time.perf_counter() - T0, "ops": []}

    timed_start = time.perf_counter()
    if args.mode == "sweep":
        result["ops"] = sweep(cli, args, tracer, sizes)
    elif args.mode == "stream":
        result["ops"] = stream(cli, args, tracer, dims)
    timed_end = time.perf_counter()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        result["layers"] = tracer.layer_metrics(timed_start, timed_end)
        tracer.write(args.trace_out)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
