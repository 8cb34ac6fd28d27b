#!/usr/bin/env python3
"""flagcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

Runs from the repository root.  Workloads (see workloads.py and README.md):
verify-schubert, verify-levi, queries, and verify-warm, which BENCHMARK.json
does not list.

Every process below is a fresh `worker.py` with its own disk-cache directory
under .perfbench/, removed at the end.  A run makes passes while another
pass still fits in --seconds (at least one).  A sweep pass verifies each
parabolic of the battery in its own process, in the order the seed gives, as
separate `flagcalc verify` invocations would; verify-warm first fills a disk
cache with one cold pass and copies it into every timed process.  A queries
pass is one process sending the whole query pool.  Every metric of a pass is
taken over that pass alone, and a run reports the median over its passes, so
the mix behind a figure never depends on how many passes fitted.  Set-up-only
processes, one before each pass and the rest after the last, give the set-up
samples.

--trace 0 prints the end-to-end metrics, --trace 1 one untraced and one
traced pass, each in a single process, and the per-layer metrics of the
traced one, plus the tracing overhead.  The last line of output is one JSON
object; the exit code is 0 only if every output check passed.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170


class Run:
    """The worker processes of one benchmark run and what they reported."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.warm = workdir / "warm" if workload == "verify-warm" else None
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.setups = []       # setup_s of the set-up-only processes
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode, tag, parabolic=None, warm=True, trace_out=None, cache=None):
        out = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--mode", mode, "--seed", str(self.seed), "--out", str(out)]
        if parabolic:
            cmd += ["--parabolic", parabolic]
        if warm and self.warm:
            cmd += ["--warm-from", str(self.warm)]
        if trace_out:
            cmd += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
                   FLAGCALC_CACHE_DIR=str(cache or self.workdir / f"cache-{tag}"))
        env.pop("FLAGCALC_TUPLE_CAP", None)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            print(f"worker {tag} timed out", file=sys.stderr)
            proc = None
        if proc is None or proc.returncode != 0 or not out.exists():
            self.attempted += 1
            self.failed += 1
            return None
        result = json.loads(out.read_text())
        for op in result["ops"]:
            self.attempted += 1
            if op["error"]:
                self.failed += 1
                print(f"FAILED {self.workload} {op['id']}: {op['error']}", file=sys.stderr)
        return result

    def one_pass(self, tag, whole=False, trace_out=None):
        """The worker results of one pass, or None if a worker failed.  A
        sweep pass takes one process per parabolic unless `whole`."""
        if self.workload == "queries":
            r = self.spawn("stream", tag, trace_out=trace_out)
            return [r] if r else None
        if whole:
            r = self.spawn("sweep", tag, trace_out=trace_out)
            return [r] if r else None
        results = []
        for k, p in enumerate(workloads.sweep_order(self.workload, self.seed)):
            r = self.spawn("sweep", f"{tag}-{k}", parabolic=workloads.label(p))
            if r is None:
                return None
            results.append(r)
        return results

    def fill_warm_cache(self):
        """verify-warm: one cold pass writing into the cache every timed
        process copies.  True if there is nothing to fill or it went well."""
        if self.warm is None:
            return True
        return self.spawn("sweep", "fill", warm=False, cache=self.warm) is not None

    def setup_probe(self):
        """Take one set-up sample; False if the worker failed."""
        r = self.spawn("setup", f"setup{len(self.setups)}")
        if r is not None:
            self.setups.append(r["setup_s"])
        return r is not None


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def pass_figures(workload, results):
    """(operations per second, p50 and p90 latency in s, peak RSS in MB) of
    one pass."""
    ops = [op for r in results for op in r["ops"]]
    latencies = [op["latency_s"] for op in ops]
    done = len(ops) if workload == "queries" else sum(op["tuples"] for op in ops)
    return (done / sum(latencies), percentile(latencies, 50), percentile(latencies, 90),
            max(r["rss_mb"] for r in results))


def end_to_end(run, passes):
    """End-to-end metrics: medians over the timed passes and the set-up
    samples."""
    rate, p50, p90, rss = zip(*(pass_figures(run.workload, p) for p in passes))
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "ops_per_s": (statistics.median(rate), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(p50), "ms"),
        "latency_p90_ms": (1000 * statistics.median(p90), "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def timed_passes(run, seconds):
    """Passes over the workload while another one still fits in `seconds`,
    each after one set-up sample, then set-up samples up to SETUP_SAMPLES.
    Spreading the set-up samples over the run keeps a slow spell of the
    machine from landing on all of them."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        p = run.one_pass(f"pass{len(passes)}") if run.setup_probe() else None
        if p is None:
            return []
        passes.append(p)
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    while len(run.setups) < SETUP_SAMPLES and time.perf_counter() < run.deadline:
        if not run.setup_probe():
            return []
    return passes


def trace_path(run):
    path = WORK / "traces" / f"{run.workload}-seed{run.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def run_workload(workload, seed, seconds, trace):
    """(result object, human-readable lines) for one run."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plain = traced = None
    try:
        run = Run(workload, seed, workdir)
        if run.fill_warm_cache():
            if trace:
                plain = run.one_pass("plain", whole=True)
                traced = plain and run.one_pass("traced", whole=True,
                                                trace_out=trace_path(run))
            else:
                plain = timed_passes(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = bool(plain) and (traced or not trace) and (trace or run.setups) and run.failed == 0
    if not ok:
        return {"correct": False, "attempted": max(1, run.attempted),
                "failed": max(1, run.failed), "metrics": {}}, []
    if trace:
        metrics = dict(traced[0]["layers"])
        overhead = (sum(op["latency_s"] for op in traced[0]["ops"])
                    - sum(op["latency_s"] for op in plain[0]["ops"]))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        phases = "1 untraced and 1 traced pass"
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(run, plain).items()}
        phases = f"{len(plain)} timed pass(es), {len(run.setups)} set-up samples"
    lines = [f"{workload:16s} {k:34s} {m['value']:>14.6g} {m['unit']}"
             for k, m in metrics.items()]
    lines.append(f"{workload:16s} {'failed_frac':34s} {run.failed / run.attempted:>14.6g} "
                 f"ratio ({run.failed}/{run.attempted}; {phases})")
    return {"correct": True, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind like on Ctrl-C: subprocess.run kills and waits for
    # the running worker, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "flagcalc" / "__init__.py").is_file():
        print(f"error: no flagcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not workloads.EXPECTED_PATH.is_file():
        print(f"error: {workloads.EXPECTED_PATH} is missing", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        summary["metrics"].update({prefix + k: m for k, m in result["metrics"].items()})
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
