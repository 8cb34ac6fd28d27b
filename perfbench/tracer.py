"""Span tracer for the flagcalc benchmark.

The tracer wraps flagcalc's public functions and methods at the names their
callers look up (module attributes and class attributes), so nothing under
src/ changes.  Each call records a span [name, start, end, parent, request]
in memory, one column per field so that recording allocates no object the
garbage collector has to scan; the spans are written out when the process
ends.  Hit and miss counts come from repeated arguments and from the public
`known_rows()`.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        # span k: names[k], starts[k], ends[k], parents[k] (index or -1), requests[k]
        self.names, self.starts, self.ends, self.parents, self.requests = [], [], [], [], []
        self.request = None
        self.counts = Counter()
        self._stack = []
        self._rows = {}          # id(ring) -> (rows requested, rows served from disk)
        self._seen = {}          # (layer, id(owner)) -> arguments seen
        self._contexts = set()

    # -- recording -------------------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a recording wrapper.

        before(args, kwargs) may return another span name; after(args, result,
        span index) runs once the span has ended.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = self._open((before(args, kwargs) if before else None) or name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(k)
            if after:
                after(args, out, k)
            return out

        setattr(owner, attr, traced)

    def _open(self, name):
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(k)
        self.starts.append(time.perf_counter())
        return k

    def _close(self, k):
        self.ends[k] = time.perf_counter()
        self._stack.pop()

    def count(self, owner, attr, counter):
        """Replace owner.attr by a wrapper that only counts calls (no span)."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span recorded by the benchmark itself."""
        k = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(k)

    def install(self):
        from flagcalc import cache, cli, context, deformed, levi, lr, roots, schubert, weyl
        w = self.wrap
        w(cli, "flag_context", "context.lookup", before=self._context_before)
        w(roots, "build", "roots.build")
        w(context, "minimal_coset_reps", "weyl.coset_table")
        w(weyl.CosetTable, "element_from_word", "weyl.from_word")
        w(schubert.CupRing, "row", "schubert.row", before=self._row_before)
        w(schubert.SchubertEngine, "rep", "schubert.rep", before=self._rep_before)
        w(schubert.SchubertEngine, "extract", "schubert.extract", after=self._extract_after)
        w(deformed.DeformedRing, "top_coefficient", "deformed.top")
        self.count(deformed.DeformedRing, "row", "deformed.row.calls")
        self.count(deformed.DeformedRing, "chi", "deformed.chi.calls")
        w(levi.LeviSystem, "invariant_dimension", "levi.invdim")
        w(levi.LeviSystem, "tensor_decompose", "levi.tensor",
          before=self._first_seen("levi.tensor", "levi.tensor.misses", symmetric=True))
        w(levi.LeviSystem, "dominant_weight_multiplicities", "levi.freudenthal",
          before=self._first_seen("levi.freudenthal", "levi.freudenthal.misses"))
        w(cache, "load_table", "cache.load", after=self._load_after)
        w(cache, "save_table", "cache.save", after=self._save_after)
        w(cache, "canonical_json", "cache.canonical_json",
          before=self._json_before, after=self._json_after)
        w(lr, "lr_coefficient", "lr.coefficient")

    # -- hooks -----------------------------------------------------------------

    def _parent_name(self):
        return self.names[self._stack[-1]] if self._stack else None

    def _context_before(self, args, kwargs):
        letter, rank = args[0], args[1]
        crossed = args[2] if len(args) > 2 else kwargs.get("crossed", ())
        key = (str(letter).upper(), int(rank), tuple(sorted(int(c) for c in crossed)))
        if key in self._contexts:
            return None
        self._contexts.add(key)
        return "context.build"

    # Rows and representatives are keyed by the identity of their W^P
    # elements: callers pass the stored canonical copies, and hashing an
    # element itself costs more than the call being counted.

    def _row_before(self, args, kwargs):
        ring, a, b = args[0], id(args[1]), id(args[2])
        key = (a, b) if a < b else (b, a)
        requested, disk = self._rows.setdefault(id(ring), (set(), set()))
        if key not in requested:
            requested.add(key)
            self.counts["schubert.row.distinct"] += 1
            if key in disk:
                self.counts["cache.rows_from_disk"] += 1
            else:
                self.counts["schubert.row.computed"] += 1
        return None

    def _rep_before(self, args, kwargs):
        seen = self._seen.setdefault(("schubert.rep", id(args[0])), set())
        if id(args[1]) not in seen:
            seen.add(id(args[1]))
            self.counts["schubert.rep.cached"] += 1
        return None

    def _first_seen(self, layer, counter, symmetric=False):
        def before(args, kwargs):
            owner = args[0]
            key = tuple(tuple(a) if isinstance(a, list) else a for a in args[1:])
            if symmetric:
                key = tuple(sorted(key))
            seen = self._seen.setdefault((layer, id(owner)), set())
            if key not in seen:
                seen.add(key)
                self.counts[counter] += 1
            return None
        return before

    def _extract_after(self, args, out, k):
        if out:
            self.counts["schubert.extract.nonzero"] += 1

    def _load_after(self, args, out, k):
        ring = args[0]
        self.counts["cache.load.rows"] += out
        requested, disk = self._rows.setdefault(id(ring), (set(), set()))
        for u, v in ring.known_rows():
            key = (id(u), id(v)) if id(u) < id(v) else (id(v), id(u))
            if key not in requested:
                disk.add(key)

    def _save_after(self, args, path, k):
        self.counts["cache.save.bytes"] += path.stat().st_size

    def _json_before(self, args, kwargs):
        return "cli.emit" if self._parent_name() == "cli.main" else None

    def _json_after(self, args, text, k):
        if self.names[k] == "cli.emit":
            self.counts["cli.emit.bytes"] += len(text)

    # -- reporting ---------------------------------------------------------------

    def layer_metrics(self, timed_start, timed_end):
        """Per-layer metrics; shares are of the timed phase's wall time."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        child = [0.0] * len(names)
        for k, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[k] - starts[k]
        calls, incl, own = Counter(), Counter(), Counter()
        top = Counter()  # time in a layer entered from outside it, timed phase only
        for k, name in enumerate(names):
            dur = ends[k] - starts[k]
            calls[name] += 1
            incl[name] += dur
            own[name] += dur - child[k]
            if starts[k] >= timed_start and ends[k] <= timed_end:
                layer = name.split(".")[0]
                parent = names[parents[k]] if parents[k] >= 0 else ""
                if parent.split(".")[0] != layer:
                    top[layer] += dur
                if parent != name:
                    top[name] += dur
        c = self.counts
        wall = timed_end - timed_start

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "context.builds": (calls["context.build"], "count"),
            "context.build_s": (incl["context.build"], "s"),
            "weyl.coset_table_s": (incl["weyl.coset_table"], "s"),
            "roots.build_s": (incl["roots.build"], "s"),
            "weyl.from_word.calls": (calls["weyl.from_word"], "count"),
            "weyl.from_word_s": (incl["weyl.from_word"], "s"),
            "schubert.row.calls": (calls["schubert.row"], "count"),
            "schubert.row.computed": (c["schubert.row.computed"], "count"),
            "schubert.row.hit_ratio": (ratio(calls["schubert.row"] - c["schubert.row.computed"],
                                             calls["schubert.row"]), "ratio"),
            "schubert.row.self_s": (own["schubert.row"], "s"),
            "schubert.rep.calls": (calls["schubert.rep"], "count"),
            "schubert.rep.self_s": (own["schubert.rep"], "s"),
            "schubert.rep.cached": (c["schubert.rep.cached"], "count"),
            "schubert.extract.calls": (calls["schubert.extract"], "count"),
            "schubert.extract.self_s": (own["schubert.extract"], "s"),
            "schubert.extract.nonzero_ratio": (ratio(c["schubert.extract.nonzero"],
                                                     calls["schubert.extract"]), "ratio"),
            "deformed.top.calls": (calls["deformed.top"], "count"),
            "deformed.top.self_s": (own["deformed.top"], "s"),
            "deformed.row.calls": (c["deformed.row.calls"], "count"),
            "deformed.chi.calls": (c["deformed.chi.calls"], "count"),
            "levi.invdim.calls": (calls["levi.invdim"], "count"),
            "levi.invdim.self_s": (own["levi.invdim"], "s"),
            "levi.tensor.calls": (calls["levi.tensor"], "count"),
            "levi.tensor.self_s": (own["levi.tensor"], "s"),
            "levi.tensor.hit_ratio": (ratio(calls["levi.tensor"] - c["levi.tensor.misses"],
                                            calls["levi.tensor"]), "ratio"),
            "levi.freudenthal.calls": (calls["levi.freudenthal"], "count"),
            "levi.freudenthal.self_s": (own["levi.freudenthal"], "s"),
            "levi.freudenthal.hit_ratio": (
                ratio(calls["levi.freudenthal"] - c["levi.freudenthal.misses"],
                      calls["levi.freudenthal"]), "ratio"),
            "cache.load.calls": (calls["cache.load"], "count"),
            "cache.load_s": (own["cache.load"], "s"),
            "cache.load.rows": (c["cache.load.rows"], "count"),
            "cache.save.calls": (calls["cache.save"], "count"),
            "cache.save_s": (incl["cache.save"], "s"),
            "cache.save.bytes": (c["cache.save.bytes"], "bytes"),
            "cache.warm_hit_ratio": (ratio(c["cache.rows_from_disk"],
                                           c["schubert.row.distinct"]), "ratio"),
            "lr.coefficient.calls": (calls["lr.coefficient"], "count"),
            "lr.coefficient.self_s": (own["lr.coefficient"], "s"),
            "cli.emit_s": (incl["cli.emit"], "s"),
            "cli.emit.bytes": (c["cli.emit.bytes"], "bytes"),
            "cli.verify.candidates": (c["cli.verify.candidates"], "count"),
            "cli.verify.tuples": (c["cli.verify.tuples"], "count"),
            "schubert.share": (ratio(top["schubert"], wall), "ratio"),
            "schubert.row.share": (ratio(top["schubert.row"], wall), "ratio"),
            "levi.share": (ratio(top["levi"], wall), "ratio"),
            "levi.invdim.share": (ratio(top["levi.invdim"], wall), "ratio"),
            "cache.share": (ratio(top["cache"], wall), "ratio"),
            "trace.spans": (len(names), "count"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for k, name in enumerate(self.names):
                fh.write(json.dumps([name, round(self.starts[k] - t0, 9),
                                     round(self.ends[k] - t0, 9), self.parents[k],
                                     self.requests[k]]) + "\n")
