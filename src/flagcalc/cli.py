"""flagcalc command line: exact Schubert calculus on G/P and Levi invariants.

Subcommands:
  roots       Cartan/root data of a group
  wp          list W^P with lengths, chi characters, stabilizers, level profiles
  product     expand a cup product (ordinary or deformed) in the Schubert basis
  invariants  tensor-invariant dimensions for Levi weights
  verify      sweep all s-tuples of the expected total degree and check that
              deformed top coefficient 1 forces invariant dimension 1
  fulton      multiplicity-one scaling check for LR coefficients
  examples    recompute the four built-in reference examples

Groups are named like C3, G2; the parabolic is given by the crossed-out
simple nodes (--cross "2" or "1,3"; empty means P = G).  Weyl words are
comma-separated 1-based indices ("1,3,2"); weights are comma-separated
fundamental coordinates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import chain, combinations_with_replacement, groupby, product
from math import comb, prod

from . import cache
from .context import flag_context


def _parse_group(s):
    s = s.strip()
    if len(s) >= 2 and s[0].isalpha():
        with contextlib.suppress(ValueError):
            return s[0].upper(), int(s[1:])
    raise ValueError(f"bad group name {s!r} (expected e.g. A3, C3, G2)")


def _parse_ints(s, what):
    """The comma-separated integers of s, () if blank; what names s in an error."""
    s = s.strip()
    if not s:
        return ()
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(f"{what} {s!r} is not a comma-separated list of integers") from None


@contextlib.contextmanager
def _output(out=None):
    """The stream a report goes to: sys.stdout as it is at call time (so a
    redirect_stdout catches it), or a temporary file that replaces out only
    once the report is complete.  An existing out that is not a regular file
    (/dev/null, a pipe) is written directly.  An out that cannot be opened
    is refused (ValueError)."""
    if not out:
        yield sys.stdout
        return
    path = os.path.realpath(out)
    direct = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if direct else f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        if not direct:
            os.replace(tmp, path)
    except BaseException:
        if not direct:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _emit(doc, out=None):
    text = cache.canonical_json(doc)
    with _output(out) as fh:
        fh.write(text)


def _context(args):
    letter, rank = _parse_group(args.group)
    crossed = _parse_ints(args.cross, "--cross")
    return flag_context(letter, rank, crossed)


def cmd_roots(args):
    letter, rank = _parse_group(args.group)
    from .roots import build, weyl_order
    R = build(letter, rank)
    _emit({
        "group": f"{letter}{rank}",
        "cartan": [list(r) for r in R.cartan],
        "num_positive_roots": len(R.positive_roots),
        "positive_roots": [list(b) for b in R.positive_roots],
        "highest_root": list(R.theta),
        "rho_fund": list(R.rho),
        "weyl_order": weyl_order(R),
    }, args.out)
    return 0


def cmd_wp(args):
    cx = _context(args)
    from . import cells, lr
    R, P = cx.system, cx.parabolic
    labeller = None
    if R.type_letter == "A" and len(P.crossed) == 1:
        labeller = lambda w: {"partition": list(lr.grassmannian_partition(cx.ct, w)),
                              "strict": False}
    elif R.type_letter == "C" and P.crossed == (R.rank,):
        labeller = lambda w: {"partition": list(lr.lagrangian_partition(cx.ct, w)),
                              "strict": True}
    rows = []
    for w in cx.ct.elements:
        chi = cx.deformed.chi(w)
        row = {
            "word": w.word_str(),
            "length": w.length,
            "codim": cx.ct.codim(w),
            "chi_fund_coords": [int(x) for x in chi.weight],
            "chi_levi_coords": [int(x) for x in chi.levi_coords],
            "delta_qw": sorted(cells.stabilizer_simple_roots(cx.ct, w)),
            "dj": list(cells.dj_profile(cx.ct, w).d),
        }
        if labeller:
            row.update(labeller(w))
        rows.append(row)
    _emit({
        "group": cx.system.label,
        "crossed": sorted(cx.parabolic.crossed),
        "levi_simple": sorted(cx.parabolic.levi_simple),
        "dim_gp": cx.parabolic.dim_gp,
        "m_o": cx.parabolic.m_o,
        "count": len(rows),
        "rows": rows,
    }, args.out)
    return 0


def cmd_product(args):
    cx = _context(args)
    ws = [cx.element(_parse_ints(word, "word")) for word in args.words]
    loaded = cache.load_table(cx.ring)
    ring = cx.deformed if args.deformed else cx.ring
    terms = [{"word": w.word_str(), "length": w.length, "coeff": c}
             for w, c in sorted(ring.product(ws).items(),
                                key=lambda kv: (kv[0].length, kv[0].word))]
    if cache.stored_rows(cx.ring) > loaded:
        cache.save_table(cx.ring)
    _emit({
        "group": cx.system.label,
        "crossed": sorted(cx.parabolic.crossed),
        "deformed": bool(args.deformed),
        "words": [w.word_str() for w in ws],
        "terms": terms,
        "pretty": " + ".join(f"{t['coeff']}*[{t['word'] or 'e'}]" for t in terms) or "0",
    }, args.out)
    return 0


def cmd_invariants(args):
    cx = _context(args)
    weights = [_parse_ints(w, "--weights") for w in args.weights]
    ls = cx.levi
    for w in weights:
        if len(w) != ls.rank:
            raise ValueError(f"weight {w} has {len(w)} coordinates, Levi rank is {ls.rank}")
    dims = {str(n): ls.invariant_dimension(weights, n=n)
            for n in range(1, args.nmax + 1)}
    _emit({
        "group": cx.system.label,
        "crossed": sorted(cx.parabolic.crossed),
        "levi_simple": sorted(cx.parabolic.levi_simple),
        "weights": [list(w) for w in weights],
        "invariant_dims": dims,
    }, args.out)
    return 0


def _profiles(dim, s):
    """The length profiles of the s-tuples of total length (s - 1) * dim, as
    lists of (length, multiplicity) with the lengths ascending, in ascending
    lexicographic order of the nondecreasing length sequences.  The
    codimensions dim - l of such a tuple form a partition of dim into at most
    s parts, so the profiles are those partitions, largest part first, in
    descending lexicographic order; the recursion is at most dim deep."""

    def parts(rest, largest, slots):
        if rest == 0:
            yield ()
            return
        for c in range(min(rest, largest), 0, -1):
            if c * slots < rest:
                break  # the slots left cannot hold the rest
            for tail in parts(rest - c, c, slots - 1):
                yield (c,) + tail

    for codims in parts(dim, dim, s):
        lengths = [dim - c for c in codims] + [dim] * (s - len(codims))
        yield [(l, len(list(run))) for l, run in groupby(lengths)]


def _runs(ct, s):
    """The s-multisets of coset-table indices whose lengths sum to
    (s - 1) * dim G/P, in the report's (lengths, words) order, as runs
    (profile, prefix, lasts): the run's tuples are prefix + (c,) for c in the
    range lasts.  Profile by profile, each length block's multisets in index
    order, the blocks in ascending length, so the last class varies fastest:
    over block[l] from the prefix's last class on when the last length l
    appears more than once, else over all of block[l].  Inside a block,
    index order is word order (elements ascend by (length, word)), and it is
    the order of the word strings because every supported rank is at most 9,
    so each letter of a word is one digit."""
    for profile in _profiles(ct.parabolic.dim_gp, s):
        *head, (l, k) = profile
        last = ct.block[l]
        blocks = [combinations_with_replacement(ct.block[m], j) for m, j in head]
        for parts in product(*blocks, combinations_with_replacement(last, k - 1)):
            yield profile, tuple(chain.from_iterable(parts)), (
                range(parts[-1][-1], last.stop) if k > 1 else last)


def _tuple_count(ct, s):
    """The number of tuples _runs(ct, s) yields, without enumerating: per
    profile, the product of the multiset coefficients C(|block| + k - 1, k)."""
    return sum(prod(comb(len(ct.block[l]) + k - 1, k) for l, k in profile)
               for profile in _profiles(ct.parabolic.dim_gp, s))


def _json_int(x):
    """The integer x as cache.canonical_json writes it: a JSON string beyond
    cache._BIG."""
    return str(x) if -cache._BIG <= x <= cache._BIG else f'"{x}"'


def _verify_rows(cx, runs, nmax, write):
    """Verify each tuple of each run and write the report rows,
    comma-separated, one write per run; each row is the text
    cache.canonical_json gives the row's dict: keys sorted, invariant_dims
    keys sorted as strings ("10" before "2"), integers beyond cache._BIG as
    strings.  A row whose tops are 0 is the run's template plus the last
    class's word.  Returns the number of violations."""
    ct, dr, ls = cx.ct, cx.deformed, cx.levi
    els, tops_run = ct.elements, dr.tops_run
    words = [json.dumps(w.word_str()) for w in els]
    violations, sep, shown = 0, "", None
    for profile, prefix, lasts in runs:
        if profile is not shown:  # one profile's runs share their lengths
            shown = profile
            lens = ",".join(str(l) for l, k in profile for _ in range(k))
        head = "".join([words[i] + "," for i in prefix])
        zero = (f'{{"cup_top":0,"deformed_top":0,"invariant_dims":null,"lengths":[{lens}],'
                f'"levi_movable":false,"status":"OK","words":[{head}')
        rows = []
        for c, (d, dt) in zip(lasts, tops_run(prefix, lasts)):
            if not d and not dt:
                rows.append(f"{zero}{words[c]}]}}")
                continue
            dims, status = "null", "OK"
            if dt == 1:
                ws = [dr.chi(els[i]).levi_coords for i in (*prefix, c)]
                vals = {str(n): ls.invariant_dimension(ws, n=n) for n in range(1, nmax + 1)}
                dims = "{" + ",".join(f'"{n}":{_json_int(v)}' for n, v in sorted(vals.items())) + "}"
                if any(v != 1 for v in vals.values()):
                    status = "VIOLATION"
                    violations += 1
            rows.append(f'{{"cup_top":{_json_int(d)},"deformed_top":{_json_int(dt)},'
                        f'"invariant_dims":{dims},"lengths":[{lens}],'
                        f'"levi_movable":{"true" if dt > 0 else "false"},"status":"{status}",'
                        f'"words":[{head}{words[c]}]}}')
        write(sep + ",".join(rows))
        sep = ","
    return violations


def cmd_verify(args):
    if args.s < 3:
        raise ValueError("--s must be at least 3")
    if args.tuple_cap < 0:
        raise ValueError("--tuple-cap must be at least 0")
    cx = _context(args)
    count = _tuple_count(cx.ct, args.s)
    if count > args.tuple_cap:
        raise ValueError(f"more than {args.tuple_cap} tuples of total length "
                         f"{(args.s - 1) * cx.parabolic.dim_gp} (raise --tuple-cap to proceed)")
    # every header key sorts before "tuples", and "violations" after it
    head = cache.canonical_json({
        "schema_version": cache.SCHEMA_VERSION,
        "group": cx.system.label,
        "group_type": cx.system.type_letter,
        "rank": cx.system.rank,
        "crossed": sorted(cx.parabolic.crossed),
        "levi_simple": sorted(cx.parabolic.levi_simple),
        "s": args.s,
        "n_max": args.nmax,
        "dim_gp": cx.parabolic.dim_gp,
        "tuple_count": count,
    })
    with _output(args.out) as fh:
        fh.write(head[:-2] + ',"tuples":[')  # head without its closing "}\n"
        violations = _verify_rows(cx, _runs(cx.ct, args.s), args.nmax, fh.write)
        fh.write(f'],"violations":{violations}}}\n')
    return 0 if violations == 0 else 1


def cmd_fulton(args):
    for name in ("rows", "cols"):
        if getattr(args, name) < 0:
            raise ValueError(f"--{name} must be at least 0")
    from . import lr
    given = [args.lam, args.mu, args.nu]
    if given.count(None) not in (0, 3):  # "" is the empty partition, not absent
        raise ValueError("give all of --lam/--mu/--nu or none")
    if None not in given:
        rep = lr.fulton_check(_parse_ints(args.lam, "--lam"), _parse_ints(args.mu, "--mu"),
                              _parse_ints(args.nu, "--nu"), args.nmax)
        doc = {"mode": "single", "n_max": args.nmax, "report": _fulton_json(rep)}
    else:
        rep = lr.fulton_sweep(args.rows, args.cols, args.nmax)
        doc = {"mode": "sweep", "rows": args.rows, "cols": args.cols,
               "n_max": args.nmax, "box_size": rep["box_size"],
               "checked": rep["checked"],
               "violations": [_fulton_json(v) for v in rep["violations"]]}
    _emit(doc, args.out)
    return 1 if rep["violations"] else 0


def _fulton_json(rep):
    return {"lam": list(rep["lam"]), "mu": list(rep["mu"]), "nu": list(rep["nu"]),
            "c": rep["c"], "applicable": rep["applicable"],
            "scaled": {str(k): v for k, v in rep["scaled"].items()},
            "violations": rep["violations"]}


def reference_example_rows():
    """The four built-in examples; each row carries expected vs computed."""
    from . import lr
    rows = []

    cx = flag_context("C", 3, (3,))
    b = {a: lr.lagrangian_bijection(cx.ct, a) for a in [(1,), (2, 1), (2,)]}
    tup = [b[(1,)], b[(2, 1)], b[(2,)]]
    rows.append(("LG(3,6) intersection number", 2, cx.ring.top_coefficient(tup)))
    rows.append(("LG(3,6) deformed top (cominuscule)", 2,
                 cx.deformed.top_coefficient(tup)))
    ls3 = cx.levi
    rows.append(("LG(3,6) Levi invariant dimension", 1,
                 ls3.invariant_dimension([(2, 0), (0, 3), (2, 1)])))

    cx5 = flag_context("C", 5, (5,))
    b5 = {a: lr.lagrangian_bijection(cx5.ct, a) for a in [(3, 1), (3, 2), (4, 2)]}
    tup5 = [b5[(3, 1)], b5[(3, 2)], b5[(4, 2)]]
    rows.append(("LG(5,10) intersection number", 4,
                 cx5.ring.top_coefficient(tup5)))
    rows.append(("LG(5,10) Levi invariant dimension", 5,
                 cx5.levi.invariant_dimension([(1, 2, 1, 0), (0, 2, 2, 0), (1, 2, 1, 1)])))

    g2 = flag_context("G", 2).levi
    rows.append(("G2 [V(6w1) V(6w2) V(7w2)] invariants", 1,
                 g2.invariant_dimension([(6, 0), (0, 6), (0, 7)])))
    rows.append(("G2 doubled (12w1, 12w2, 14w2)", 2,
                 g2.invariant_dimension([(6, 0), (0, 6), (0, 7)], n=2)))
    rows.append(("G2 [V(6w1) V(6w2) V(10w1+w2)] invariants", 1,
                 g2.invariant_dimension([(6, 0), (0, 6), (10, 1)])))
    rows.append(("G2 doubled (12w1, 12w2, 20w1+2w2)", 3,
                 g2.invariant_dimension([(6, 0), (0, 6), (10, 1)], n=2)))

    cxs = flag_context("C", 3, (2,))
    w1 = cxs.element((1, 3, 2, 1, 3, 2))
    w3 = cxs.element((3, 2))
    tup = [w1, w1, w3]
    rows.append(("Sp(6) ordinary top coefficient", 1,
                 cxs.ring.top_coefficient(tup)))
    rows.append(("Sp(6) chi(w1) restriction", (1, 1), cxs.deformed.chi(w1).levi_coords))
    rows.append(("Sp(6) chi(w3) restriction", (3, 1), cxs.deformed.chi(w3).levi_coords))
    rows.append(("Sp(6) deformed top coefficient", 0, cxs.deformed.top_coefficient(tup)))
    chis = [cxs.deformed.chi(w).levi_coords for w in tup]
    for n in (1, 2, 3):
        rows.append((f"Sp(6) invariant dimension n={n}", 0,
                     cxs.levi.invariant_dimension(chis, n=n)))
    return rows


def cmd_examples(args):
    rows = reference_example_rows()
    out_rows = []
    failed = 0
    for name, expected, got in rows:
        ok = expected == got
        failed += 0 if ok else 1
        out_rows.append({"name": name, "expected": _plain(expected),
                         "got": _plain(got), "status": "PASS" if ok else "FAIL"})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: expected {expected}, got {got}")
    _emit({"rows": out_rows, "failed": failed}, args.out)
    return 0 if failed == 0 else 1


def _plain(x):
    return list(x) if isinstance(x, tuple) else x


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused by every later
    one: parse_args fills a new namespace each time, so no option carries over."""
    ap = argparse.ArgumentParser(prog="flagcalc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=True):
        if group:
            p.add_argument("--group", required=True, help="e.g. A3, C3, G2")
            p.add_argument("--cross", default="",
                           help="crossed-out simple nodes, e.g. '2' or '1,3'")
        p.add_argument("--out", default=None, help="write the JSON here, not to stdout")

    p = sub.add_parser("roots", help="root-system data")
    p.add_argument("--group", required=True)
    common(p, group=False)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("wp", help="list W^P")
    common(p)
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("product", help="cup product in the Schubert basis")
    common(p)
    p.add_argument("--deformed", action="store_true")
    p.add_argument("words", nargs="+", help="Weyl words, e.g. 1,3,2")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("invariants", help="Levi tensor invariant dimensions")
    common(p)
    p.add_argument("--weights", nargs="+", required=True,
                   help="Levi fundamental coordinates, e.g. 6,0")
    p.add_argument("--nmax", type=int, default=1)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("verify", help="deformed-top-1 => invariant-dim-1 sweep")
    common(p)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--tuple-cap", type=int, default=10**6)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fulton", help="LR multiplicity-one scaling check")
    p.add_argument("--lam", default=None)
    p.add_argument("--mu", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=2)
    p.add_argument("--nmax", type=int, default=4)
    common(p, group=False)
    p.set_defaults(fn=cmd_fulton)

    p = sub.add_parser("examples", help="recompute the reference examples")
    common(p, group=False)
    p.set_defaults(fn=cmd_examples)

    return ap


def main(argv=None):
    """Run one command: its exit code, or 2 for refused input, an unwritable
    --out or a closed stdout."""
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "nmax", 1) < 1:
            raise ValueError("--nmax must be at least 1")
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: send what is still buffered to /dev/null, so
        # the interpreter's last flush of stdout cannot fail again
        with contextlib.suppress(OSError):  # a stdout without a file descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
