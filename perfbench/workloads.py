"""Workload definitions for the flagcalc benchmark.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned.  Requests are argv lists for
`flagcalc.cli.main`; the program sees nothing but these.

* verify-schubert, verify-levi, verify-warm: a battery of `verify` sweeps.
  The seed only permutes the order of the battery.
* queries: a stream of `product`, `product --deformed`, `invariants` and
  `fulton` requests over a fixed pool.  The stream is built in rounds; round
  r holds entry r of every (request type, parabolic) slot plus the r-th group
  of `fulton` requests, so POOL_ROUNDS rounds send the whole pool once and
  each parabolic's disk table grows the same way on every run.  The seed
  shuffles the order inside each round.  A stream always sends the whole
  pool, so its mix never depends on how fast it runs.  The pool and the
  digest of every answer in it are recorded in expected.json (see
  record.py), so an answer can be checked by digest whatever the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

SWEEP_S = 3

# (type letter, rank, crossed nodes)
SCHUBERT_BATTERY = (
    ("A", 4, (1, 2, 3, 4)),
    ("C", 4, (1, 4)),
    ("B", 3, (1, 2, 3)),
    ("G", 2, (1, 2)),
)
LEVI_BATTERY = (
    ("A", 5, (3,)),
    ("C", 4, (4,)),
)
SWEEPS = {
    "verify-schubert": {"battery": SCHUBERT_BATTERY, "nmax": 3},
    "verify-levi": {"battery": LEVI_BATTERY, "nmax": 5},
    "verify-warm": {"battery": SCHUBERT_BATTERY, "nmax": 3},
}

QUERY_PARABOLICS = (
    ("B", 4, (2,)),
    ("C", 5, (5,)),
    ("A", 6, (3,)),
    ("D", 5, (1,)),
    ("A", 4, (1, 2, 3, 4)),
    ("C", 4, (1, 4)),
    ("G", 2, (1, 2)),
)
POOL_SEED = 20100424
POOL_ROUNDS = 12
FULTON_PER_ROUND = 7
FULTON_BOX = (3, 3)

WORKLOADS = tuple(SWEEPS) + ("queries",)


def parabolics(workload):
    if workload == "queries":
        return QUERY_PARABOLICS
    return SWEEPS[workload]["battery"]


def group_name(p):
    return f"{p[0]}{p[1]}"


def cross_arg(p):
    return ",".join(map(str, p[2]))


def label(p):
    return f"{group_name(p)}{{{cross_arg(p)}}}"


def verify_argv(p, nmax):
    return ["verify", "--group", group_name(p), "--cross", cross_arg(p),
            "--s", str(SWEEP_S), "--nmax", str(nmax)]


def sweep_order(workload, seed):
    """The battery of a sweep workload in the order the seed gives."""
    order = list(SWEEPS[workload]["battery"])
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


# -- the query pool -------------------------------------------------------------


def _partition_arg(parts):
    return ",".join(map(str, parts))


def make_pool(contexts, partitions_in_box):
    """Fixed request pool: {slot: [argv, ...]}.

    `contexts` maps each query parabolic to its flag context; only the W^P
    elements and the Levi rank are read.  Slots are "<kind> <parabolic>" and
    "fulton".
    """
    rng = random.Random(POOL_SEED)
    pool = {}
    for p in QUERY_PARABOLICS:
        cx = contexts[p]
        head = ["--group", group_name(p), "--cross", cross_arg(p)]
        elements = cx.ct.elements
        for kind in ("product", "deformed"):
            flag = ["--deformed"] if kind == "deformed" else []
            pool[f"{kind} {label(p)}"] = [
                ["product"] + head + flag
                + [rng.choice(elements).word_str() for _ in range(rng.choice((2, 3)))]
                for _ in range(POOL_ROUNDS)]
        rank = cx.levi.rank
        pool[f"invariants {label(p)}"] = [
            ["invariants"] + head + ["--nmax", str(rng.choice((1, 2))), "--weights"]
            + [",".join(str(rng.randint(0, 2)) for _ in range(rank)) for _ in range(3)]
            for _ in range(POOL_ROUNDS)]
    box = [lam for lam in partitions_in_box(*FULTON_BOX) if lam]
    triples = [(lam, mu, nu) for lam in box for mu in box for nu in box
               if sum(nu) == sum(lam) + sum(mu)]
    pool["fulton"] = [
        ["fulton", "--lam", _partition_arg(lam), "--mu", _partition_arg(mu),
         "--nu", _partition_arg(nu), "--nmax", str(rng.choice((2, 3, 4)))]
        for lam, mu, nu in rng.sample(triples, POOL_ROUNDS * FULTON_PER_ROUND)]
    return pool


def query_rounds(pool, seed):
    """The stream: POOL_ROUNDS rounds, each a list of (slot, index into the
    slot's pool), that together send the whole pool once.  Round r holds
    entry r of each slot (and the r-th group of fulton entries), so each
    slot's disk table grows the same way whatever the seed; the seed shuffles
    the order within each round."""
    rng = random.Random(f"queries:{seed}")
    slots = sorted(pool)
    for r in range(POOL_ROUNDS):
        round_ = [(s, r) for s in slots if s != "fulton"]
        round_ += [("fulton", k) for k in
                   range(r * FULTON_PER_ROUND, (r + 1) * FULTON_PER_ROUND)]
        rng.shuffle(round_)
        yield round_


# -- output checks --------------------------------------------------------------


def is_canonical(text):
    """(whether text is the stable serialisation of its JSON, the parsed JSON)."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False, None
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return again == text, doc


def _word_length(word):
    return len(word.split(",")) if word else 0


def check_product(doc, dim_gp):
    """Every term sits in the codimension the word lengths fix."""
    codim = sum(dim_gp - _word_length(w) for w in doc["words"])
    for term in doc["terms"]:
        if _word_length(term["word"]) != term["length"]:
            return f"term {term['word']!r} has length {term['length']}"
        if dim_gp - term["length"] != codim:
            return f"term {term['word']!r} not in codimension {codim}"
        if not isinstance(term["coeff"], int) or term["coeff"] <= 0:
            return f"term {term['word']!r} has coefficient {term['coeff']!r}"
    return None


def check_invariants(doc, nmax):
    dims = doc["invariant_dims"]
    if sorted(dims, key=int) != [str(n) for n in range(1, nmax + 1)]:
        return f"invariant_dims keys {sorted(dims)}"
    if any(not isinstance(v, int) or v < 0 for v in dims.values()):
        return f"invariant_dims values {dims}"
    return None


def check_fulton(doc):
    rep = doc["report"]
    if rep["applicable"] != (rep["c"] == 1) or rep["violations"]:
        return f"fulton report {rep}"
    return None


def check_answer(argv, doc, dims):
    """Structural check of one query answer; dims maps (group, cross) to
    dim G/P.  Returns an error message or None."""
    if argv[0] == "product":
        key = (argv[argv.index("--group") + 1], argv[argv.index("--cross") + 1])
        return check_product(doc, dims[key])
    if argv[0] == "invariants":
        return check_invariants(doc, int(argv[argv.index("--nmax") + 1]))
    return check_fulton(doc)
