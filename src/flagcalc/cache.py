"""Deterministic JSON serialisation and the on-disk structure-constant cache.

The cache is read and written by `product` only.  Files name classes by
their words and rings by coset-table index; load_table and save_table
convert.  Cache files are keyed by a content hash of (type, rank, crossed nodes) and
carry a schema version and the sha256 of their entries; a file whose header
or digest does not match is ignored and recomputed, never trusted.  Files
are written to a temporary name and renamed into place, so a reader never
sees a half-written table.  A table is parsed only when the file changed
since this process last read or wrote it for the same ring.  Integers beyond
2^53-1 are rendered as decimal strings so the files stay readable by
double-precision JSON parsers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from pathlib import Path

SCHEMA_VERSION = 1
_BIG = 2**53 - 1
# every integer beyond _BIG has at least 16 digits; canonical_json's text is
# ASCII (json.dumps escapes the rest), so this maps every character it can hold
_DIGIT_RUNS = {c: "0" if 48 <= c <= 57 else " " for c in range(128)}
# ring -> {table path: ((st_ino, st_size, st_mtime_ns), rows)} of the file as
# this process last read or wrote it for that ring, whose rows it then holds
_seen = weakref.WeakKeyDictionary()


def _encode(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def canonical_json(obj):
    """Stable byte-for-byte serialisation (sorted keys, tight separators)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if "0" * 16 in text.translate(_DIGIT_RUNS):
        text = json.dumps(_encode(obj), sort_keys=True, separators=(",", ":"))
    return text + "\n"


def cache_dir():
    env = os.environ.get("FLAGCALC_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "flagcalc"


def _table_key(R, crossed):
    blob = canonical_json({"type": R.type_letter, "rank": R.rank,
                           "crossed": sorted(crossed), "schema": SCHEMA_VERSION})
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def table_path(R, crossed):
    return cache_dir() / f"table-{R.type_letter}{R.rank}-{_table_key(R, crossed)}.json"


def _signature(st):
    return st.st_ino, st.st_size, st.st_mtime_ns


def _entries_digest(entries):
    return hashlib.sha256(canonical_json(entries).encode()).hexdigest()


def stored_rows(ring):
    """How many of the ring's rows a save would write (an empty row leaves
    no entry), to compare with what load_table returned."""
    return sum(1 for row in ring.known_rows().values() if row)


def save_table(ring):
    """Persist every structure-constant row the ring has computed so far."""
    R = ring.system
    crossed = list(ring.parabolic.crossed)
    words = [w.word_str() for w in ring.ct.elements]
    entries = [{"u": words[i], "v": words[j], "w": words[k], "c": c}
               for (i, j), row in ring.known_rows().items() for k, c in row.items()]
    entries.sort(key=lambda e: (e["u"], e["v"], e["w"]))
    doc = {"schema_version": SCHEMA_VERSION,
           "group": f"{R.type_letter}{R.rank}",
           "levi_simple": sorted(ring.parabolic.levi_simple),
           "crossed": sorted(crossed),
           "entries": entries,
           "entries_sha256": _entries_digest(entries)}
    path = table_path(R, crossed)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_json(doc))
            fh.flush()
            sig = _signature(os.fstat(fh.fileno()))  # the rename keeps all three
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    _seen.setdefault(ring, {})[path] = (sig, stored_rows(ring))
    return path


def load_table(ring):
    """Warm the ring's product cache from disk and return the file's row
    count; silently skips a file whose header or entries digest does not
    match or whose entries are not structure constants.  A file unchanged
    since this process last read or wrote it for the ring is not parsed
    again: the ring already holds its rows."""
    R = ring.system
    path = table_path(R, list(ring.parabolic.crossed))
    seen = _seen.setdefault(ring, {})
    try:
        sig = _signature(os.stat(path))  # before the read: a later rewrite differs
        if path in seen and seen[path][0] == sig:
            return seen[path][1]
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return 0
    if (not isinstance(doc, dict)
            or doc.get("schema_version") != SCHEMA_VERSION
            or doc.get("group") != f"{R.type_letter}{R.rank}"
            or doc.get("levi_simple") != sorted(ring.parabolic.levi_simple)
            or doc.get("entries_sha256") != _entries_digest(doc.get("entries", []))):
        return 0
    ct = ring.ct

    def index(word):
        return ct.index_of(ct.element_from_word(_parse_word(word)))

    # each entry a dict (else indexing raises TypeError) whose c is an int > 0
    # (a decimal string beyond _BIG) and whose w has length ell(u) + ell(v) - dim G/P
    lengths, dim = ct.lengths, ring.parabolic.dim_gp
    rows = {}
    try:
        for e in doc.get("entries", []):
            i, j, k, c = index(e["u"]), index(e["v"]), index(e["w"]), e["c"]
            if isinstance(c, str) and c.isascii() and c.isdigit() and int(c) > _BIG:
                c = int(c)
            if type(c) is not int or c <= 0 or lengths[k] != lengths[i] + lengths[j] - dim:
                return 0
            rows.setdefault((i, j), {})[k] = c
    except (ValueError, KeyError, TypeError, AttributeError):
        return 0
    for (i, j), row in rows.items():
        ring.set_row(i, j, row)
    seen[path] = (sig, len(rows))
    return len(rows)


def _parse_word(s):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))
