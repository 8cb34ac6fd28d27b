"""Deterministic JSON serialisation and the on-disk structure-constant cache.

Cache files are keyed by a content hash of (type, rank, crossed nodes) and
carry a schema version and the sha256 of their entries; a file whose header
or digest does not match is ignored and recomputed, never trusted.  Files
are written to a temporary name and renamed into place, so a reader never
sees a half-written table.  Integers beyond 2^53-1 are rendered as decimal
strings so the files stay readable by double-precision JSON parsers.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

SCHEMA_VERSION = 1
_BIG = 2**53 - 1


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
    return json.dumps(_encode(obj), sort_keys=True, separators=(",", ":")) + "\n"


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


def _entries_digest(entries):
    return hashlib.sha256(canonical_json(entries).encode()).hexdigest()


def save_table(ring):
    """Persist every structure-constant row the ring has computed so far."""
    R = ring.system
    crossed = list(ring.parabolic.crossed)
    entries = []
    for (u, v), row in ring.known_rows().items():
        for w, c in sorted(row.items(), key=lambda kv: (kv[0].length, kv[0].word)):
            entries.append({"u": u.word_str(), "v": v.word_str(),
                            "w": w.word_str(), "c": c})
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
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_table(ring):
    """Warm the ring's product cache from disk; silently skips a file whose
    header or entries digest does not match."""
    R = ring.system
    path = table_path(R, list(ring.parabolic.crossed))
    if not path.exists():
        return 0
    try:
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
    rows = {}
    try:
        for e in doc.get("entries", []):
            u = ct.element_from_word(_parse_word(e["u"]))
            v = ct.element_from_word(_parse_word(e["v"]))
            w = ct.element_from_word(_parse_word(e["w"]))
            rows.setdefault((u, v), {})[w] = int(e["c"])
    except (ValueError, KeyError):
        return 0
    for (u, v), row in rows.items():
        ring.set_row(u, v, row)
    return len(rows)


def _parse_word(s):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))
