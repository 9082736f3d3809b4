"""Append-only JSON-lines result cache keyed by (hypergraph digest,
operation, parameters, code version). The code version is CODE_VERSION
salted with a digest of the package's source, so a changed algorithm never
serves values computed by older code; their lines stay in the file, which
other runs may be appending to, but are not loaded. Corrupt lines are
dropped and rebuilt on demand: every cached value is re-derivable.

A `ResultCache` is the one lookup context of a run: it keeps the hit and miss
counts and the self-check policy, under which every hit is recomputed and
must match. A run without a cache file keeps one in memory, so its repeated
lookups are checked too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections.abc import Sequence
from pathlib import Path

from .hypergraph import Hypergraph, canonical_json

CODE_VERSION = "0.1.0"


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's *.py sources, read once per process."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    data = b"\0".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)
    return hashlib.sha256(data).hexdigest()


def _key_version() -> str:
    """The version of every key this code writes: CODE_VERSION salted with
    the source digest."""
    return f"{CODE_VERSION}+{_source_digest()}"


def hypergraph_digest(H: Hypergraph | Sequence[Hypergraph]) -> str:
    """Digest of a hypergraph, or of a sequence of factors (a product)."""
    data = H.to_json_dict() if isinstance(H, Hypergraph) else [hypergraph_digest(G) for G in H]
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


class CacheMismatchError(RuntimeError):
    """A cached value differs from its recomputation (self-check mode)."""


class ResultCache:
    """In-memory map backed by an append-only JSON-lines file. ``path=None``
    keeps the cache purely in memory. With ``self_check`` every hit is
    recomputed and must be byte-identical."""

    def __init__(self, path: str | Path | None = None, self_check: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.self_check = self_check
        self._entries: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            version = _key_version()
            for line in self.path.read_bytes().splitlines():
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode())
                    if record["key"]["version"] != version:
                        continue  # written by other code: it can never hit
                    key = canonical_json(record["key"])
                    self._entries[key] = record["value"]
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                    continue  # corrupt line: drop it, values are re-derivable

    @staticmethod
    def make_key(digest: str, op: str, params) -> dict:
        return {"digest": digest, "op": op, "params": params, "version": _key_version()}

    def get(self, key: dict):
        return self._entries.get(canonical_json(key))

    def put(self, key: dict, value) -> None:
        flat = canonical_json(key)
        self._entries[flat] = value
        if self.path is not None:
            record = {"key": key, "value": value, "ts": time.time()}
            with self.path.open("a") as fh:
                fh.write(canonical_json(record) + "\n")


def cached_value(
    cache: ResultCache | None,
    H: Hypergraph | Sequence[Hypergraph],
    op: str,
    params,
    compute,
):
    """Return the cached JSON value for (H, op, params), computing and
    recording it on a miss; ``H`` may be the factor list of a product. A hit
    is recomputed and compared when the cache self-checks."""
    if cache is None:
        return compute()
    key = ResultCache.make_key(hypergraph_digest(H), op, params)
    hit = cache.get(key)
    if hit is not None:
        cache.hits += 1
        if cache.self_check:
            fresh = compute()
            if canonical_json(fresh) != canonical_json(hit):
                raise CacheMismatchError(f"cache self-check failed for {key}")
        return hit
    cache.misses += 1
    value = compute()
    cache.put(key, value)
    return value
