"""Epoch-keyed query caching: the parse and plan layers.

Between commits a temporal relation is immutable (append-only storage,
single writer), so identical queries re-do identical work.  This
module memoizes the first two stages of answering one:

* **parse cache** -- TQL text -> :class:`~repro.query.tql.ParsedQuery`
  (statements are never mutated after parse, so instances are shared);
* **plan cache** -- (query fingerprint, epoch) ->
  :class:`~repro.query.planner.PlannedQuery`, skipping strategy
  selection for repeated shapes.  It is one
  :class:`LRUCache` per relation (``relation.query_cache``).

The epoch key is :func:`epoch_key` --
``(relation.version, id(engine), engine.mutation_count())``.  Entries
are never actively invalidated: any mutation (including vacuum engine
swaps, cold-segment delete patches, and out-of-band ``extend()``
straight into the engine) advances the epoch, so stale keys simply stop
matching and age out of the LRU.  That is the whole invalidation
contract; see ``docs/caching.md``.

The server keeps a third layer with the same ``LRUCache`` machinery:
canonical JSON response bytes keyed on (endpoint, normalized params,
pinned epoch); see :mod:`repro.server.app`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from repro.chronos.timestamp import Timestamp
from repro.observability import metrics as _metrics

__all__ = [
    "LRUCache",
    "fingerprint",
    "epoch_key",
    "cached_parse",
    "parse_cache",
]

#: Entry budget of the module-level TQL parse cache.
PARSE_CACHE_ENTRIES = 512
#: Per-relation plan-cache entry budget (plans are tiny: closures only).
PLAN_CACHE_ENTRIES = 128


class LRUCache:
    """An LRU map bounded by entry count and (optionally) bytes.

    Thread-safe: the library lets pinned reads, and so planner thunks,
    run on a caller's threads (the server runs every read inline on its
    event loop).  Hits, misses, and evictions feed the
    ``cache.*`` counters both in aggregate and per layer; the byte
    gauge is per layer (``cache.bytes.<layer>``).
    """

    def __init__(
        self,
        max_entries: int,
        max_bytes: Optional[int] = None,
        layer: str = "cache",
    ) -> None:
        self.max_entries = max(1, int(max_entries))
        self.max_bytes = max_bytes
        self.layer = layer
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("hits")
            return entry[0]

    def put(self, key: Any, value: Any, nbytes: int = 0) -> None:
        with self._lock:
            if self.max_bytes is not None and nbytes > self.max_bytes:
                # Larger than the whole budget: caching it would evict
                # everything and then evict itself next insert.
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self.bytes += nbytes
            evicted = 0
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self.bytes > self.max_bytes
            ):
                _, (_, dropped) = self._entries.popitem(last=False)
                self.bytes -= dropped
                evicted += 1
            if evicted:
                self.evictions += evicted
                self._count("evictions", evicted)
            self._gauge()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0
            self._gauge()

    def _count(self, event: str, amount: int = 1) -> None:
        if not _metrics.enabled():
            return
        registry = _metrics.registry()
        registry.counter(f"cache.{event}").inc(amount)
        registry.counter(f"cache.{event}.{self.layer}").inc(amount)

    def _gauge(self) -> None:
        if _metrics.enabled():
            _metrics.registry().gauge(f"cache.bytes.{self.layer}").set(self.bytes)


# -- the TQL parse cache -------------------------------------------------------------

parse_cache = LRUCache(PARSE_CACHE_ENTRIES, layer="parse")


def cached_parse(text: str, parse_fn: Callable[[str], Any]) -> Any:
    """Memoize *parse_fn* over statement text.

    Parsed statements are treated as immutable after parse (nothing in
    the library mutates a :class:`~repro.query.tql.ParsedQuery` once
    built), so hits share the instance.
    """
    parsed = parse_cache.get(text)
    if parsed is not None:
        return parsed
    parsed = parse_fn(text)
    parse_cache.put(text, parsed, nbytes=len(text))
    return parsed


# -- query fingerprints --------------------------------------------------------------


class _Unfingerprintable(Exception):
    """The tree holds a callable (Select predicate, join condition) or
    scans a foreign relation; it cannot key a cache entry."""


def _time_key(point: Any) -> Tuple[Any, ...]:
    if isinstance(point, Timestamp):
        # Granularity rides along: equal-microsecond stamps at
        # different granularities are semantically equal today, but a
        # coarser fingerprint costs only hit rate, never correctness.
        return ("t", point.microseconds, point.granularity.name)
    return ("s", repr(point))


def fingerprint(query: Any, relation: Any) -> Optional[Tuple[Any, ...]]:
    """A stable, hashable description of a temporal-core tree.

    Covers exactly the shapes the planner specializes: the temporal
    operators over ``Scan(relation)``.  Anything carrying a callable
    (Select, Project on top is fine but adds nothing -- TQL plans the
    stripped core), or scanning a different relation than the cache's
    owner, returns ``None`` (uncacheable).
    """
    try:
        return _fingerprint(query, relation)
    except _Unfingerprintable:
        return None


def _fingerprint(node: Any, relation: Any) -> Tuple[Any, ...]:
    from repro.query import ast

    if isinstance(node, ast.Scan):
        if node.relation is not relation:
            raise _Unfingerprintable
        return ("scan",)
    if isinstance(node, ast.CurrentState):
        return ("current", _fingerprint(node.child, relation))
    if isinstance(node, ast.Rollback):
        return ("rollback", _fingerprint(node.child, relation), _time_key(node.tt))
    if isinstance(node, ast.ValidTimeslice):
        return ("timeslice", _fingerprint(node.child, relation), _time_key(node.vt))
    if isinstance(node, ast.ValidOverlap):
        return (
            "overlap",
            _fingerprint(node.child, relation),
            _time_key(node.window.start),
            _time_key(node.window.end),
        )
    if isinstance(node, ast.BitemporalSlice):
        return (
            "bitemporal",
            _fingerprint(node.child, relation),
            _time_key(node.vt),
            _time_key(node.tt),
        )
    raise _Unfingerprintable


def epoch_key(relation: Any) -> Tuple[Any, ...]:
    """The committed-state coordinate cache entries are keyed on.

    ``relation.version`` advances once per relation-level mutation (and
    on vacuum's engine swap); ``(id(engine), mutation_count())``
    catches everything that bypasses the relation -- the same pair
    standing views sync on (``TemporalRelation._engine_epoch``).
    """
    engine = relation.engine
    return (relation.version, id(engine), engine.mutation_count())
