"""Epoch-keyed query caching: parse, plan, and result layers.

Between commits a temporal relation is immutable (append-only storage,
single writer), so identical queries re-do identical work.  This
module memoizes the three stages of answering one:

* **parse cache** -- TQL text -> :class:`~repro.query.tql.ParsedQuery`
  (statements are never mutated after parse, so instances are shared);
* **plan cache** -- (query fingerprint, epoch) ->
  :class:`~repro.query.planner.PlannedQuery`, skipping strategy
  selection and statistics probes for repeated shapes;
* **result cache** -- (query fingerprint, epoch) -> the materialized
  answer, an LRU bounded by entry count *and* bytes.

The epoch key is the one ``relation_statistics()`` already uses --
``(relation.version, (id(engine), engine.mutation_count()))`` -- plus
the planner-visible environment toggles.  Entries are never actively
invalidated: any mutation (including vacuum engine swaps, cold-segment
delete patches, and out-of-band ``extend()`` straight into the engine)
advances the epoch, so stale keys simply stop matching and age out of
the LRU.  That is the whole invalidation contract; see
``docs/caching.md``.

Knobs (read at call time, so tests can flip them):

* ``REPRO_RESULT_CACHE`` -- ``0`` disables **every** layer, restoring
  the uncached code path byte-for-byte; a positive integer enables the
  result cache with that entry budget; unset leaves the parse and plan
  caches on but the result cache off (results are the one layer that
  can hold large payloads, so it is opt-in for embedded use -- the
  server enables its response-byte variant by default).
* ``REPRO_RESULT_CACHE_BYTES`` -- result-cache byte budget (default
  64 MiB).

The server keeps a fourth layer with the same ``LRUCache`` machinery:
canonical JSON response bytes keyed on (endpoint, normalized params,
pinned epoch); see :mod:`repro.server.app`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chronos.timestamp import Timestamp
from repro.observability import metrics as _metrics

__all__ = [
    "LRUCache",
    "RelationQueryCache",
    "caching_enabled",
    "result_cache_entries",
    "result_cache_bytes",
    "relation_cache",
    "fingerprint",
    "epoch_key",
    "cached_parse",
    "parse_cache",
    "result_footprint",
]

#: Entry budget of the module-level TQL parse cache.
PARSE_CACHE_ENTRIES = 512
#: Per-relation plan-cache entry budget (plans are tiny: closures only).
PLAN_CACHE_ENTRIES = 128
#: Result-cache defaults when ``REPRO_RESULT_CACHE`` names no budget.
DEFAULT_RESULT_ENTRIES = 256
DEFAULT_RESULT_BYTES = 64 * 1024 * 1024

#: Coarse per-element footprint estimate for result-cache accounting.
#: Elements are shared with the store (the cache holds references, not
#: copies), so this charges for the list slot plus amortized attribute
#: dict churn rather than deep size -- deterministic, which the
#: eviction-under-byte-pressure tests rely on.
ELEMENT_FOOTPRINT = 256
RESULT_OVERHEAD = 64

#: Environment toggles that change what the planner builds or how a
#: thunk executes.  They are part of every plan/result key so flipping
#: one mid-process (the differential suites do) never serves a plan
#: compiled for the other mode -- and never lets a cached answer mask a
#: divergence between the two code paths under test.
_ENV_TOGGLES = ("REPRO_TIERED", "REPRO_SEGMENT_SIZE")


def caching_enabled() -> bool:
    """Whether any cache layer may be consulted (the global kill-switch:
    ``REPRO_RESULT_CACHE=0`` restores the uncached path everywhere)."""
    return os.environ.get("REPRO_RESULT_CACHE") != "0"


def result_cache_entries() -> Optional[int]:
    """The result-cache entry budget, or ``None`` when the layer is off.

    The result layer is opt-in: it holds materialized answers, so it
    only runs when ``REPRO_RESULT_CACHE`` names a positive budget.
    """
    raw = os.environ.get("REPRO_RESULT_CACHE")
    if raw is None or raw == "" or raw == "0":
        return None
    try:
        entries = int(raw)
    except ValueError:
        return DEFAULT_RESULT_ENTRIES
    return entries if entries > 0 else None


def result_cache_bytes() -> int:
    raw = os.environ.get("REPRO_RESULT_CACHE_BYTES")
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_RESULT_BYTES


def _env_key() -> Tuple[Optional[str], ...]:
    return tuple(os.environ.get(name) for name in _ENV_TOGGLES)


class LRUCache:
    """An LRU map bounded by entry count and (optionally) bytes.

    Thread-safe (planner thunks may run from the server's reader
    pool).  Hits, misses, and evictions feed the
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
    if not caching_enabled():
        return parse_fn(text)
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
    catches everything that bypasses the relation -- the same
    discipline ``relation_statistics()`` uses.  The environment toggles
    ride along so mode flips re-derive rather than reuse.
    """
    engine = relation.engine
    return (relation.version, id(engine), engine.mutation_count(), _env_key())


def result_footprint(results: List[Any]) -> int:
    """Deterministic byte estimate for one cached answer."""
    return RESULT_OVERHEAD + ELEMENT_FOOTPRINT * len(results)


# -- per-relation plan + result layers -----------------------------------------------


class RelationQueryCache:
    """One relation's plan and result caches.

    Attached lazily to the relation (``relation.query_cache``); holds
    no back-reference, so callers pass epochs in.  The result layer is
    resolved per access against the environment, so flipping
    ``REPRO_RESULT_CACHE`` mid-process takes effect on the next query.
    """

    def __init__(self) -> None:
        self.plans = LRUCache(PLAN_CACHE_ENTRIES, layer="plan")
        self._results: Optional[LRUCache] = None

    def results(self) -> Optional[LRUCache]:
        entries = result_cache_entries()
        if entries is None:
            return None
        if self._results is None:
            self._results = LRUCache(
                entries, max_bytes=result_cache_bytes(), layer="result"
            )
        return self._results

    # -- plan layer -----------------------------------------------------------------

    def get_plan(self, fp: Tuple[Any, ...], epoch: Tuple[Any, ...]) -> Optional[Any]:
        return self.plans.get((fp, epoch))

    def put_plan(self, fp: Tuple[Any, ...], epoch: Tuple[Any, ...], plan: Any) -> None:
        self.plans.put((fp, epoch), plan)

    # -- result layer ---------------------------------------------------------------

    def get_result(
        self, fp: Tuple[Any, ...], epoch: Tuple[Any, ...]
    ) -> Optional[Tuple[Tuple[Any, ...], int]]:
        cache = self.results()
        if cache is None:
            return None
        return cache.get((fp, epoch))

    def put_result(
        self,
        fp: Tuple[Any, ...],
        epoch: Tuple[Any, ...],
        results: List[Any],
        examined: int,
    ) -> None:
        cache = self.results()
        if cache is None:
            return
        # Stored as a tuple: callers may sort/mutate the list a later
        # hit hands back, so hits copy out and the stored answer stays
        # frozen.
        cache.put(
            (fp, epoch), (tuple(results), examined), nbytes=result_footprint(results)
        )

    def statistics(self) -> Dict[str, int]:
        """Introspection for tests and the CLI."""
        stats = {
            "plan_entries": len(self.plans),
            "plan_hits": self.plans.hits,
            "plan_misses": self.plans.misses,
        }
        results = self._results
        if results is not None:
            stats.update(
                result_entries=len(results),
                result_hits=results.hits,
                result_misses=results.misses,
                result_evictions=results.evictions,
                result_bytes=results.bytes,
            )
        return stats


def relation_cache(relation: Any) -> Optional[RelationQueryCache]:
    """The relation's cache, created on first enabled access.

    Returns ``None`` when caching is globally disabled, which is the
    entire disabled code path: callers fall straight through to today's
    uncached behavior.
    """
    if not caching_enabled():
        return None
    cache = getattr(relation, "_query_cache", None)
    if cache is None:
        cache = RelationQueryCache()
        relation._query_cache = cache
    return cache
