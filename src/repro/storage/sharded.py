"""Horizontal sharding with specialization-aware scatter-gather routing.

A :class:`ShardedEngine` partitions one relation's element set across N
backing engines -- by a stable hash of the object surrogate
(:class:`HashPartitioner`) or by valid-time range
(:class:`RangePartitioner`).  Each shard is an ordinary engine (a
:class:`~repro.storage.memory.MemoryEngine`, or a per-shard
:class:`~repro.storage.logfile.LogFileEngine` WAL in durable mode), so
every shard keeps its own segmented transaction-time index, zone maps,
and valid-time indexes -- which is exactly what makes the router
*specialization-aware*: because the paper's global orderings (degenerate,
non-decreasing, sequential, bounded offsets) hold on any transaction-time
subsequence, a shard of a specialized relation is itself specialized, and
the scatter side of a query runs the same specialized fast-path operator
per shard that a single store would run once.

Routing consults a per-shard :class:`ShardEnvelope` -- the union of the
shard's zone maps plus its mutable head -- so timeslice/overlap/rollback
queries skip shards whose (tt, vt) envelope cannot intersect the probe.
Routed/pruned counts surface in ``explain()`` and in the
``storage.shards.*`` metrics counters.

The gather side merges per-shard streams by the globally unique
``tt_start`` coordinate (the transaction clock guarantees uniqueness),
which makes merged full scans, rollbacks, and current-state reads
byte-identical to the single-store order.

Durable sharding adds a crash-safe :meth:`ShardedEngine.rebalance` /
:meth:`ShardedEngine.split`: moving a hash bucket (or a range boundary)
between shards rewrites the affected shard WALs into staged files, then
commits the new assignment with ONE framed, checksummed manifest record
-- recovery lands on exactly the pre-move or post-move assignment, never
a half-move.
"""

from __future__ import annotations

import heapq
import os
import zlib
from bisect import bisect_right
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, TimePoint, Timestamp
from repro.observability import metrics as _metrics
from repro.relation.element import Element
from repro.storage import wal
from repro.storage.base import StorageEngine
from repro.storage.logfile import LogFileEngine, _encode_element
from repro.storage.memory import MemoryEngine
from repro.storage.columnar import NEG_SENTINEL, POS_SENTINEL, ScanSpec, encode_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relation.schema import TemporalSchema
    from repro.relation.temporal_relation import TemporalRelation

_SHARDS_ENV = "REPRO_SHARDS"

#: The per-directory rebalance manifest (a v1 framed WAL).
MANIFEST_NAME = "shards.manifest"

#: Fixed hash-space size; buckets are the unit a rebalance moves.
DEFAULT_HASH_BUCKETS = 64


def configured_shard_count() -> int:
    """The ``REPRO_SHARDS`` default shard count (0 = sharding off)."""
    raw = os.environ.get(_SHARDS_ENV)
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 0
    return value if value >= 2 else 0


def shard_file_name(index: int) -> str:
    """On-disk log name for shard *index* in a durable directory."""
    return f"shard-{index:03d}.log"


def _vt_bounds(vt: Union[Timestamp, Interval]) -> Tuple[int, int]:
    if isinstance(vt, Interval):
        return encode_point(vt.start), encode_point(vt.end)
    return vt.microseconds, vt.microseconds


def _tt_key(element: Element) -> int:
    return element.tt_start.microseconds


def stable_bucket(object_surrogate: Hashable, buckets: int) -> int:
    """A process-stable hash bucket for an object surrogate.

    Python's builtin ``hash`` is salted per process for strings, so the
    assignment is derived from a CRC32 of the surrogate's repr instead:
    the same object lands in the same bucket across runs and reopens,
    which the durable rebalance manifest depends on.
    """
    return zlib.crc32(repr(object_surrogate).encode("utf-8")) % buckets


class HashPartitioner:
    """Bucketed hash partitioning over object surrogates.

    The hash space is ``buckets`` fixed buckets; ``assignment[b]`` names
    the shard owning bucket *b*.  A rebalance moves one bucket to a new
    shard, so partition membership is a pure function of the assignment
    table -- exactly what the manifest persists.
    """

    kind = "hash"

    def __init__(
        self,
        shard_count: int,
        buckets: int = DEFAULT_HASH_BUCKETS,
        assignment: Optional[Sequence[int]] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard count must be at least 1")
        if buckets < shard_count:
            raise ValueError("bucket count must be at least the shard count")
        self.shard_count = shard_count
        self.buckets = buckets
        if assignment is None:
            assignment = [bucket % shard_count for bucket in range(buckets)]
        assignment = list(assignment)
        if len(assignment) != buckets:
            raise ValueError("assignment must name an owner for every bucket")
        for owner in assignment:
            if not 0 <= owner < shard_count:
                raise ValueError(f"bucket owner {owner} outside 0..{shard_count - 1}")
        self.assignment: List[int] = assignment

    def bucket_of(self, object_surrogate: Hashable) -> int:
        return stable_bucket(object_surrogate, self.buckets)

    def shard_of(self, element: Element) -> int:
        return self.assignment[self.bucket_of(element.object_surrogate)]

    def moved(self, bucket: int, target: int) -> "HashPartitioner":
        """A new partitioner with *bucket* reassigned to shard *target*."""
        if not 0 <= bucket < self.buckets:
            raise ValueError(f"bucket {bucket} outside 0..{self.buckets - 1}")
        if not 0 <= target < self.shard_count:
            raise ValueError(f"target shard {target} outside 0..{self.shard_count - 1}")
        assignment = list(self.assignment)
        assignment[bucket] = target
        return HashPartitioner(self.shard_count, self.buckets, assignment)

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "shards": self.shard_count,
            "buckets": self.buckets,
            "assignment": list(self.assignment),
        }

    def __repr__(self) -> str:
        return f"HashPartitioner({self.shard_count} shards, {self.buckets} buckets)"


class RangePartitioner:
    """Valid-time range partitioning.

    ``boundaries`` holds ``shard_count - 1`` strictly increasing
    microsecond split points: an element routes by its valid time (an
    interval routes by its start) to the shard whose range contains it.
    Range sharding is what makes envelope pruning sharp -- a timeslice
    probe intersects exactly one shard's valid-time envelope.
    """

    kind = "range"

    def __init__(self, boundaries: Sequence[int]) -> None:
        boundaries = list(boundaries)
        for left, right in zip(boundaries, boundaries[1:]):
            if right <= left:
                raise ValueError("range boundaries must be strictly increasing")
        self.boundaries: List[int] = boundaries
        self.shard_count = len(boundaries) + 1

    def shard_of(self, element: Element) -> int:
        vt = element.vt
        key = encode_point(vt.start) if isinstance(vt, Interval) else vt.microseconds
        return bisect_right(self.boundaries, key)

    def moved(self, boundary: int, new_value: int) -> "RangePartitioner":
        """A new partitioner with boundary *boundary* moved to *new_value*.

        Shifting one split point moves the valid-time span between the
        old and new values from one adjacent shard to the other.
        """
        if not 0 <= boundary < len(self.boundaries):
            raise ValueError(f"boundary {boundary} outside 0..{len(self.boundaries) - 1}")
        boundaries = list(self.boundaries)
        boundaries[boundary] = new_value
        return RangePartitioner(boundaries)

    def spec(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "shards": self.shard_count,
            "boundaries": list(self.boundaries),
        }

    def __repr__(self) -> str:
        return f"RangePartitioner({self.shard_count} shards, boundaries={self.boundaries})"


Partitioner = Union[HashPartitioner, RangePartitioner]


def partitioner_from_spec(spec: Dict[str, Any]) -> Partitioner:
    kind = spec.get("kind")
    if kind == "hash":
        return HashPartitioner(
            spec["shards"], buckets=spec["buckets"], assignment=spec["assignment"]
        )
    if kind == "range":
        return RangePartitioner(spec["boundaries"])
    raise ValueError(f"unknown partitioner kind {kind!r}")


class ShardEnvelope:
    """What the router knows about one shard without touching elements.

    The (tt, vt) bounding box plus liveness -- the union of the shard's
    sealed-segment zone maps widened by its mutable head.  Conservative
    in the zone-map sense: a probe outside the envelope cannot match,
    a probe inside may.
    """

    __slots__ = ("count", "live", "tt_lo", "tt_hi", "vt_lo", "vt_hi", "max_closed_tt_stop")

    def __init__(
        self,
        count: int,
        live: int,
        tt_lo: int,
        tt_hi: int,
        vt_lo: int,
        vt_hi: int,
        max_closed_tt_stop: int,
    ) -> None:
        self.count = count
        self.live = live
        self.tt_lo = tt_lo
        self.tt_hi = tt_hi
        self.vt_lo = vt_lo
        self.vt_hi = vt_hi
        self.max_closed_tt_stop = max_closed_tt_stop

    def may_contain_vt(self, lo: int, hi: int) -> bool:
        """Could any element's valid time intersect ``[lo, hi]``?"""
        return not (hi < self.vt_lo or lo > self.vt_hi)

    def alive_at(self, tt_micro: int) -> bool:
        """Could any element's existence interval contain *tt_micro*?"""
        if self.tt_lo > tt_micro:
            return False
        return self.live > 0 or self.max_closed_tt_stop > tt_micro

    def __repr__(self) -> str:
        return (
            f"ShardEnvelope({self.count} elements, live={self.live}, "
            f"tt=[{self.tt_lo}, {self.tt_hi}], vt=[{self.vt_lo}, {self.vt_hi}])"
        )


_EMPTY_ENVELOPE = ShardEnvelope(
    count=0,
    live=0,
    tt_lo=POS_SENTINEL,
    tt_hi=NEG_SENTINEL,
    vt_lo=POS_SENTINEL,
    vt_hi=NEG_SENTINEL,
    max_closed_tt_stop=NEG_SENTINEL,
)


class ShardedEngine(StorageEngine):
    """One relation horizontally partitioned across N backing engines.

    Writes route each element to its owning shard (and, in durable mode,
    through that shard's own WAL); reads scatter over the shards the
    envelope router admits and gather by merging on the globally unique
    ``tt_start`` coordinate.  The engine satisfies the full
    :class:`StorageEngine` contract, so a sharded relation is a drop-in
    for a single-store one -- the differential suite holds the two
    byte-identical.
    """

    #: Planner/operator dispatch flag (cheaper than isinstance across
    #: the lazy-import boundary).
    is_sharded = True

    def __init__(
        self,
        shards: Optional[Sequence[StorageEngine]] = None,
        *,
        shard_count: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        maintain_vt_index: bool = True,
        segment_size: Optional[int] = None,
        data_dir: Optional[str] = None,
        fsync: bool = True,
        tier_dir: Optional[str] = None,
    ) -> None:
        self._maintain_vt_index = maintain_vt_index
        self._segment_size = segment_size
        self._data_dir = data_dir
        #: Root for per-shard cold-segment directories; each shard tiers
        #: into ``shard-NNN.tier`` under it (sibling of the shard WALs
        #: when this is the data_dir).  None leaves tiering to the
        #: ``REPRO_TIERED`` default (forced-on stores use temp dirs).
        self._tier_dir = tier_dir
        self._fsync = fsync
        self._manifest_path = os.path.join(data_dir, MANIFEST_NAME) if data_dir else None
        if shards is not None:
            if data_dir is not None:
                raise ValueError("pass either pre-built shards or a data_dir, not both")
            self._shards: List[StorageEngine] = list(shards)
            if not self._shards:
                raise ValueError("at least one shard engine is required")
            count = len(self._shards)
            self._partitioner = partitioner if partitioner is not None else HashPartitioner(count)
        elif data_dir is not None:
            count = self._open_durable(data_dir, shard_count, partitioner)
        else:
            if shard_count is None or shard_count < 1:
                raise ValueError("shard_count must be at least 1")
            count = shard_count
            self._partitioner = partitioner if partitioner is not None else HashPartitioner(count)
            self._shards = [self._build_memory_shard(index) for index in range(count)]
        if self._partitioner.shard_count != count:
            raise ValueError(
                f"partitioner covers {self._partitioner.shard_count} shards "
                f"but {count} shard engines exist"
            )
        #: surrogate -> shard index, for O(1) get/close routing.
        self._route: Dict[int, int] = {}
        self._max_tt = NEG_SENTINEL
        #: Monotone across every mutation AND every rebalance -- the
        #: epoch planner/relation caches key on (a rebalance preserves
        #: ``len(engine)``, so length alone cannot invalidate them).
        self._epoch = 0
        self._routed_total = 0
        self._pruned_total = 0
        #: Per-shard envelope memo: ``(epoch, envelope)`` or None, one
        #: slot per shard.  Memoized per shard (not as one all-or-nothing
        #: list) so a mutation or rebalance recomputes only the shards it
        #: actually touched.
        self._envelope_memo: List[Optional[Tuple[Tuple[int, int], ShardEnvelope]]] = [
            None
        ] * count
        self._subrel_cache: Optional[Tuple[Tuple[int, ...], List["TemporalRelation"]]] = None
        self._rebuild_route()
        # Epoch-pinned reads scatter over append-only per-shard state, so
        # they are concurrency-safe exactly when every shard's are.
        self.supports_concurrent_reads = all(
            getattr(shard, "supports_concurrent_reads", False) for shard in self._shards
        )

    def _build_memory_shard(self, index: int) -> MemoryEngine:
        return MemoryEngine(
            maintain_vt_index=self._maintain_vt_index,
            segment_size=self._segment_size,
            tier_dir=self._shard_tier_dir(index),
        )

    def _shard_tier_dir(self, index: int) -> Optional[str]:
        """Shard *index*'s cold-segment directory (None if untiered)."""
        if self._tier_dir is None:
            return None
        return os.path.join(self._tier_dir, f"shard-{index:03d}.tier")

    # -- durable open / recovery ----------------------------------------------------

    def _open_durable(
        self,
        data_dir: str,
        shard_count: Optional[int],
        partitioner: Optional[Partitioner],
    ) -> int:
        """Open (or create) a sharded directory, finishing any committed
        rebalance and discarding any uncommitted one first."""
        os.makedirs(data_dir, exist_ok=True)
        manifest = self._manifest_path
        assert manifest is not None
        spec: Optional[Dict[str, Any]] = None
        if os.path.exists(manifest) and os.path.getsize(manifest) > 0:
            batches, _report = wal.recover_file(manifest)
            for batch in batches:
                for record in batch:
                    if record.get("op") == "create":
                        spec = record["spec"]
                    elif record.get("op") == "move":
                        spec = record["spec"]
                        # The move committed: finish its renames (idempotent
                        # -- a staged file already renamed is simply gone).
                        for name in record.get("staged", ()):
                            staged = os.path.join(data_dir, name + ".staged")
                            if os.path.exists(staged):
                                os.replace(staged, os.path.join(data_dir, name))
        # Anything still staged belongs to a move that never committed:
        # the pre-move shard logs are authoritative, the stage is trash.
        for entry in sorted(os.listdir(data_dir)):
            if entry.endswith(".staged"):
                os.remove(os.path.join(data_dir, entry))
        if spec is not None:
            # The manifest is authoritative across reopens (it reflects
            # every committed rebalance since creation).
            self._partitioner = partitioner_from_spec(spec)
            count = self._partitioner.shard_count
        else:
            if partitioner is not None:
                self._partitioner = partitioner
                count = partitioner.shard_count
            else:
                if shard_count is None or shard_count < 1:
                    raise ValueError("shard_count must be at least 1")
                self._partitioner = HashPartitioner(shard_count)
                count = shard_count
            self._append_manifest({"op": "create", "format": 1, "spec": self._partitioner.spec()})
        self._shards = [
            LogFileEngine(
                os.path.join(data_dir, shard_file_name(index)),
                fsync=self._fsync,
                segment_size=self._segment_size,
                tier_dir=self._shard_tier_dir(index),
            )
            for index in range(count)
        ]
        return count

    def _append_manifest(self, record: Dict[str, Any]) -> None:
        """Durably append one committed record to the manifest."""
        assert self._manifest_path is not None
        payload = wal.frame_record(record) + wal.commit_marker(1)
        with open(self._manifest_path, "ab") as handle:
            if handle.tell() == 0:
                handle.write(wal.MAGIC)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    def _rebuild_route(self) -> None:
        self._route = {}
        self._max_tt = NEG_SENTINEL
        for index, shard in enumerate(self._shards):
            last_tt = NEG_SENTINEL
            for element in shard.scan():
                self._route[element.element_surrogate] = index
                last_tt = element.tt_start.microseconds
            if last_tt > self._max_tt:
                self._max_tt = last_tt

    # -- mutation -------------------------------------------------------------------

    def append(self, element: Element) -> None:
        tt = element.tt_start.microseconds
        if tt <= self._max_tt:
            raise ValueError(
                f"transaction times must be strictly increasing; got {tt} after {self._max_tt}"
            )
        index = self._partitioner.shard_of(element)
        self._shards[index].append(element)
        self._route[element.element_surrogate] = index
        self._max_tt = tt
        self._epoch += 1

    def extend(self, elements: Iterable[Element]) -> int:
        batch = list(elements)
        if not batch:
            return 0
        self._validate_batch(batch)
        if batch[0].tt_start.microseconds <= self._max_tt:
            raise ValueError(
                "batch transaction times must exceed all stored ones; "
                f"got {batch[0].tt_start!r} at or below {self._max_tt}"
            )
        per_shard: Dict[int, List[Element]] = {}
        for element in batch:
            per_shard.setdefault(self._partitioner.shard_of(element), []).append(element)
        # All-or-nothing across shards: every sub-batch is validated
        # against its shard before any shard mutates.
        for index, sub in per_shard.items():
            validate = getattr(self._shards[index], "validate_extend", None)
            if validate is not None:
                validate(sub)
        for index, sub in per_shard.items():
            self._shards[index].extend(sub)
            for element in sub:
                self._route[element.element_surrogate] = index
        self._max_tt = batch[-1].tt_start.microseconds
        self._epoch += 1
        return len(batch)

    def close_element(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        index = self._route.get(element_surrogate)
        if index is None:
            raise self._not_found(element_surrogate)
        closed = self._shards[index].close_element(element_surrogate, tt_stop)
        self._epoch += 1
        return closed

    # -- lookup ---------------------------------------------------------------------

    def get(self, element_surrogate: int) -> Element:
        index = self._route.get(element_surrogate)
        if index is None:
            raise self._not_found(element_surrogate)
        return self._shards[index].get(element_surrogate)

    def _merge(self, streams: Iterable[Iterator[Element]]) -> Iterator[Element]:
        """Gather per-shard tt-ordered streams into the global tt order.

        ``tt_start`` is globally unique, so the merge is total and the
        result is byte-identical to the single-store order.
        """
        return heapq.merge(*streams, key=_tt_key)

    def scan(self) -> Iterator[Element]:
        routed = self.route_shards(lambda envelope: True)
        return self._merge(self._shards[index].scan() for index in routed)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def current(self) -> Iterator[Element]:
        routed = self.route_shards(lambda envelope: envelope.live > 0)
        return self._merge(self._shards[index].current() for index in routed)

    def as_of(self, tt: TimePoint) -> Iterator[Element]:
        routed = self.route_shards(ScanSpec.of(as_of=tt).may_match)
        return self._merge(self._shards[index].as_of(tt) for index in routed)

    def valid_at(
        self, vt: Timestamp, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        match = ScanSpec.of(vt, as_of_tt).may_match
        return iter(self._scatter_sorted(lambda shard: shard.valid_at(vt, as_of_tt), match))

    def valid_overlapping(
        self, window: Interval, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        match = ScanSpec.of(window, as_of_tt).may_match
        return iter(
            self._scatter_sorted(lambda shard: shard.valid_overlapping(window, as_of_tt), match)
        )

    def _scatter_sorted(
        self,
        read: Callable[[StorageEngine], Iterator[Element]],
        match: Callable[[ShardEnvelope], bool],
    ) -> List[Element]:
        """Scatter an unordered per-shard read, gather in canonical tt order.

        Per-shard valid-time indexes yield in index order, not tt order,
        so the gather sorts by the globally unique ``tt_start`` -- one
        deterministic order regardless of partitioning.
        """
        results: List[Element] = []
        for index in self.route_shards(match):
            results.extend(read(self._shards[index]))
        results.sort(key=_tt_key)
        return results

    # -- envelope routing -----------------------------------------------------------

    def route_shards(self, match: Callable[[ShardEnvelope], bool]) -> List[int]:
        """Shard indexes an envelope-filtered query must visit.

        Empty shards never route; a non-empty shard routes when *match*
        accepts its envelope.  Routed/pruned totals feed the
        ``storage.shards.*`` counters and ``explain()``.
        """
        envelopes = self.envelopes()
        routed = [
            index
            for index, envelope in enumerate(envelopes)
            if envelope.count > 0 and match(envelope)
        ]
        pruned = len(self._shards) - len(routed)
        self._routed_total += len(routed)
        self._pruned_total += pruned
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("storage.shards.queries").inc()
            registry.counter("storage.shards.routed").inc(len(routed))
            registry.counter("storage.shards.pruned").inc(pruned)
        return routed

    def routing_totals(self) -> Tuple[int, int]:
        """Monotone (routed, pruned) totals; callers diff around a query."""
        return (self._routed_total, self._pruned_total)

    def envelopes(self) -> List[ShardEnvelope]:
        """Per-shard (tt, vt) envelopes, memoized per shard mutation epoch.

        Each shard's envelope is cached against that shard's own epoch,
        so mutating (or rebalancing) one shard recomputes one envelope --
        the untouched shards answer from their memo.
        """
        envelopes: List[ShardEnvelope] = []
        for index, shard in enumerate(self._shards):
            epoch = self._shard_epoch(shard)
            memo = self._envelope_memo[index]
            if memo is not None and memo[0] == epoch:
                envelopes.append(memo[1])
                continue
            envelope = self._compute_envelope(shard)
            self._envelope_memo[index] = (epoch, envelope)
            envelopes.append(envelope)
        return envelopes

    @staticmethod
    def _shard_epoch(shard: StorageEngine) -> Tuple[int, int]:
        index = getattr(shard, "transaction_index", None)
        if index is not None:
            return (id(shard), index.store.mutations)
        counter = getattr(shard, "mutation_count", None)
        if counter is not None:
            # Engines without a transaction index (e.g. SQLite) expose a
            # mutation epoch instead; ``len()`` alone would miss deletes,
            # freezing live counts and max-closed stamps in the memo.
            return (id(shard), counter())
        return (id(shard), len(shard))

    @staticmethod
    def _compute_envelope(shard: StorageEngine) -> ShardEnvelope:
        count = len(shard)
        if count == 0:
            return _EMPTY_ENVELOPE
        index = getattr(shard, "transaction_index", None)
        vt_lo = POS_SENTINEL
        vt_hi = NEG_SENTINEL
        max_closed = NEG_SENTINEL
        if index is None:
            live = 0
            tt_lo = POS_SENTINEL
            tt_hi = NEG_SENTINEL
            for element in shard.scan():
                tt = element.tt_start.microseconds
                tt_lo = min(tt_lo, tt)
                tt_hi = max(tt_hi, tt)
                lo, hi = _vt_bounds(element.vt)
                vt_lo = min(vt_lo, lo)
                vt_hi = max(vt_hi, hi)
                if element.is_current:
                    live += 1
                else:
                    max_closed = max(max_closed, encode_point(element.tt_stop))
            return ShardEnvelope(count, live, tt_lo, tt_hi, vt_lo, vt_hi, max_closed)
        store = index.store
        tt_lo = store.element_at(0).tt_start.microseconds
        tt_hi = store.element_at(count - 1).tt_start.microseconds
        live = store.live_count()
        for ordinal in range(store.sealed_count):
            zone = store.zone_of(ordinal)
            vt_lo = min(vt_lo, zone.vt_lo)
            vt_hi = max(vt_hi, zone.vt_hi)
            max_closed = max(max_closed, zone.max_closed_tt_stop)
        for position in range(store.head_start, count):
            element = store.element_at(position)
            lo, hi = _vt_bounds(element.vt)
            vt_lo = min(vt_lo, lo)
            vt_hi = max(vt_hi, hi)
            if not element.is_current:
                max_closed = max(max_closed, encode_point(element.tt_stop))
        return ShardEnvelope(count, live, tt_lo, tt_hi, vt_lo, vt_hi, max_closed)

    # -- per-shard planner views ------------------------------------------------------

    def subrelations(self, schema: "TemporalSchema") -> List["TemporalRelation"]:
        """Read-only per-shard relation views for scatter-gather operators.

        Each view wraps one shard engine under the parent's schema
        (``adopt_existing=False``: no constraint re-observation -- the
        parent already enforced its specializations, and regularity-style
        constraints need not hold on a shard's subsequence even though
        the ordering specializations the operators exploit always do).
        Cached until a rebalance or vacuum swaps the shard engines.
        """
        key = (id(schema),) + tuple(id(shard) for shard in self._shards)
        cached = self._subrel_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        from repro.relation.temporal_relation import TemporalRelation

        views = [
            TemporalRelation(schema, engine=shard, keep_backlog=False, adopt_existing=False)
            for shard in self._shards
        ]
        self._subrel_cache = (key, views)
        return views

    # -- rebalancing ------------------------------------------------------------------

    def rebalance(self, bucket: int, target: int) -> int:
        """Move one hash bucket to shard *target*; returns elements moved.

        Crash-safe in durable mode: the new assignment commits with one
        framed manifest record, so recovery lands on exactly the pre- or
        post-move assignment (see :meth:`_apply_partitioner`).
        """
        if not isinstance(self._partitioner, HashPartitioner):
            raise ValueError("rebalance(bucket, target) requires a hash partitioner")
        return self._apply_partitioner(self._partitioner.moved(bucket, target))

    def split(self, boundary: int, new_value: int) -> int:
        """Move a range boundary, shifting a vt span between adjacent shards."""
        if not isinstance(self._partitioner, RangePartitioner):
            raise ValueError("split(boundary, new_value) requires a range partitioner")
        return self._apply_partitioner(self._partitioner.moved(boundary, new_value))

    def _apply_partitioner(self, new_partitioner: Partitioner) -> int:
        """Re-home every element under *new_partitioner*, atomically.

        The affected shards are rebuilt whole (moving elements cannot be
        appended out of transaction order, and a tt-sorted rebuild keeps
        every per-shard invariant).  Durable protocol::

            1. write staged replacement WALs (fsynced) for every
               affected shard;
            2. append ONE framed "move" record + commit marker to the
               manifest (fsynced) -- THE commit point;
            3. rename staged files over the live logs and reopen.

        A crash before 2 leaves only ignorable ``*.staged`` trash (the
        pre-move assignment); a crash after 2 is finished idempotently by
        recovery on the next open (the post-move assignment).  Never a
        half-move.
        """
        if new_partitioner.shard_count != len(self._shards):
            raise ValueError("a rebalance cannot change the shard count")
        members: List[List[Element]] = [[] for _ in self._shards]
        for element in self._merge(shard.scan() for shard in self._shards):
            members[new_partitioner.shard_of(element)].append(element)
        # The move record, derived from the pre-move routing table: no
        # second scan over shards that did not gain or lose anything.
        # Per-shard order cannot change while membership is unchanged
        # (both sides are the same tt-sorted subsequence), so a shard is
        # affected exactly when some element's assignment changed.
        route_updates: Dict[int, int] = {}
        affected_set = set()
        for index, group in enumerate(members):
            for element in group:
                previous = self._route[element.element_surrogate]
                if previous != index:
                    route_updates[element.element_surrogate] = index
                    affected_set.add(previous)
                    affected_set.add(index)
        affected = sorted(affected_set)
        moved = len(route_updates)
        if self._data_dir is not None:
            self._rebalance_durable(new_partitioner, members, affected)
        else:
            for index in affected:
                rebuilt = self._build_memory_shard(index)
                rebuilt.extend(members[index])
                self._shards[index] = rebuilt
        self._partitioner = new_partitioner
        # Incremental maintenance from the move record: only the moved
        # surrogates re-route and only the affected shards' envelope
        # memos drop (``_max_tt`` is untouched -- a rebalance re-homes
        # elements, it does not add or close any).
        self._route.update(route_updates)
        for index in affected:
            self._envelope_memo[index] = None
        self._epoch += 1
        self._subrel_cache = None
        self.supports_concurrent_reads = all(
            getattr(shard, "supports_concurrent_reads", False) for shard in self._shards
        )
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("storage.shards.rebalances").inc()
            registry.counter("storage.shards.moved_elements").inc(moved)
        return moved

    def _rebalance_durable(
        self,
        new_partitioner: Partitioner,
        members: List[List[Element]],
        affected: List[int],
    ) -> None:
        assert self._data_dir is not None
        staged_names = [shard_file_name(index) for index in affected]
        for index in affected:
            staged_path = os.path.join(self._data_dir, shard_file_name(index) + ".staged")
            with open(staged_path, "wb") as handle:
                handle.write(_rebuild_log_bytes(members[index]))
                handle.flush()
                os.fsync(handle.fileno())
        # THE commit point: one framed record + commit marker, fsynced.
        self._append_manifest(
            {"op": "move", "spec": new_partitioner.spec(), "staged": staged_names}
        )
        for index in affected:
            shard = self._shards[index]
            close = getattr(shard, "close", None)
            if callable(close):
                close()
            live_path = os.path.join(self._data_dir, shard_file_name(index))
            os.replace(live_path + ".staged", live_path)
            # Reopening with the shard's tier directory is safe across a
            # rebalance: adoption verifies immutable columns byte-for-byte
            # against the replayed WAL, so stale pre-move segment files
            # are detected and rewritten, never served.
            self._shards[index] = LogFileEngine(
                live_path,
                fsync=self._fsync,
                segment_size=self._segment_size,
                tier_dir=self._shard_tier_dir(index),
            )

    # -- maintenance ------------------------------------------------------------------

    def replace_shards(self, shards: Sequence[StorageEngine]) -> None:
        """Swap in rebuilt shard engines (vacuum); same count, same order."""
        if len(shards) != len(self._shards):
            raise ValueError("replacement must keep the shard count")
        self._shards = list(shards)
        self._rebuild_route()
        self._epoch += 1
        self._envelope_memo = [None] * len(self._shards)
        self._subrel_cache = None
        self.supports_concurrent_reads = all(
            getattr(shard, "supports_concurrent_reads", False) for shard in self._shards
        )

    def sync(self) -> None:
        for shard in self._shards:
            sync = getattr(shard, "sync", None)
            if callable(sync):
                sync()

    def close(self) -> None:
        for shard in self._shards:
            close = getattr(shard, "close", None)
            if callable(close):
                close()

    # -- introspection ----------------------------------------------------------------

    @property
    def shards(self) -> Tuple[StorageEngine, ...]:
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    @property
    def data_dir(self) -> Optional[str]:
        return self._data_dir

    @property
    def has_vt_index(self) -> bool:
        return all(getattr(shard, "has_vt_index", False) for shard in self._shards)

    @property
    def shards_have_tt_index(self) -> bool:
        """Whether every shard exposes the segmented tt index (and the
        planner's specialized strategies can therefore scatter)."""
        return all(
            getattr(shard, "transaction_index", None) is not None for shard in self._shards
        )

    def mutation_count(self) -> int:
        """Monotone engine epoch: mutations AND rebalances both advance it."""
        return self._epoch

    def live_count(self) -> int:
        total = 0
        for shard in self._shards:
            index = getattr(shard, "transaction_index", None)
            if index is not None:
                total += index.store.live_count()
            else:
                total += sum(1 for _ in shard.current())
        return total

    def shard_of(self, element: Element) -> int:
        """The shard the partitioner routes *element* to."""
        return self._partitioner.shard_of(element)

    def index_statistics(self) -> Dict[str, int]:
        stats: Dict[str, int] = {
            "elements": len(self),
            "shards": len(self._shards),
            "live_elements": self.live_count(),
        }
        sealed = 0
        for shard in self._shards:
            index = getattr(shard, "transaction_index", None)
            if index is not None:
                sealed += index.store.sealed_count
        stats["segments_sealed"] = sealed
        return stats

    def __repr__(self) -> str:
        return (
            f"ShardedEngine({len(self._shards)} shards, {len(self)} elements, "
            f"{self._partitioner!r})"
        )


def _rebuild_log_bytes(members: Sequence[Element]) -> bytes:
    """A complete v1 shard WAL holding exactly *members*, one batch.

    Insert records (open twins, tt-sorted -- *members* already is) come
    first, then delete records re-closing the closed ones; replay through
    the standard engine recovery reproduces the element set exactly.
    """
    records: List[Dict[str, Any]] = []
    closes: List[Dict[str, Any]] = []
    for element in members:
        open_twin = element if element.is_current else replace(element, tt_stop=FOREVER)
        records.append(
            {
                "op": "insert",
                "tt": element.tt_start.microseconds,
                "surrogate": element.element_surrogate,
                "element": _encode_element(open_twin),
            }
        )
        if not element.is_current:
            closes.append(
                {
                    "op": "delete",
                    "tt": element.tt_stop.microseconds,
                    "surrogate": element.element_surrogate,
                }
            )
    closes.sort(key=lambda record: record["tt"])
    records.extend(closes)
    framed = b"".join(wal.frame_record(record) for record in records)
    if records:
        framed += wal.commit_marker(len(records))
    return wal.MAGIC + framed
