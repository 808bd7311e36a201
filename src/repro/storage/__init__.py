"""Storage engines for bitemporal relations.

Section 2 of the paper is explicit that its conceptual model "does not
imply (nor disallow) a particular physical representation", and lists
several: interval-stamped tuple stores, backlog relations of operations
with single transaction stamps [JMRS90], and more.  This package
implements the representations the paper names:

* :mod:`repro.storage.memory` -- the storage engine, holding elements
  in transaction order (the tuple-store representation);
* :mod:`repro.storage.logfile` -- the same engine made durable: every
  mutation is written to a write-ahead log before it is applied;
* :mod:`repro.storage.backlog` -- the backlog representation: an
  append-only log of insertion/deletion operations, with state
  reconstruction by replay;
* :mod:`repro.storage.snapshot` -- cached historical states to
  accelerate rollback over a backlog;
* :mod:`repro.storage.indexes` -- the valid-time event index, which
  degenerates to an append for declared non-decreasing relations;
* :mod:`repro.storage.interval_tree` -- a centered interval tree for
  valid-time stabbing and overlap queries;
* :mod:`repro.storage.segments` -- the segmented transaction-time store
  the engine keeps as ``engine.store``: sealed ~4k-element segments with
  zone maps for pruning and a materialized current-state view;
* :mod:`repro.storage.wal` -- the framed, checksummed write-ahead-log
  record layout used by :class:`~repro.storage.logfile.LogFileEngine`,
  with torn-tail recovery (``.corrupt`` quarantine + truncation).
"""

from repro.storage.backlog import Backlog, Operation, OperationKind
from repro.storage.indexes import ValidTimeEventIndex
from repro.storage.interval_tree import IntervalTree
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.segments import SegmentedStore, ZoneMap
from repro.storage.snapshot import SnapshotCache
from repro.storage.wal import RecoveryReport, recover_file

__all__ = [
    "RecoveryReport",
    "recover_file",
    "Backlog",
    "Operation",
    "OperationKind",
    "ValidTimeEventIndex",
    "IntervalTree",
    "LogFileEngine",
    "MemoryEngine",
    "SegmentedStore",
    "ZoneMap",
    "SnapshotCache",
]
