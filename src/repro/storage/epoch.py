"""Epoch pins: consistent snapshot handles over the append-only store.

A reader that wants a stable view of a relation *pins an epoch*: it
captures the last committed transaction coordinate (and the store
metadata that goes with it) in an immutable :class:`EpochPin`, then
evaluates every read as a rollback to that coordinate.  Because the
store is append-only -- elements are only ever appended with strictly
larger ``tt_start`` stamps, and logical deletion only rewrites
``tt_stop`` to a stamp *later* than any pinned coordinate -- a pinned
read is consistent without taking any lock:

* an element appended after the pin has ``tt_start > pin.tt`` and is
  excluded by the rollback predicate even if the scan observes it;
* an element closed after the pin has ``tt_stop > pin.tt`` and is
  still (correctly) reported as stored-at-the-pin;
* positions at or below the pinned length never change membership, so
  the transaction-time prefix a rollback scans is frozen.

This is the sequenced-snapshot read model the server layer
(:mod:`repro.server`) uses for its single-writer / many-reader
concurrency: the writer task commits mutations one at a time and
refreshes the published pin afterwards, while readers scan the sealed
prefix with the pin they grabbed at request time.

The one discipline pinning requires is that a pin must be taken at a
*writer-quiescent* point -- between committed mutations, not while a
batch is mid-extend -- because the pin reads the transaction clock,
and stamps are drawn before the batch lands.  The server guarantees
this by refreshing pins only from the writer task (and under its write
lock); single-threaded callers get it for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chronos.timestamp import Timestamp


@dataclass(frozen=True)
class EpochPin:
    """An immutable snapshot handle: "everything committed through
    transaction coordinate ``tt_micro``".

    ``elements`` and ``version`` identify the store state the pin was
    taken against (useful for cache keys and for reporting the epoch
    back to clients); the read semantics need only ``tt_micro``.
    """

    #: Last committed transaction coordinate, in microseconds on the
    #: shared exact time-line.  Every committed operation's stamp is
    #: <= this; every future stamp is > this.
    tt_micro: int
    #: Number of stored elements at pin time (including closed ones).
    elements: int
    #: The relation's mutation-version counter at pin time.
    version: int
    #: The pin as a rollback coordinate (microsecond granularity), built
    #: once: every read of the pin passes it.
    as_of: Timestamp = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "as_of", Timestamp(self.tt_micro, "microsecond"))

    def clamp(self, tt: Timestamp) -> Timestamp:
        """*tt* bounded by the pin: a rollback request later than the
        pinned epoch reads the pinned state, never a newer one."""
        if tt.microseconds > self.tt_micro:
            return self.as_of
        return tt

    def to_json(self) -> dict:
        """The wire form the server reports on every read response."""
        return {"tt": self.tt_micro, "elements": self.elements, "version": self.version}

    def __repr__(self) -> str:
        return f"EpochPin(tt={self.tt_micro}, elements={self.elements}, v{self.version})"
