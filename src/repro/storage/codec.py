"""The canonical element codec: one encoding per written row.

An element's wire form (:func:`element_to_json`) is a JSON object of
microsecond integers and its attribute maps, unbounded endpoints as the
storage sentinels.  Serialized with sorted keys and compact separators
(:func:`canonical_json`) it is the element's *fragment*, and that one
byte string serves two readers:

* a query response joins the fragments of its rows
  (:func:`repro.server.protocol.element_rows_body`, which re-exports
  this module's codec);
* a log's insert record carries it as its ``element`` member
  (:func:`insert_record`), spliced between the record's other members,
  so :class:`~repro.storage.logfile.LogFileEngine` encodes a written
  row once for its WAL frame and for the write's acknowledgement.

The fragment carries ``tt_stop``; log readers ignore it (deletion is its
own record), so logs written before the fragment was the record's
element read back unchanged.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii  # type: ignore[attr-defined]
from typing import Any, Dict, Iterable

from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.relation.element import Element, build_trusted, frozen_map, set_fragment
from repro.storage.columnar import decode_point, encode_point

_MICRO = Granularity.MICROSECOND


def element_to_json(element: Element) -> Dict[str, Any]:
    """One element in wire form, its full bitemporal rectangle included."""
    vt = element.vt
    return {
        "surrogate": element.element_surrogate,
        "object": element.object_surrogate,
        "tt_start": element.tt_start.microseconds,
        "tt_stop": encode_point(element.tt_stop),
        "vt": (
            [encode_point(vt.start), encode_point(vt.end)]
            if isinstance(vt, Interval)
            else vt.microseconds
        ),
        "invariant": element.time_invariant,  # read-only maps need no copy
        "varying": element.time_varying,
        "user_times": {k: v.microseconds for k, v in element.user_times.items()},
    }


def element_from_json(record: Dict[str, Any]) -> Element:
    """The element a log's insert record stores (``tt_stop`` ignored)."""
    raw_vt = record["vt"]
    if isinstance(raw_vt, list):
        vt: Any = Interval(decode_point(raw_vt[0]), decode_point(raw_vt[1]))
    else:
        vt = Timestamp(raw_vt, _MICRO)
    user = {key: Timestamp(value, _MICRO) for key, value in record["user_times"].items()}
    return build_trusted(
        record["surrogate"], record["object"], Timestamp(record["tt_start"], _MICRO), vt,
        frozen_map(record["invariant"]), frozen_map(record["varying"]), frozen_map(user),
    )


# Built once: JSONEncoder.encode builds a C encoder per call (~1.8 us a row).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_ENCODE = _ENCODER.iterencode if c_make_encoder is None else c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, True
)


def canonical_json(payload: Any) -> bytes:
    """Sorted keys, compact separators: byte-stable for a given payload."""
    return "".join(_ENCODE(payload, 0)).encode("utf-8")


def element_fragment(element: Element) -> bytes:
    """*element*'s canonical fragment, encoded now (nothing kept)."""
    return canonical_json(element_to_json(element))


def fill_fragment(element: Element) -> bytes:
    """Encode an armed element, keep the fragment on it, and return it.

    Callers use the returned bytes, never a re-read of ``_wire``: a
    durable engine re-arms the rows of its previous write, so the slot
    may already be ``b""`` again.
    """
    fragment = element_fragment(element)
    set_fragment(element, fragment)
    return fragment


def fill_fragments(elements: Iterable[Element]) -> None:
    """Fill every armed element of *elements* whose fragment is not yet filled."""
    for element in elements:
        if element._wire == b"":
            fill_fragment(element)


def insert_record(surrogate: int, tt: int, fragment: bytes) -> bytes:
    """A log's insert record around an element *fragment*: the bytes
    ``canonical_json`` gives for ``{"op": "insert", "tt": tt,
    "surrogate": surrogate, "element": <the fragment's object>}``."""
    return b'{"element":%s,"op":"insert","surrogate":%d,"tt":%d}' % (fragment, surrogate, tt)
