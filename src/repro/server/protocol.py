"""Wire schemas and the canonical element codec.

The request/response surface mirrors the temporal-backend schema style
of the tkg-context-engine exemplars -- typed request models with
up-front validation -- rendered here with stdlib dataclasses instead
of pydantic.  Every temporal coordinate on the wire is a microsecond
integer on the shared exact time-line; unbounded endpoints use the
storage sentinel coordinates.

The element codec is *canonical* and lives in storage
(:mod:`repro.storage.codec`, re-exported here), because a row's wire
fragment is also the element its log record carries: elements are
serialized with sorted keys and emitted in ``(tt_start,
element_surrogate)`` order, so the same logical state produces
byte-identical payloads regardless of which engine (or which index
iteration order) produced it.  The differential suite asserts exactly
this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.relation.element import Element, ValidTime
from repro.relation.schema import TemporalSchema
from repro.storage.codec import (  # re-exported: the wire codec is storage's
    canonical_json as canonical_json,
    element_fragment as element_fragment,
    element_to_json as element_to_json,
    fill_fragment as fill_fragment,
    fill_fragments as fill_fragments,
)
from repro.storage.columnar import decode_point, encode_point


class ProtocolError(ValueError):
    """A structurally invalid request payload (answered with 400)."""


# -- element -> JSON ---------------------------------------------------------------


def _canonical_order(elements: Sequence[Element]) -> List[Element]:
    return sorted(elements, key=lambda e: (e.tt_start.microseconds, e.element_surrogate))


def elements_to_json(elements: Sequence[Element]) -> List[Dict[str, Any]]:
    """Canonically ordered wire form of a result set (the reference
    encoder: it sorts whatever it is given)."""
    return [element_to_json(element) for element in _canonical_order(elements)]


def element_rows_body(
    envelope: Dict[str, Any],
    elements: Sequence[Element],
    key: str = "rows",
    fill: bool = True,
) -> bytes:
    """The body of an element-row response: *envelope* plus *key*.

    *elements* come in engine order, ``tt_start`` strictly increasing
    (the store refuses one that does not increase; §2), which is the
    canonical order, so they are joined as they come: the body is
    byte-identical to ``canonical_json({**envelope, key:
    elements_to_json(elements)})``, joined from per-row byte fragments.
    An element a store holds is armed (``_wire == b""``) and keeps its
    fragment from first encode on, and the rows a durable engine has
    just written arrive filled.  Every other row is one
    :func:`element_fragment` call and retains nothing.  With
    ``fill=False`` (a write's acknowledgement, whose rows nobody has
    read) armed rows are encoded like un-armed ones.  The envelope's
    members are spliced onto the first and last fragment, so one
    ``b",".join`` builds the whole body.
    """
    if not elements:
        return canonical_json({**envelope, key: []})
    fragments: List[bytes] = [element._wire for element in elements]  # type: ignore[misc]
    if not all(fragments):  # some row un-armed (None) or armed (b"")
        # The snapshot, never a re-read of the slot: a writer may re-arm it.
        fragments = [
            fragment
            or (fill_fragment(element) if fill and fragment == b"" else element_fragment(element))
            for element, fragment in zip(elements, fragments)
        ]
    members = {name: canonical_json(value) for name, value in envelope.items() if name != key}
    names = sorted([*members, key])
    at = names.index(key)
    before = b"".join(canonical_json(name) + b":" + members[name] + b"," for name in names[:at])
    after = b"".join(b"," + canonical_json(name) + b":" + members[name] for name in names[at + 1 :])
    fragments[0] = b"{" + before + canonical_json(key) + b":[" + fragments[0]
    fragments[-1] += b"]" + after + b"}"
    return b",".join(fragments)


def delta_to_json(delta: Any) -> Dict[str, Any]:
    """One standing-view delta in wire form.

    ``epoch`` is the mutation's committed transaction-time microsecond
    (the same coordinate an :class:`~repro.storage.epoch.EpochPin`
    names), so a subscriber reconciles a snapshot read at pin *E* by
    applying exactly the deltas with ``epoch > E``.
    """
    return {
        "kind": delta.kind,
        "epoch": delta.epoch,
        "element": element_to_json(delta.element),
    }


def deltas_to_json(deltas: Sequence[Any]) -> List[Dict[str, Any]]:
    """Wire form of a delta feed, in journal (commit) order."""
    return [delta_to_json(delta) for delta in deltas]


def rows_to_json(rows: Sequence[Any]) -> List[Any]:
    """Wire form of a TQL result: elements, projections, or counts.

    Projection rows may contain :class:`Timestamp` values (the ``vt`` /
    ``tt`` pseudo-attributes); those become microsecond integers.
    Element rows go through the canonical element codec.
    """
    if rows and isinstance(rows[0], Element):
        return elements_to_json(rows)  # type: ignore[arg-type]
    converted = []
    for row in rows:
        if isinstance(row, dict):
            converted.append(
                {key: _jsonify_value(value) for key, value in row.items()}
            )
        else:
            converted.append(_jsonify_value(row))
    return converted


def _jsonify_value(value: Any) -> Any:
    if isinstance(value, Timestamp):
        return value.microseconds
    if isinstance(value, Interval):
        return [encode_point(value.start), encode_point(value.end)]
    if hasattr(value, "is_positive"):  # a time sentinel
        return encode_point(value)
    return value


# -- JSON -> domain ----------------------------------------------------------------


def decode_valid_time(raw: Any, schema: TemporalSchema) -> ValidTime:
    """A wire valid time: an integer (event) or a 2-list (interval)."""
    if schema.is_event:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ProtocolError(
                f"relation {schema.name!r} is event-stamped; "
                f"'vt' must be a microsecond integer, got {raw!r}"
            )
        return Timestamp(raw, Granularity.MICROSECOND)
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ProtocolError(
            f"relation {schema.name!r} is interval-stamped; "
            f"'vt' must be a [start, end] pair, got {raw!r}"
        )
    return Interval(_decode_endpoint(raw[0]), _decode_endpoint(raw[1]))


def _decode_endpoint(raw: Any) -> Any:
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ProtocolError(f"interval endpoint must be a microsecond integer, got {raw!r}")
    return decode_point(raw)


def decode_attributes(
    raw: Any, schema: TemporalSchema
) -> Optional[Dict[str, Any]]:
    """Wire attributes, with declared user-defined times re-hydrated."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ProtocolError(f"'attributes' must be an object, got {raw!r}")
    user_times = set(schema.user_times)
    decoded: Dict[str, Any] = {}
    for name, value in raw.items():
        if name in user_times:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(
                    f"user-defined time {name!r} must be a microsecond integer, got {value!r}"
                )
            decoded[name] = Timestamp(value, Granularity.MICROSECOND)
        else:
            decoded[name] = value
    return decoded


# -- request models ----------------------------------------------------------------


@dataclass
class AppendRequest:
    """``POST /relations/{name}/append`` -- one fact."""

    object_surrogate: Any
    vt: ValidTime
    attributes: Optional[Dict[str, Any]]

    @classmethod
    def from_json(cls, payload: Any, schema: TemporalSchema) -> "AppendRequest":
        body = _require_object(payload, "append")
        if "object" not in body or "vt" not in body:
            raise ProtocolError("append requires 'object' and 'vt' fields")
        return cls(
            object_surrogate=body["object"],
            vt=decode_valid_time(body["vt"], schema),
            attributes=decode_attributes(body.get("attributes"), schema),
        )


@dataclass
class BulkRequest:
    """``POST /relations/{name}/bulk`` -- one atomic batch of facts."""

    rows: List[Tuple[Any, ValidTime, Optional[Dict[str, Any]]]] = field(default_factory=list)

    @classmethod
    def from_json(cls, payload: Any, schema: TemporalSchema) -> "BulkRequest":
        body = _require_object(payload, "bulk")
        raw_rows = body.get("rows")
        if not isinstance(raw_rows, list):
            raise ProtocolError("bulk requires a 'rows' list")
        rows: List[Tuple[Any, ValidTime, Optional[Dict[str, Any]]]] = []
        for position, raw in enumerate(raw_rows):
            if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 3):
                raise ProtocolError(
                    f"bulk row {position} must be [object, vt] or "
                    f"[object, vt, attributes], got {raw!r}"
                )
            attributes = decode_attributes(raw[2] if len(raw) == 3 else None, schema)
            rows.append((raw[0], decode_valid_time(raw[1], schema), attributes))
        return cls(rows=rows)


@dataclass
class DeleteRequest:
    """``POST /relations/{name}/delete`` -- logical deletion."""

    element_surrogate: int

    @classmethod
    def from_json(cls, payload: Any) -> "DeleteRequest":
        body = _require_object(payload, "delete")
        surrogate = body.get("surrogate")
        if not isinstance(surrogate, int) or isinstance(surrogate, bool):
            raise ProtocolError("delete requires an integer 'surrogate'")
        return cls(element_surrogate=surrogate)


@dataclass
class CreateRelationRequest:
    """``POST /relations`` -- declare a new relation."""

    schema: TemporalSchema

    @classmethod
    def from_json(cls, payload: Any) -> "CreateRelationRequest":
        from repro.relation.errors import SchemaError
        from repro.relation.schema import ValidTimeKind

        body = _require_object(payload, "create-relation")
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("create-relation requires a non-empty 'name'")
        kind_text = body.get("kind", "event")
        try:
            kind = ValidTimeKind(kind_text)
        except ValueError:
            raise ProtocolError(
                f"unknown relation kind {kind_text!r} (expected 'event' or 'interval')"
            ) from None
        try:
            schema = TemporalSchema(
                name=name,
                valid_time_kind=kind,
                key=_string_list(body, "key"),
                time_invariant=_string_list(body, "time_invariant"),
                time_varying=_string_list(body, "time_varying"),
                user_times=_string_list(body, "user_times"),
                granularity=body.get("granularity", "second"),
                specializations=_string_list(body, "specializations"),
            )
        except (SchemaError, ValueError) as error:
            raise ProtocolError(str(error)) from None
        return cls(schema=schema)


def _string_list(body: Dict[str, Any], name: str) -> Tuple[str, ...]:
    raw = body.get(name, ())
    if not isinstance(raw, (list, tuple)) or not all(isinstance(v, str) for v in raw):
        raise ProtocolError(f"{name!r} must be a list of strings")
    return tuple(raw)


@dataclass
class StatementRequest:
    """``POST /query`` and ``POST /relations/{name}/explain`` bodies."""

    tql: str
    execute: bool = True

    @classmethod
    def from_json(cls, payload: Any) -> "StatementRequest":
        body = _require_object(payload, "statement")
        tql = body.get("tql")
        if not isinstance(tql, str) or not tql.strip():
            raise ProtocolError("a non-empty 'tql' string is required")
        execute = body.get("execute", True)
        if not isinstance(execute, bool):
            raise ProtocolError("'execute' must be a boolean")
        return cls(tql=tql, execute=execute)


@dataclass
class RegisterViewRequest:
    """``POST /relations/{name}/views`` -- register a standing view.

    ``kind`` is ``current``, ``timeslice`` (with a ``vt`` microsecond),
    or ``overlap`` (with ``start``/``end`` microseconds).  Watch views
    take arbitrary predicates and are a library-level API only.
    """

    name: str
    kind: str
    vt: Optional[Timestamp] = None
    window: Optional[Interval] = None

    @classmethod
    def from_json(cls, payload: Any) -> "RegisterViewRequest":
        body = _require_object(payload, "view registration")
        name = body.get("name")
        if not isinstance(name, str) or not name.strip():
            raise ProtocolError("a non-empty view 'name' string is required")
        kind = body.get("kind")
        if kind == "current":
            return cls(name=name, kind=kind)
        if kind == "timeslice":
            return cls(name=name, kind=kind, vt=Timestamp(_micro(body, "vt"), "microsecond"))
        if kind == "overlap":
            start, end = _micro(body, "start"), _micro(body, "end")
            if end <= start:
                raise ProtocolError(
                    f"overlap window must have start < end, got [{start}, {end})"
                )
            return cls(
                name=name,
                kind=kind,
                window=Interval(
                    Timestamp(start, "microsecond"), Timestamp(end, "microsecond")
                ),
            )
        raise ProtocolError(
            f"unknown view kind {kind!r} (expected 'current', 'timeslice', or 'overlap')"
        )


def _micro(body: Dict[str, Any], name: str) -> int:
    value = body.get(name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{name!r} must be a microsecond integer, got {value!r}")
    return value


def _require_object(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} requires a JSON object body, got {payload!r}")
    return payload
