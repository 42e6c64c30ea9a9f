"""The JSON-lines wire format shared by the TCP server and client.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — the
simplest protocol that stdlib ``asyncio`` streams speak natively
(``readline`` / ``write``), trivially debuggable with ``nc``.

Requests carry ``{"id", "op", ...op fields...}``; responses echo the id
as ``{"id", "ok": true, "result": {...}}`` or
``{"id", "ok": false, "error": {"type", "message"}}``.  The error
``type`` is the exception class name, which the client maps back onto
the :mod:`repro.errors` hierarchy so remote failures raise the same
classes local calls do.

Item labels survive the trip with types intact where JSON allows:
integers, floats, strings and booleans pass through; *tuple* labels
(composite keys are tuples throughout the package) are encoded as JSON
arrays and decoded back to tuples recursively — JSON has no tuple, and
lists are unhashable, so any array arriving in an item position must
mean a tuple.  Grouped results (``estimates`` / ``heavy_hitters`` /
``top_k``) travel as ``[[item, value], ...]`` pair lists, never JSON
objects, because JSON object keys are strings and would destroy
integer and tuple labels.

Both clients share one op surface (:mod:`repro.serve.client`).  What the
TCP side adds lives here, keyed by name: :func:`encode_fields` and
:func:`decode_fields` convert op fields by *field* name (``item``,
``items``/``candidates``, ``weights``/``timestamps``, ``frame``,
``pairs``), validating what a peer sent, and :func:`encode_result` /
:func:`decode_result` carry an op's normalized value in its result
payload, by *op* name.

**Column frames.**  A peer whose ``hello`` carries ``"columns": true``
also reads ``update_batch`` requests whose numeric columns travel as raw
little-endian bytes instead of JSON arrays.  The request line then holds
every other field plus ``columns: [[field, dtype, nbytes], ...]``, and
the columns' bytes follow the line directly, in that order.  A frame is
sent only when ``items`` is a 1-D bool/int/uint array; its ``weights``
and ``timestamps`` then go as float64 (``<f8``).  Label dtypes come from
:data:`COLUMN_DTYPES` (``|b1``, ``|i1``, ``<i2``, ``<i4``, ``<i8``,
``|u1``, ``<u2``, ``<u4``, ``<u8``).  Everything else — responses,
control ops, object/str/tuple/float label columns, and any line to a
peer that did not advertise frames — is the JSON line above, byte for
byte.  :func:`column_layout` and :func:`attach_columns` check a frame as
it is read: the byte counts first (unusable counts cannot be skipped,
so the endpoint answers and closes), then the fields, dtypes, sizes,
alignment and finiteness (a bad frame gets a typed error and the
connection survives).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import base
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError, SerializationError
from repro.query.engine import QueryResult

__all__ = [
    "WIRE_VERSION",
    "KNOWN_OPS",
    "encode_line",
    "decode_line",
    "encode_item",
    "decode_item",
    "encode_items",
    "encode_reals",
    "decode_items",
    "check_rows",
    "check_finite",
    "check_k",
    "check_phi",
    "check_candidates",
    "column_layout",
    "attach_columns",
    "encode_pairs",
    "decode_pairs",
    "encode_fields",
    "decode_fields",
    "encode_result",
    "decode_result",
    "ok_response",
    "error_response",
]

#: Protocol revision, sent in ``hello`` and checked by the client.
WIRE_VERSION = 1

#: Hard cap on one wire line (64 MiB) — a malformed or hostile peer
#: cannot make ``readline`` buffer unboundedly.  The bytes of a column
#: frame's columns are capped at the same size.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: The ``update_batch`` fields a column frame may carry as raw bytes, by
#: field, with the little-endian dtypes (``numpy.dtype.str``) each takes.
COLUMN_DTYPES: Dict[str, frozenset] = {
    "items": frozenset(
        np.dtype(code).str
        for code in ("?", "i1", "<i2", "<i4", "<i8", "u1", "<u2", "<u4", "<u8")
    ),
    "weights": frozenset({"<f8"}),
    "timestamps": frozenset({"<f8"}),
}

#: Every request ``op`` the server dispatches, in lifecycle → ingest →
#: query → admin order (documented one-per-row in ``docs/serve.md``).
#: ``adopt`` (serve a serialized estimator frame under a key — the
#: cluster tier's fail-over rehydration path) and its inverse ``export``
#: are handled by every
#: :class:`~repro.serve.server.SketchServer`; ``cluster_info`` is
#: answered by a :class:`~repro.cluster.router.ClusterRouter` front,
#: which otherwise speaks this same protocol on both of its sides.
#: A ``create`` may carry ``shards: k`` — ignored by a single server,
#: honoured by a router, which then key-shards the session across ``k``
#: members (see ``docs/cluster.md``).  ``join`` and ``decommission`` are
#: router-only elasticity ops (live membership change with streaming
#: shard rebalance); a bare server rejects them as unknown.
KNOWN_OPS = (
    "ping",
    "create",
    "drop",
    "list",
    "info",
    "update",
    "update_batch",
    "flush",
    "estimate",
    "estimates",
    "subset_sum",
    "total",
    "heavy_hitters",
    "top_k",
    "checkpoint",
    "metrics",
    "adopt",
    "export",
    "cluster_info",
    "join",
    "decommission",
)


def encode_item(item: Any) -> Any:
    """Make one item label JSON-encodable (tuples become arrays)."""
    if isinstance(item, tuple):
        return [encode_item(part) for part in item]
    if isinstance(item, np.generic):
        item = item.item()
    if item is None or isinstance(item, (bool, int, float, str)):
        return item
    raise SerializationError(
        f"item label {item!r} ({type(item).__name__}) is outside the wire "
        "protocol's label domain (int, float, str, bool, None, tuples thereof)"
    )


def decode_item(payload: Any) -> Any:
    """Inverse of :func:`encode_item`: arrays in item position are tuples."""
    if isinstance(payload, list):
        return tuple(decode_item(part) for part in payload)
    return payload


def _numeric_column(values: Any, kinds: str = "biuf") -> bool:
    """Whether ``values`` is a 1-D numpy array of one of the dtype
    ``kinds`` (bool/int/uint/float by default; a column frame's labels
    are ``"biu"``)."""
    return (
        isinstance(values, np.ndarray)
        and values.ndim == 1
        and values.dtype.kind in kinds
    )


def encode_items(items: Iterable[Any]) -> "List[Any] | np.ndarray":
    """:func:`encode_item` over a label column.

    A numeric numpy column stays an array: :func:`encode_line` sends it
    as a column frame, or lowers it in one ``tolist()`` pass, which
    yields exactly the Python scalars :func:`encode_item` would, so the
    JSON line is byte-identical.  Any other iterable goes label by label.
    """
    if _numeric_column(items):
        return items
    return [encode_item(item) for item in items]


def encode_reals(
    values: Optional[Iterable[Any]],
) -> "Optional[List[float] | np.ndarray]":
    """A weight or timestamp column as floats (``None`` passes).

    A numeric numpy column becomes a float64 array, which
    :func:`encode_line` sends or lowers as :func:`encode_items` does;
    any other iterable becomes a list of Python floats.
    """
    if values is None:
        return None
    if _numeric_column(values):
        return values.astype(np.float64, copy=False)
    return [float(value) for value in values]


def decode_items(payload: List[Any]) -> List[Any]:
    """:func:`decode_item` over a label column.

    Only arrays change under decoding, so a column without any is
    returned as is.
    """
    if list not in set(map(type, payload)):
        return payload
    return [decode_item(item) for item in payload]


#: JSON value types that are labels as they stand (arrays are tuples).
_SCALAR_LABELS = frozenset((int, float, str, bool, type(None)))
#: JSON value types a weight or timestamp may take (``bool`` is not one).
_REALS = frozenset((int, float))


def _check_labels(labels: List[Any]) -> None:
    kinds = set(map(type, labels))
    if kinds <= _SCALAR_LABELS:
        return
    for label in labels:
        kind = type(label)
        if kind is list:
            _check_labels(label)
        elif kind not in _SCALAR_LABELS:
            raise SerializationError(
                f"item label {label!r} ({kind.__name__}) is outside the wire "
                "protocol's label domain (int, float, str, bool, null, arrays "
                "thereof)"
            )


def _check_reals(field: str, values: List[Any]) -> None:
    if not set(map(type, values)) <= _REALS:
        bad = next(value for value in values if type(value) not in _REALS)
        raise InvalidParameterError(
            f"'{field}' must hold finite real numbers, got {bad!r}"
        )
    check_finite(field, values)


def check_finite(field: str, values: Any) -> None:
    """Refuse a ``weights`` or ``timestamps`` column unless every value is
    a finite real number.  The wire runs it after its JSON type check
    (numbers, not booleans); an in-process enqueue runs it alone."""
    if not isinstance(values, np.ndarray):
        try:
            if math.isfinite(sum(values)):
                return  # an infinite or NaN term never sums to a finite value
        except (OverflowError, TypeError):
            pass
    try:
        column = np.asarray(values, dtype=np.float64)
        finite = column.ndim == 1 and bool(np.isfinite(column).all())
    except (OverflowError, TypeError, ValueError):
        finite = False
    if not finite:
        raise InvalidParameterError(f"'{field}' must hold finite real numbers")


def _label_column(field: str, labels: Any) -> List[Any]:
    if not isinstance(labels, list):
        raise InvalidParameterError(f"'{field}' must be a JSON array of labels")
    _check_labels(labels)
    return labels


def _real_column(field: str, values: Any) -> List[Any]:
    if not isinstance(values, list):
        raise InvalidParameterError(f"'{field}' must be null or an array")
    _check_reals(field, values)
    return values


def check_rows(
    request: Dict[str, Any],
) -> Tuple[List[Any], Optional[List[Any]], Optional[List[Any]]]:
    """The validated wire columns ``(items, weights, timestamps)`` of a batch.

    Checks an ``update_batch`` request at the boundary, before anything
    is enqueued: every label lies in the wire label domain
    (:class:`SerializationError` otherwise); ``weights`` and
    ``timestamps`` are ``null`` or arrays aligned with ``items``, holding
    finite real numbers and no booleans (:class:`InvalidParameterError`
    otherwise).  The columns come back as the wire values, undecoded;
    a column frame's arrays, checked as they were read, pass as they are.
    """
    items = request.get("items")
    if not isinstance(items, np.ndarray):
        _label_column("items", items)
    columns = []
    for field in ("weights", "timestamps"):
        values = request.get(field)
        if values is not None:
            if not isinstance(values, np.ndarray):
                _real_column(field, values)
            if len(values) != len(items):
                raise InvalidParameterError(
                    f"'{field}' must be null or an array aligned with "
                    f"'items' ({len(items)} rows)"
                )
        columns.append(values)
    return items, columns[0], columns[1]


def check_k(k: Any) -> int:
    """A wire ``top_k`` count: :func:`repro.core.base.check_k`, and an
    absent field (``None``) reads as 10."""
    return 10 if k is None else base.check_k(k)


def check_phi(phi: Any) -> float:
    """A wire ``heavy_hitters`` fraction: :func:`repro.core.base.check_phi`,
    and an absent field (``None``) reads as 0.01."""
    return 0.01 if phi is None else base.check_phi(phi)


def check_candidates(candidates: Any) -> Any:
    """A ``subset_sum``'s ``candidates``, refused alike on every front
    unless they are a collection of labels: the TCP client runs it
    before encoding, and :func:`decode_fields` before its label check."""
    if isinstance(candidates, Iterable) and not isinstance(candidates, (str, bytes, Mapping)):
        return candidates
    raise InvalidParameterError(
        "'candidates' must be an array of labels (a callable predicate works in "
        f"process only), got {type(candidates).__name__}"
    )


def encode_pairs(groups: "Dict[Any, float] | Iterable[Tuple[Any, float]]") -> List[List[Any]]:
    """Encode a grouped result as an order-preserving pair list."""
    pairs = groups.items() if isinstance(groups, dict) else groups
    return [[encode_item(item), float(value)] for item, value in pairs]


def decode_pairs(payload: Sequence[Sequence[Any]]) -> Dict[Any, float]:
    """Decode a pair list back to an insertion-ordered dict."""
    return {decode_item(item): float(value) for item, value in payload}


def _encode_frame(frame: bytes) -> str:
    return base64.b64encode(bytes(frame)).decode("ascii")


def _decode_frame(field: str, frame: Any) -> bytes:
    if not isinstance(frame, str):
        raise InvalidParameterError(
            f"'{field}' must be a base64 string holding a serialized estimator"
        )
    try:
        return base64.b64decode(frame.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise SerializationError(f"'{field}' is not valid base64: {exc}") from exc


#: Field name -> its Python-to-wire encoder (other fields pass as they
#: are).  Module functions are looked up at call time, so a wrapper put
#: on one (the traced benchmark run counts ``encode_item``) sees every call.
_ENCODERS: Dict[str, Callable[[Any], Any]] = {
    "item": lambda item: encode_item(item),
    "items": lambda items: encode_items(items),
    "candidates": lambda candidates: encode_items(check_candidates(candidates)),
    "weights": lambda values: encode_reals(values),
    "timestamps": lambda values: encode_reals(values),
    "frame": _encode_frame,
    "pairs": lambda groups: encode_pairs(groups),
}


#: Field name -> its checking wire-to-Python decoder ``(field, value)``;
#: a single label or real is checked as a column of one.
_DECODERS: Dict[str, Callable[[str, Any], Any]] = {
    "item": lambda field, label: decode_items(_label_column(field, [label]))[0],
    "items": lambda field, labels: decode_items(_label_column(field, labels)),
    "candidates": lambda field, labels: decode_items(
        _label_column(field, check_candidates(labels))
    ),
    "weight": lambda field, value: _real_column(field, [value])[0],
    "timestamp": lambda field, value: _real_column(field, [value])[0],
    "weights": _real_column,
    "timestamps": _real_column,
    "frame": _decode_frame,
    "pairs": lambda field, pairs: decode_pairs(pairs),
}


def encode_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """An op's fields (or result payload) as wire values, by field name.

    Labels become wire labels and columns lists, or numeric arrays left
    for :func:`encode_line` to send or lower; ``frame`` bytes become
    base64 and ``pairs`` a pair list; ``None`` and every other field pass
    unchanged, in order.  A callable ``candidates`` predicate raises
    :class:`InvalidParameterError`: it cannot be sent.
    """
    return {
        key: value
        if value is None or key not in _ENCODERS
        else _ENCODERS[key](value)
        for key, value in fields.items()
    }


def decode_fields(message: Dict[str, Any]) -> Dict[str, Any]:
    """The op fields of a wire message as Python values, by field name.

    The inverse of :func:`encode_fields`, and the check at the boundary,
    with the errors of :func:`check_rows`, for a single row as for a
    column.  ``null`` fields and fields without a decoder stay as they are.
    A column frame's arrays were checked as they were read
    (:func:`attach_columns`) and pass as they are.
    """
    fields = dict(message)
    for key in fields.keys() & _DECODERS.keys():
        value = fields[key]
        if value is not None and not isinstance(value, np.ndarray):
            fields[key] = _DECODERS[key](key, value)
    return fields


#: Op name -> the result payload field that carries the op's value.
_RESULT_FIELDS = {
    "create": "info",
    "adopt": "info",
    "info": "info",
    "list": "sessions",
    "metrics": "metrics",
    "cluster_info": "cluster",
    "update_batch": "enqueued",
    "flush": "rows_applied",
    "checkpoint": "sessions",
    "estimates": "pairs",
    "heavy_hitters": "pairs",
    "top_k": "pairs",
}
#: Op name -> constant payload fields (``drop`` and ``update`` have no value).
_RESULT_FLAGS = {
    "create": {"created": True},
    "adopt": {"adopted": True},
    "drop": {"dropped": True},
    "update": {"enqueued": 1},
}
_SCALAR_OPS = ("estimate", "subset_sum", "total")
_GROUPED_OPS = ("heavy_hitters", "top_k")


def encode_result(op: str, value: Any) -> Dict[str, Any]:
    """The wire result payload carrying an op's normalized value."""
    if op in _SCALAR_OPS:
        payload = {"estimate": value.estimate, "variance": value.variance}
    elif op in _RESULT_FIELDS:
        field = _RESULT_FIELDS[op]
        groups = value.groups if op in _GROUPED_OPS else value
        payload = {**_RESULT_FLAGS.get(op, {}), field: groups}
    else:  # a dict value is its own payload
        payload = _RESULT_FLAGS.get(op, value)
    return encode_fields(payload)


def decode_result(op: str, payload: Dict[str, Any]) -> Any:
    """The normalized value in an op's wire result payload.

    The inverse of :func:`encode_result`: scalar reads become
    :class:`EstimateWithError`, ``top_k`` and ``heavy_hitters`` a
    :class:`QueryResult`; other ops return their payload field, ``None``
    for ``drop`` and ``update``, or the whole payload.
    """
    payload = decode_fields(payload)
    if op in _SCALAR_OPS:
        return EstimateWithError(
            estimate=float(payload["estimate"]), variance=float(payload["variance"])
        )
    if op in _RESULT_FIELDS:
        value = payload[_RESULT_FIELDS[op]]
        return QueryResult(groups=value) if op in _GROUPED_OPS else value
    return None if op in _RESULT_FLAGS else payload


def _jsonable(value: Any) -> Any:
    """``json.dumps`` default hook: numpy scalars to their Python twins."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_line(payload: Dict[str, Any]) -> bytes:
    return (
        json.dumps(payload, separators=(",", ":"), default=_jsonable) + "\n"
    ).encode("utf-8")


def encode_line(payload: Dict[str, Any], *, columns: bool = False) -> bytes:
    """One protocol message as a compact, newline-terminated JSON line.

    With ``columns=True`` (the peer's ``hello`` advertised column frames)
    an ``update_batch`` whose ``items`` is a bool/int/uint array goes as
    a column frame instead: the line lists ``columns`` in place of the
    column fields, and their little-endian bytes follow it.  Any other
    message, or any array a peer cannot read as a frame, is the JSON
    line (numpy values lowered to their Python twins).
    """
    if not (
        columns
        and payload.get("op") == "update_batch"
        and _numeric_column(payload.get("items"), "biu")
    ):
        return _json_line(payload)
    items = payload["items"]
    arrays = {"items": np.ascontiguousarray(items, items.dtype.newbyteorder("<"))}
    for field in ("weights", "timestamps"):
        if payload.get(field) is not None:
            arrays[field] = np.ascontiguousarray(payload[field], "<f8")
    header = {key: value for key, value in payload.items() if key not in arrays}
    header["columns"] = [
        [field, array.dtype.str, array.nbytes] for field, array in arrays.items()
    ]
    return b"".join([_json_line(header), *(array.data for array in arrays.values())])


def column_layout(header: Dict[str, Any]) -> List[List[Any]]:
    """The ``[field, dtype, nbytes]`` columns that follow a request line.

    Empty for a plain JSON line.  Raises :class:`SerializationError` when
    the byte counts are unusable — not an array of triples with
    non-negative integer counts, or more than :data:`MAX_LINE_BYTES` in
    all — because the reader then cannot find the next line.
    """
    layout = header.get("columns")
    if layout is None:
        return []
    if not isinstance(layout, list) or not all(
        type(entry) is list
        and len(entry) == 3
        and type(entry[2]) is int
        and entry[2] >= 0
        for entry in layout
    ):
        raise SerializationError(
            "'columns' must be an array of [field, dtype, nbytes] triples "
            "with non-negative integer byte counts"
        )
    if sum(entry[2] for entry in layout) > MAX_LINE_BYTES:
        raise SerializationError(f"column bytes exceed {MAX_LINE_BYTES} bytes")
    return layout


def attach_columns(
    header: Dict[str, Any], layout: List[List[Any]], blob: bytes
) -> Dict[str, Any]:
    """The request a column frame carries: its columns as numpy arrays.

    ``blob`` is the ``sum(nbytes)`` bytes that followed the line.  Only
    ``update_batch`` takes a frame, and a frame must carry ``items``;
    each field appears once, is not also a JSON field, and takes a dtype
    of :data:`COLUMN_DTYPES` whose item size divides its byte count
    (:class:`SerializationError` otherwise).  The columns must align and
    reals must be finite (:class:`InvalidParameterError` otherwise).  The
    arrays are read-only views of ``blob``.
    """
    request = {key: value for key, value in header.items() if key != "columns"}
    if request.get("op") != "update_batch":
        raise SerializationError("only 'update_batch' takes binary columns")
    arrays: Dict[str, np.ndarray] = {}
    view = memoryview(blob)
    offset = 0
    for field, code, nbytes in layout:
        chunk, offset = view[offset : offset + nbytes], offset + nbytes
        allowed = COLUMN_DTYPES.get(field) if type(field) is str else None
        if allowed is None:
            raise SerializationError(
                f"binary column {field!r} is not one of {sorted(COLUMN_DTYPES)}"
            )
        if field in request or field in arrays:
            raise SerializationError(f"field {field!r} is sent twice")
        if type(code) is not str or code not in allowed:
            raise SerializationError(
                f"binary column {field!r} cannot take dtype {code!r} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        dtype = np.dtype(code)
        if nbytes % dtype.itemsize:
            raise SerializationError(
                f"binary column {field!r} has {nbytes} bytes, not a whole "
                f"number of {code} values"
            )
        arrays[field] = np.frombuffer(chunk, dtype=dtype)
    if "items" not in arrays:
        raise SerializationError("a binary column frame must carry 'items'")
    rows = len(arrays["items"])
    for field in ("weights", "timestamps"):
        column = arrays.get(field)
        if column is not None:
            if len(column) != rows:
                raise InvalidParameterError(
                    f"'{field}' must be null or an array aligned with "
                    f"'items' ({rows} rows)"
                )
            check_finite(field, column)
    request.update(arrays)
    return request


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; malformed input raises :class:`SerializationError`."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"malformed wire line: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError(
            f"wire messages are JSON objects, got {type(payload).__name__}"
        )
    return payload


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success envelope echoing the request id."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """A failure envelope carrying the exception class name and message."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
