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
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError, SerializationError

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
    "encode_pairs",
    "decode_pairs",
    "ok_response",
    "error_response",
]

#: Protocol revision, sent in ``hello`` and checked by the client.
WIRE_VERSION = 1

#: Hard cap on one wire line (64 MiB) — a malformed or hostile peer
#: cannot make ``readline`` buffer unboundedly.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Every request ``op`` the server dispatches, in lifecycle → ingest →
#: query → admin order (documented one-per-row in ``docs/serve.md``).
#: ``adopt`` (serve a serialized estimator frame under a key — the
#: cluster tier's fail-over rehydration path) is handled by every
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


def _numeric_column(values: Any) -> bool:
    """Whether ``values`` is a 1-D bool/int/uint/float numpy array."""
    return (
        isinstance(values, np.ndarray)
        and values.ndim == 1
        and values.dtype.kind in "biuf"
    )


def encode_items(items: Iterable[Any]) -> List[Any]:
    """:func:`encode_item` over a label column.

    A numeric numpy column lowers in one ``tolist()`` pass, which yields
    exactly the Python scalars :func:`encode_item` would, so the wire
    line is byte-identical; any other iterable goes label by label.
    """
    if _numeric_column(items):
        return items.tolist()
    return [encode_item(item) for item in items]


def encode_reals(values: Optional[Iterable[Any]]) -> Optional[List[float]]:
    """A weight or timestamp column as Python floats (``None`` passes)."""
    if values is None:
        return None
    if _numeric_column(values):
        return values.astype(np.float64, copy=False).tolist()
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
    try:
        finite = bool(np.isfinite(np.asarray(values, dtype=np.float64)).all())
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidParameterError(f"'{field}' must hold finite real numbers")


def check_rows(
    request: Dict[str, Any],
) -> Tuple[List[Any], Optional[List[Any]], Optional[List[Any]]]:
    """The validated wire columns ``(items, weights, timestamps)`` of a batch.

    Checks an ``update_batch`` request at the boundary, before anything
    is enqueued: every label lies in the wire label domain
    (:class:`SerializationError` otherwise); ``weights`` and
    ``timestamps`` are ``null`` or arrays aligned with ``items``, holding
    finite real numbers and no booleans (:class:`InvalidParameterError`
    otherwise).  The columns come back as the wire values, undecoded.
    """
    items = request.get("items")
    if not isinstance(items, list):
        raise InvalidParameterError("'items' must be a JSON array of labels")
    _check_labels(items)
    columns = []
    for field in ("weights", "timestamps"):
        values = request.get(field)
        if values is not None:
            if not isinstance(values, list) or len(values) != len(items):
                raise InvalidParameterError(
                    f"'{field}' must be null or an array aligned with "
                    f"'items' ({len(items)} rows)"
                )
            _check_reals(field, values)
        columns.append(values)
    return items, columns[0], columns[1]


def encode_pairs(groups: "Dict[Any, float] | Iterable[Tuple[Any, float]]") -> List[List[Any]]:
    """Encode a grouped result as an order-preserving pair list."""
    pairs = groups.items() if isinstance(groups, dict) else groups
    return [[encode_item(item), float(value)] for item, value in pairs]


def decode_pairs(payload: Sequence[Sequence[Any]]) -> Dict[Any, float]:
    """Decode a pair list back to an insertion-ordered dict."""
    return {decode_item(item): float(value) for item, value in payload}


def _jsonable(value: Any) -> Any:
    """``json.dumps`` default hook: numpy scalars to their Python twins."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One protocol message as a compact, newline-terminated JSON line."""
    return (
        json.dumps(payload, separators=(",", ":"), default=_jsonable) + "\n"
    ).encode("utf-8")


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
