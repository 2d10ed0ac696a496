"""The one JSON-with-bytes codec of the middleware.

Payloads are JSON values in which ``bytes`` travel as ``{"__b__": hex}``,
so that ciphertext blobs and PRF labels survive a real network hop
unchanged.  RPC frames, encrypted document bodies, Merkle leaves, the
snapshot census and the write-ahead log all use this codec.  Tuples go
out as JSON lists (and so arrive as lists); any other non-JSON type, a
set included, is rejected with :class:`TransportError`.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.errors import TransportError

_BYTES_TAG = "__b__"


def _tag_bytes(obj: Any) -> dict[str, str]:
    if isinstance(obj, (bytes, bytearray)):
        return {_BYTES_TAG: obj.hex()}
    raise TypeError(f"value of type {type(obj).__name__} is not "
                    "wire-encodable")


def _untag_bytes(obj: dict[str, Any]) -> Any:
    if len(obj) != 1 or _BYTES_TAG not in obj:
        return obj
    value = obj[_BYTES_TAG]
    if not isinstance(value, str):
        raise TransportError(f"bytes tag carries a {type(value).__name__}")
    try:
        return bytes.fromhex(value)
    except ValueError as exc:
        raise TransportError(f"bytes tag is not hex: {exc}") from exc


#: The canonical form: compact separators, sorted keys, ASCII-only (so
#: an encoded item's length in characters is its length in bytes).
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True,
                            default=_tag_bytes)
_DECODER = json.JSONDecoder(object_hook=_untag_bytes)


def encode(payload: Any) -> bytes:
    """Serialize a payload to canonical wire bytes."""
    try:
        return _ENCODER.encode(payload).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise TransportError(f"cannot encode payload: {exc}") from exc


def encode_items(key: str, payloads: Iterable[Any]
                 ) -> tuple[bytes, list[int]]:
    """``encode({key: [*payloads]})`` assembled from the encodings of
    its items, plus each item's size on the wire — the codec is
    compositional, so the frame is byte-identical and per-item
    accounting costs no second encoding."""
    try:
        items = [_ENCODER.encode(payload) for payload in payloads]
    except (TypeError, ValueError, RecursionError) as exc:
        raise TransportError(f"cannot encode payload: {exc}") from exc
    frame = "{%s:[%s]}" % (_ENCODER.encode(key), ",".join(items))
    return frame.encode("utf-8"), [len(item) for item in items]


def decode(data: bytes) -> Any:
    """Parse wire bytes; malformed input raises only :class:`TransportError`."""
    try:
        return _DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise TransportError(f"cannot decode payload: {exc}") from exc
