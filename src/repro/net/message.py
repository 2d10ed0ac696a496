"""Canonical wire encoding for gateway <-> cloud messages.

Payloads are JSON objects extended with tagged ``bytes`` values (hex) and
tagged tuples, so that ciphertext blobs and PRF labels survive a real
network hop unchanged.  Both the in-process transport (which measures
message sizes for the network performance metrics) and the TCP transport
(which actually frames them onto a socket) use this codec.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.errors import TransportError


def _to_wire(obj: Any) -> Any:
    if isinstance(obj, (bytes, bytearray)):
        return {"__b__": bytes(obj).hex()}
    if isinstance(obj, tuple):
        return {"__t__": [_to_wire(v) for v in obj]}
    if isinstance(obj, set):
        return {"__s__": sorted(_to_wire(v) for v in obj)}  # type: ignore[type-var]
    if isinstance(obj, dict):
        return {str(k): _to_wire(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_to_wire(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TransportError(
        f"value of type {type(obj).__name__} is not wire-encodable"
    )


def _from_wire(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {"__b__"}:
            return bytes.fromhex(obj["__b__"])
        if set(obj) == {"__t__"}:
            return tuple(_from_wire(v) for v in obj["__t__"])
        if set(obj) == {"__s__"}:
            return {_from_wire(v) for v in obj["__s__"]}
        return {k: _from_wire(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_from_wire(v) for v in obj]
    return obj


#: The canonical form: compact separators, sorted keys, ASCII-only (so
#: an encoded item's length in characters is its length in bytes).
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode(payload: Any) -> bytes:
    """Serialize a payload to canonical wire bytes."""
    try:
        return _ENCODER.encode(_to_wire(payload)).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"cannot encode payload: {exc}") from exc


def encode_items(key: str, payloads: Iterable[Any]
                 ) -> tuple[bytes, list[int]]:
    """``encode({key: [*payloads]})`` assembled from the encodings of
    its items, plus each item's size on the wire — the codec is
    compositional, so the frame is byte-identical and per-item
    accounting costs no second encoding."""
    try:
        items = [_ENCODER.encode(_to_wire(payload)) for payload in payloads]
    except (TypeError, ValueError) as exc:
        raise TransportError(f"cannot encode payload: {exc}") from exc
    frame = "{%s:[%s]}" % (_ENCODER.encode(key), ",".join(items))
    return frame.encode("utf-8"), [len(item) for item in items]


def decode(data: bytes) -> Any:
    try:
        return _from_wire(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"cannot decode payload: {exc}") from exc


def wire_size(payload: Any) -> int:
    """Size in bytes of a payload on the wire (network metric input)."""
    return len(encode(payload))
