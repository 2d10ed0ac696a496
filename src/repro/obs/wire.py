"""Per-``(service, method)`` wire cells: the Fig. 1 network metric.

The transports that *encode* frames know each slot's size for free (a
batch frame is the join of its slot encodings), so they attribute every
request where it is encoded: ``slots`` shipped, leg ``frames`` that
carried at least one slot of the cell, and the slot bytes in each
direction.  Frame bytes = Σ cell bytes + batch framing (``12 + slots -
1`` per batch frame), to the byte.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, NamedTuple

#: ``(service, method)``.
Key = tuple[str, str]


class WireCell(NamedTuple):
    slots: int = 0
    frames: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


def merged(reports: Iterable[dict[Key, WireCell]]) -> dict[Key, WireCell]:
    """Sum several endpoints' cells into one report."""
    total: dict[Key, WireCell] = {}
    for report in reports:
        for key, cell in report.items():
            total[key] = WireCell(*map(sum, zip(total.get(key, WireCell()),
                                                cell)))
    return total


class WireMeter:
    """One endpoint's frame totals and wire cells under one lock.

    ``requests``/``sizes`` are the frame's requests and the encoded
    size of each one's slot in that direction (for a reply, the slot
    answering the request).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: messages sent/received, bytes sent/received, delay s.
            self._totals = [0, 0, 0, 0, 0.0]
            #: key -> WireCell columns + the last frame counted in it.
            self._cells: dict[Key, list[int]] = {}

    def _record(self, column: int, nbytes: int, delay: float,
                requests: Iterable[Any], sizes: Iterable[int]) -> None:
        with self._lock:
            totals = self._totals
            totals[column] += 1
            totals[column + 2] += nbytes
            totals[4] += delay
            for request, size in zip(requests, sizes):
                key = (request.service, request.method)
                cell = self._cells.get(key)
                if cell is None:
                    cell = self._cells[key] = [0, 0, 0, 0, 0]
                cell[column + 2] += size
                if column == 0:
                    cell[0] += 1
                    if cell[4] != totals[0]:
                        cell[4] = totals[0]
                        cell[1] += 1

    def record_send(self, nbytes: int, delay: float = 0.0,
                    requests: Iterable[Any] = (),
                    sizes: Iterable[int] = ()) -> None:
        self._record(0, nbytes, delay, requests, sizes)

    def record_receive(self, nbytes: int, delay: float = 0.0,
                       requests: Iterable[Any] = (),
                       sizes: Iterable[int] = ()) -> None:
        self._record(1, nbytes, delay, requests, sizes)

    def totals(self) -> tuple:
        with self._lock:
            return tuple(self._totals)

    def cells(self) -> dict[Key, WireCell]:
        with self._lock:
            return {key: WireCell(*cell[:4])
                    for key, cell in self._cells.items()}
