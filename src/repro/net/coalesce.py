"""Cross-operation frame coalescing: many operations, one wire batch.

:class:`repro.net.batch.BatchCollector` batches the writes of *one*
operation into one frame.  Under concurrent load — the async gateway
runtime holding hundreds of operations in flight — frames from
*different* operations still cross the link individually, so a 40 ms WAN
charges every operation its own round trip even when ten of them become
ready within a millisecond of each other.

:class:`FrameCoalescer` closes that gap.  Prepared frames are submitted
to a collector thread which waits a short *flush window* for more frames
to arrive, concatenates everything collected into one
:meth:`~repro.net.transport.Transport.call_batch` wire batch, and splits
the ordered responses back per submitted frame.  Combined batches ship
on a small worker pool, so the link holds several coalesced batches in
flight at once — the window trades a bounded queueing delay for a
multiplicative cut in round trips, the aggregation shape the
controllable-leakage and oblivious-processing designs assume a gateway
can provide.

Error contract: per-slot failures stay error :class:`Response` objects
in their slots (the caller unwraps its own frame), while a link-level
:class:`TransportError` on the combined batch propagates to every frame
that rode in it — same as if each had shipped alone and hit the fault.
"""

from __future__ import annotations

import concurrent.futures
import queue
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.net.rpc import Request, Response
from repro.net.transport import Transport

_SHUTDOWN = None


@dataclass
class CoalesceStats:
    """Operator-visible effectiveness counters."""

    frames_in: int = 0       # frames submitted by operations
    batches_out: int = 0     # combined wire batches actually shipped
    slots_shipped: int = 0   # total sub-requests across all batches

    @property
    def frames_per_batch(self) -> float:
        return self.frames_in / self.batches_out if self.batches_out else 0.0


class FrameCoalescer:
    """Merges concurrently submitted frames into shared wire batches."""

    def __init__(self, inner: Transport, window_s: float = 0.002,
                 max_slots: int = 256, workers: int = 4):
        self._inner = inner
        self._window_s = max(0.0, window_s)
        self._max_slots = max(1, max_slots)
        self._queue: queue.Queue = queue.Queue()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="coalesce-ship"
        )
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._closed = False
        self.stats = CoalesceStats()

    def submit(
        self, requests: Sequence[Request]
    ) -> "concurrent.futures.Future[list[Response]]":
        """Hand one prepared frame to the flush window.

        Returns a future resolving to this frame's responses (in its own
        request order) once the combined batch it rode in completes.
        Callable from any thread.
        """
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="coalesce-window", daemon=True
                )
                self._thread.start()
        self._queue.put((list(requests), future))
        return future

    # -- collector thread --------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            group = [item]
            slots = len(item[0])
            deadline = time.monotonic() + self._window_s
            while slots < self._max_slots:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    self._dispatch(group)
                    return
                group.append(nxt)
                slots += len(nxt[0])
            self._dispatch(group)

    def _dispatch(
        self,
        group: list[tuple[list[Request],
                          "concurrent.futures.Future[list[Response]]"]],
    ) -> None:
        with self._lock:
            self.stats.frames_in += len(group)
            self.stats.batches_out += 1
            self.stats.slots_shipped += sum(len(reqs) for reqs, _ in group)
        # Ship on the pool, not the collector thread: the next window can
        # start collecting while this combined batch is still on the wire.
        self._pool.submit(self._ship_group, group)

    def _ship_group(
        self,
        group: list[tuple[list[Request],
                          "concurrent.futures.Future[list[Response]]"]],
    ) -> None:
        combined = [request for requests, _ in group for request in requests]
        try:
            responses = self._inner.call_batch(combined)
        except BaseException as exc:  # noqa: BLE001 - fan the fault out
            for _, future in group:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        offset = 0
        for requests, future in group:
            slice_ = responses[offset:offset + len(requests)]
            offset += len(requests)
            if not future.cancelled():
                future.set_result(slice_)

    def close(self) -> None:
        """Flush-and-stop: frames already queued still ship."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if thread is not None:
            self._queue.put(_SHUTDOWN)
            thread.join(timeout=5.0)
        self._pool.shutdown(wait=True)
