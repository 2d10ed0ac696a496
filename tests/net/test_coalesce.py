"""The cross-operation frame coalescer on its own (no cache tier)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import TransportError
from repro.net.coalesce import FrameCoalescer
from repro.net.rpc import Request, Response
from repro.net.transport import Transport


class TestFrameCoalescer:
    class CountingInner(Transport):
        def __init__(self, delay=0.0):
            self.delay = delay
            self.lock = threading.Lock()
            self.batches: list[list[Request]] = []

        def call(self, service, method, **kwargs):  # pragma: no cover
            raise NotImplementedError

        def call_request(self, request):  # pragma: no cover
            raise NotImplementedError

        def call_batch(self, requests):
            requests = list(requests)
            if self.delay:
                time.sleep(self.delay)
            with self.lock:
                self.batches.append(requests)
            return [Response(ok=True, result=r.kwargs["value"])
                    for r in requests]

        def stats(self):  # pragma: no cover - unused
            from repro.net.latency import NetworkStats

            return NetworkStats()

    @staticmethod
    def frame(tag, n):
        return [Request("svc", "insert", {"value": f"{tag}{i}"})
                for i in range(n)]

    def test_frames_within_window_share_one_wire_batch(self):
        inner = self.CountingInner()
        coalescer = FrameCoalescer(inner, window_s=0.05, max_slots=64)
        try:
            f1 = coalescer.submit(self.frame("a", 2))
            f2 = coalescer.submit(self.frame("b", 3))
            r1, r2 = f1.result(2), f2.result(2)
            assert [r.result for r in r1] == ["a0", "a1"]
            assert [r.result for r in r2] == ["b0", "b1", "b2"]
            assert len(inner.batches) == 1
            assert len(inner.batches[0]) == 5
            assert coalescer.stats.frames_in == 2
            assert coalescer.stats.batches_out == 1
        finally:
            coalescer.close()

    def test_max_slots_closes_the_window_early(self):
        inner = self.CountingInner()
        coalescer = FrameCoalescer(inner, window_s=10.0, max_slots=4)
        try:
            f1 = coalescer.submit(self.frame("a", 2))
            f2 = coalescer.submit(self.frame("b", 2))
            f1.result(2)
            f2.result(2)
            assert len(inner.batches) == 1
        finally:
            coalescer.close()

    def test_failure_fans_out_to_every_member_frame(self):
        class FailingInner(self.CountingInner):
            def call_batch(self, requests):
                raise TransportError("wire down")

        coalescer = FrameCoalescer(FailingInner(), window_s=0.02,
                                   max_slots=8)
        try:
            f1 = coalescer.submit(self.frame("a", 1))
            f2 = coalescer.submit(self.frame("b", 1))
            for f in (f1, f2):
                with pytest.raises(TransportError):
                    f.result(2)
        finally:
            coalescer.close()

    def test_close_drains_cleanly(self):
        inner = self.CountingInner()
        coalescer = FrameCoalescer(inner, window_s=0.01)
        future = coalescer.submit(self.frame("a", 1))
        future.result(2)
        coalescer.close()
