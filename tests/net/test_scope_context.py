"""Regression: batch collection scopes are context-local, not
thread-local.

The gateway runtime multiplexes many logical operations over few pooled
threads.  Under the earlier ``threading.local`` scopes, an operation
cancelled (or crashed) while its collection scope was open left that
scope attached to the *pool thread*; the next unrelated operation
scheduled onto the same thread silently inherited it and deferred its
writes into a queue nobody would ever flush.  These tests pin the fixed
behaviour: a scope is visible exactly to the context that opened it
(and to context copies it hands out, e.g. ``asyncio.to_thread``), never
to a fresh operation context that happens to reuse the thread.
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor

from repro.net.batch import BatchCollector
from repro.net.rpc import Request, Response
from repro.net.transport import Transport

SERVICE = "tactic/app.field/det"


class RecordingInner(Transport):
    """Counts what actually reaches the wire."""

    def __init__(self):
        self.calls: list[Request] = []
        self.frames: list[list[Request]] = []

    def call_request(self, request):
        self.calls.append(request)
        return "direct"

    def call_batch(self, requests):
        requests = list(requests)
        self.frames.append(requests)
        return [Response(ok=True, result=None) for _ in requests]

    def stats(self):  # pragma: no cover - unused
        from repro.net.latency import NetworkStats

        return NetworkStats()


def run_as_operation(pool: ThreadPoolExecutor, fn):
    """Run ``fn`` the way the gateway runtime runs an operation: on a
    pooled thread, inside its own copy of the submitting context."""
    context = contextvars.copy_context()
    return pool.submit(context.run, fn).result()


class TestScopeIsContextLocal:
    def test_abandoned_scope_does_not_leak_to_next_operation(self):
        """The regression proper.

        Operation A opens a scope on the pool thread and is abandoned
        mid-flight (deadline cancellation) without ever exiting it.
        Operation B then lands on the *same* thread: its deferrable
        write must cross the wire immediately — under the old
        thread-local scopes it was swallowed into A's orphaned queue
        and this test deadlocked on data that never arrived.
        """
        inner = RecordingInner()
        collector = BatchCollector(inner)
        pool = ThreadPoolExecutor(max_workers=1)
        # Keep the abandoned scope alive, like a suspended-then-dropped
        # task frame would — the hazard is the *storage slot*, not GC.
        orphans = []
        try:
            def op_a():
                scope_cm = collector.collect()
                scope_cm.__enter__()  # cancelled before __exit__
                orphans.append(scope_cm)
                collector.call(SERVICE, "insert", doc_id="a")
                assert collector._scope() is not None

            def op_b():
                assert collector._scope() is None
                collector.call(SERVICE, "insert", doc_id="b")

            run_as_operation(pool, op_a)
            assert inner.calls == [] and inner.frames == []
            run_as_operation(pool, op_b)
            # B's write went straight through; A's orphan stayed put.
            assert [r.kwargs["doc_id"] for r in inner.calls] == ["b"]
            assert inner.frames == []
        finally:
            pool.shutdown()

    def test_same_thread_sequential_operations_batch_independently(self):
        inner = RecordingInner()
        collector = BatchCollector(inner)
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            def op(tag):
                def body():
                    with collector.collect():
                        collector.call(SERVICE, "insert", doc_id=f"{tag}1")
                        collector.call(SERVICE, "insert", doc_id=f"{tag}2")
                return body

            run_as_operation(pool, op("x"))
            run_as_operation(pool, op("y"))
            shipped = [
                [r.kwargs["doc_id"] for r in frame]
                for frame in inner.frames
            ]
            assert shipped == [["x1", "x2"], ["y1", "y2"]]
        finally:
            pool.shutdown()

    def test_concurrent_tasks_keep_independent_scopes(self):
        """Two asyncio tasks on one loop never share a pending queue."""
        inner = RecordingInner()
        collector = BatchCollector(inner)

        async def operation(tag, pause_s):
            with collector.collect():
                collector.call(SERVICE, "insert", doc_id=f"{tag}1")
                await asyncio.sleep(pause_s)
                collector.call(SERVICE, "insert", doc_id=f"{tag}2")

        async def main():
            await asyncio.gather(operation("a", 0.02),
                                 operation("b", 0.01))

        asyncio.run(main())
        shipped = sorted(
            [r.kwargs["doc_id"] for r in frame] for frame in inner.frames
        )
        assert shipped == [["a1", "a2"], ["b1", "b2"]]

    def test_to_thread_work_joins_the_callers_scope(self):
        """``asyncio.to_thread`` copies the caller's context, so work
        hopped onto a worker thread defers into the *same* scope."""
        inner = RecordingInner()
        collector = BatchCollector(inner)

        async def operation():
            with collector.collect():
                collector.call(SERVICE, "insert", doc_id="loop")
                await asyncio.to_thread(
                    collector.call, SERVICE, "insert", doc_id="worker"
                )

        asyncio.run(operation())
        assert [
            [r.kwargs["doc_id"] for r in frame] for frame in inner.frames
        ] == [["loop", "worker"]]

    def test_plain_threads_keep_independent_scopes(self):
        """The pre-refactor guarantee still holds for ordinary threads
        (a fresh thread starts with a fresh context)."""
        import threading

        inner = RecordingInner()
        collector = BatchCollector(inner)
        barrier = threading.Barrier(2)

        def op(tag):
            with collector.collect():
                collector.call(SERVICE, "insert", doc_id=f"{tag}1")
                barrier.wait(timeout=5)
                collector.call(SERVICE, "insert", doc_id=f"{tag}2")

        threads = [threading.Thread(target=op, args=(t,))
                   for t in ("p", "q")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        shipped = sorted(
            [r.kwargs["doc_id"] for r in frame] for frame in inner.frames
        )
        assert shipped == [["p1", "p2"], ["q1", "q2"]]
