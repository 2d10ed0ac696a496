"""The running operation's timing sink.

A ``ContextVar`` holds the recorder of the operation in flight (the
schema executor installs its ``PlannerStats.record_node``), and the
layers below book through :func:`record_timing`: the router's legs as
``Shard:<node>``, the kernels' batches as ``Crypto:<name>``.  Pool work
submitted under ``contextvars.copy_context()`` books into the same
operation; outside an operation a timing is dropped, so none piles up.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

_SINK: ContextVar[Callable[[str, float], None] | None] = ContextVar(
    "timing_sink", default=None)


@contextmanager
def timing_sink(record: Callable[[str, float], None]) -> Iterator[None]:
    """Book every :func:`record_timing` of this context into ``record``."""
    token = _SINK.set(record)
    try:
        yield
    finally:
        _SINK.reset(token)


def record_timing(kind: str, seconds: float) -> None:
    """Book ``seconds`` under ``kind`` for the running operation, if any."""
    record = _SINK.get()
    if record is not None:
        record(kind, seconds)
