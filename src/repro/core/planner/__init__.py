"""Query planner: compile -> execute over the plan IR.

Tactic selection is the paper's: per field annotation, once, at schema
registration (§3.3, :mod:`repro.core.selection`).  This package takes
the selected tactics as given and splits the old monolithic executor
into three layers:

* :mod:`repro.core.planner.ir` — the immutable plan IR: a DAG of
  operator nodes (``IndexLookup``, ``BoolQuery``, ``SetOp``,
  ``FetchDocs``, ``Decrypt``, ``Verify``, ...) with predicate *values*
  factored out into parameter slots, so one compiled plan serves every
  predicate of the same shape.
* :mod:`repro.core.planner.compile` — the compiler from the public
  operations (``find``, ``find_ids``, ``count``, ``aggregate``,
  ``find_sorted`` and the write paths) to plan IR.
* :mod:`repro.core.planner.engine` — the execution engine over the
  existing batch/fan-out/prefetch machinery, recording measured
  per-node timings into :class:`PlannerStats`.

:class:`repro.core.executor.SchemaExecutor` glues the layers together:
it owns the plan cache (keyed by operation and predicate shape,
invalidated on schema migration) plus the planner statistics surfaced
by ``DataBlinder.planner_report``.
"""

from repro.core.planner.engine import PlannerStats
from repro.core.planner.ir import Plan, PlanNode, walk

__all__ = [
    "Plan",
    "PlanNode",
    "PlannerStats",
    "walk",
]
