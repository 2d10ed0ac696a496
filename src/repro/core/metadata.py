"""Data protection metadata subsystem (§4.1, subsystem ii).

Persists per-application schemas, their field annotations and the tactic
plans selected for them, so a restarted gateway reloads its configuration
instead of re-planning (and so operators can audit what was deployed).
Backed by the gateway-side KV store.
"""

from __future__ import annotations

import json

from repro.core.schema import FieldAnnotation, Schema
from repro.core.selection import FieldPlan
from repro.errors import SchemaError
from repro.stores.kv import KeyValueStore

_SCHEMA_PREFIX = b"metadata/schema/"
_PLAN_PREFIX = b"metadata/plan/"


def _plan_to_dict(plan: FieldPlan) -> dict:
    return {
        "field": plan.field,
        "annotation": {
            "class": int(plan.annotation.protection_class),
            "ops": sorted(o.value for o in plan.annotation.operations),
            "aggs": sorted(a.value for a in plan.annotation.aggregates),
        },
        "roles": dict(plan.roles),
        "reasons": dict(plan.reasons),
    }


def _plan_from_dict(data: dict) -> FieldPlan:
    annotation = FieldAnnotation.parse(
        data["annotation"]["class"],
        data["annotation"]["ops"],
        data["annotation"].get("aggs", ()),
    )
    return FieldPlan(
        field=data["field"],
        annotation=annotation,
        roles=dict(data["roles"]),
        reasons=dict(data.get("reasons", {})),
    )


class MetadataRepository:
    """Schema + plan persistence over the gateway KV store."""

    def __init__(self, kv: KeyValueStore):
        self._kv = kv

    # -- schemas ---------------------------------------------------------------

    def save_schema(self, schema: Schema,
                    plans: dict[str, FieldPlan]) -> None:
        self._kv.put(
            _SCHEMA_PREFIX + schema.name.encode(),
            json.dumps(schema.to_dict(), sort_keys=True).encode(),
        )
        self._kv.put(
            _PLAN_PREFIX + schema.name.encode(),
            json.dumps(
                {field: _plan_to_dict(plan) for field, plan in plans.items()},
                sort_keys=True,
            ).encode(),
        )

    def load_schema(self, name: str) -> Schema:
        blob = self._kv.get(_SCHEMA_PREFIX + name.encode())
        if blob is None:
            raise SchemaError(f"no stored schema named {name!r}")
        return Schema.from_dict(json.loads(blob))

    def load_plans(self, name: str) -> dict[str, FieldPlan]:
        blob = self._kv.get(_PLAN_PREFIX + name.encode())
        if blob is None:
            raise SchemaError(f"no stored plan for schema {name!r}")
        return {
            field: _plan_from_dict(data)
            for field, data in json.loads(blob).items()
        }

    def schema_names(self) -> list[str]:
        return sorted(
            key[len(_SCHEMA_PREFIX):].decode()
            for key in self._kv.keys()
            if key.startswith(_SCHEMA_PREFIX)
        )

    def delete_schema(self, name: str) -> None:
        self._kv.delete(_SCHEMA_PREFIX + name.encode())
        self._kv.delete(_PLAN_PREFIX + name.encode())
