"""The router names tactics in one place: :data:`KEYED`.

Everything else it decides from what a request carries, so a new
built-in tactic needs one decision — keyed or pinned — and no other
edit of the router.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.shard.router as router_module
from repro.core.registry import TacticRegistry
from repro.shard.router import KEYED
from repro.tactics import register_builtin_tactics


def builtin_names() -> set[str]:
    registry = TacticRegistry()
    register_builtin_tactics(registry)
    return {registration.descriptor.name for registration in registry.all()}


def test_no_tactic_name_outside_keyed():
    tree = ast.parse(Path(router_module.__file__).read_text())
    (definition,) = [
        node for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "KEYED"
                for target in node.targets)
    ]
    inside = {id(node) for node in ast.walk(definition)}
    names = builtin_names()
    stray = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names
        and id(node) not in inside
    ]
    assert stray == []


def test_every_builtin_tactic_is_keyed_or_pinned_on_purpose():
    assert builtin_names() - KEYED == {"biex-2lev", "biex-zmf"}
    assert KEYED <= builtin_names()
