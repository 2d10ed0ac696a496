"""The runtime needs nothing outside the standard library.

``pyproject.toml`` lists no dependencies: scipy and numpy are test
oracles in the ``dev`` extra.  A fresh interpreter imports every module
under ``repro`` and must load nothing new but ``repro`` and stdlib
modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
allowed = set(sys.stdlib_module_names) | {"repro"}
print(json.dumps(sorted(
    {name.partition(".")[0] for name in set(sys.modules) - before}
    - allowed)))
"""


def test_every_repro_module_imports_only_the_stdlib():
    source = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": source})
    assert json.loads(completed.stdout.splitlines()[-1]) == []
