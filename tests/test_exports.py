import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mixedkde

MODULES = ["mixedkde"] + [f"mixedkde.{m.name}" for m in pkgutil.iter_modules(mixedkde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


ROOT = Path(__file__).resolve().parents[1]


def test_dependencies_match_imports():
    # importing the package loads no scipy module
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import mixedkde, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # run() waits for the child and kills it if the timeout expires
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # the declared runtime dependencies are exactly the third-party imports
    imported = set()
    for path in (ROOT / "src" / "mixedkde").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"mixedkde"}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
