"""The public surface: every exported name resolves, and the demos run
(01-04) or at least import only names that exist (05-06, which train for
minutes)."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import tgsl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
MODULES = sorted(m.name for m in pkgutil.iter_modules(tgsl.__path__)
                 if m.name != "__main__")


def demo(prefix):
    (name,) = [f for f in os.listdir(DEMOS) if f.startswith(prefix)]
    return os.path.join(DEMOS, name)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"tgsl.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("prefix", ["01", "02", "03", "04"])
def test_quick_demo_runs(prefix):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, demo(prefix)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("prefix", ["05", "06"])
def test_long_demo_imports_resolve(prefix):
    with open(demo(prefix), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("tgsl"):
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(mod, a.name)]
    assert missing == []
