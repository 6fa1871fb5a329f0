"""The public surface: every exported name resolves, and every demo runs
to completion (05 and 06 train for a few seconds)."""

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


@pytest.mark.parametrize("prefix", ["01", "02", "03", "04", "05", "06"])
def test_quick_demo_runs(prefix):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, demo(prefix)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

