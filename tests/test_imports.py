"""Package imports: no scipy at run time, and every exported name exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import invcert

SRC = Path(__file__).resolve().parents[1] / "src"
# invcert.__main__ runs the CLI on import, so it is left out.
MODULES = ["invcert"] + sorted(
    f"invcert.{m.name}" for m in pkgutil.iter_modules(invcert.__path__)
    if m.name != "__main__"
)


def test_import_loads_no_scipy():
    code = (
        "import sys, invcert, invcert.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
