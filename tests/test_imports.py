"""Package imports: no scipy at run time, every exported name exists, and
so does every name the benchmark reaches."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import invcert

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


def _bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The tracer wraps its targets only where they exist, so a moved name would
# leave its per-layer metrics at 0 without a sound; the probe calls the cli
# names directly.
BENCH_NAMES = sorted({f"{module}.{attr}" for module, attr, _, _ in _bench_tracing().TARGETS}
                     | {"invcert.cli.emit_report", "invcert.cli.parse_input", "invcert.cli.run"})
# Traced names the package no longer has; the metrics built on them read 0.
EXPECTED_GAPS = {"invcert.certify.grid_column_generators", "invcert.certify.normalize_generators",
                 "invcert.certify.verify_certificate", "invcert.lpsolve.solve"}


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_name_the_benchmark_reaches_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), attr) == (name not in EXPECTED_GAPS)
