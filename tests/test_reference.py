"""The byte-identity contracts recorded in ``bench/reference.json``.

The file is read only.  It holds the sha256 of the stdout of
``dctscale tables --id all --format json`` and the ``factored.cost()``
(adds, shifts) of every catalog member at N = 16 ... 256, which every
dyadic method must reproduce.  See ``bench/capture_reference.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dctscale import catalog, cli
from dctscale.scaler import DYADIC_METHOD_IDS, scale_to

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())

# runs in a fresh interpreter where any import of scipy fails
_WITHOUT_SCIPY = """
import contextlib, hashlib, io, json, sys
sys.modules["scipy"] = None
from dctscale import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()

code, tables = run("tables", "--id", "all", "--format", "json")
scaled = run("scale", "--approx", "exact", "--method", "exact", "--size", "64")
print(json.dumps([code, hashlib.sha256(tables.encode()).hexdigest(), *scaled]))
"""


def test_tables_json_is_byte_identical():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["tables", "--id", "all", "--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REFERENCE["tables_json_sha256"]


@pytest.mark.parametrize("approx_id", catalog.APPROXIMATION_IDS)
def test_cost_grid_matches_reference(approx_id):
    entry = catalog.load(approx_id)
    base = (entry.baseline_adds, entry.baseline_shifts)
    want = REFERENCE["cost"][approx_id]
    assert sorted(want, key=int) == ["16", "32", "64", "128", "256"]
    for method in DYADIC_METHOD_IDS:
        for size, cost in want.items():
            factored = scale_to(entry.matrix, int(size), method, base_cost=base).factored
            assert list(factored.cost()) == cost, (method, size)


def _python(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_runs_without_scipy():
    # scipy is a test-only reference; the package and its CLI never import it
    code, tables_sha, scale_code, scaled = json.loads(_python(_WITHOUT_SCIPY))
    assert code == 0 and tables_sha == REFERENCE["tables_json_sha256"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["scale", "--approx", "exact", "--method", "exact", "--size", "64"]) == 0
    assert scale_code == 0 and scaled == out.getvalue()
    assert _python("import sys, dctscale.cli; print('scipy' in sys.modules)") == "False\n"
