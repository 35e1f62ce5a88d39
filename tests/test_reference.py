"""The byte-identity contracts recorded in ``bench/reference.json``.

The file is read only.  It holds the sha256 of the stdout of
``dctscale tables --id all --format json`` and the ``factored.cost()``
(adds, shifts) of every catalog member at N = 16 ... 256, which every
dyadic method must reproduce.  See ``bench/capture_reference.py``.

``_GOLDEN`` pins the stdout sha256 and the zero exit code of the
permutation generators and of ``verify``.  The package-level checks
(public names, no scipy) sit here too.
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

import dctscale
from dctscale import analysis, catalog, cli, exact, metrics
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


_GOLDEN = {
    "gen --kind shuffle --size 1 --format csv": "28d9679320141cb843249a311e9cbd982b4155c8d857a7c1a1d9a40d9c21531f",
    "gen --kind shuffle --size 1 --format json": "0176a23398fea602dfd95f2483fc9d26a71d32877468036325484b9dad193fbd",
    "gen --kind shuffle --size 2 --format csv": "084aecbe1c24cb480b7e4a9c86636e6b3441081551f986d9b51185bac718a583",
    "gen --kind shuffle --size 2 --format json": "37e86d810cbe431cb7daef5453b256bfbedb091413e2f878818b12d38ec60301",
    "gen --kind shuffle --size 4 --format csv": "52b003db4d6e82dc75ea94472817ec96667789f1296b415fae4989cc096c0edc",
    "gen --kind shuffle --size 4 --format json": "ee2e9abd3aa1d034d1569c33e68df41b4c2bf7a0640bd801c27999ce7b53468e",
    "gen --kind shuffle --size 32 --format csv": "74ed8b7353a66f42b440f6561c7e4182ddb4bbd31f6e6f884e5ef3efa988edad",
    "gen --kind shuffle --size 32 --format json": "3383c23a19ca3355571ff5353f459e95c8048d34b2d3f6a7a971160e80c4ab34",
    "gen --kind bitrev --size 1 --format csv": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "gen --kind bitrev --size 1 --format json": "ee69d194e18b3b9b7bcd0e42f518bfd06b01229f8c00d952e0e99015cd19b9c3",
    "gen --kind bitrev --size 8 --format csv": "3f0e28ee7f0c04c654fe1a05ed99091db3888f754bc7e475d2223cbb18c296a5",
    "gen --kind bitrev --size 8 --format json": "a12545643767a601dd88959d50e4b86a02ca92cb1983487d0282ed7220013394",
    "gen --kind bitrev --size 64 --format csv": "3b8132833e3186f610f93355739bed6383b7e6cf4d3246c7b65f483a960fefe4",
    "gen --kind bitrev --size 64 --format json": "f426e54568e8973aee0d153ee73ac7820d83b29b068d04e913a304a93d72f82d",
    "verify --max-size 64": "c9f1eeb445e702e9563e4a56821c408de63d82c8b9bc538a0b290d2e850c2459",
}


@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_cli_output_is_golden(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _GOLDEN[command]


def test_tables_json_is_byte_identical():
    # once with every per-process cache empty, then again with them warm
    for cached in (catalog._entry, exact._transform_matrix, metrics._autocovariance, analysis._method_fit):
        cached.cache_clear()
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["tables", "--id", "all", "--format", "json"]) == 0
        runs.append(out.getvalue())
    assert runs[0] == runs[1]
    assert hashlib.sha256(runs[0].encode()).hexdigest() == REFERENCE["tables_json_sha256"]


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


def test_public_names_resolve():
    assert len(set(dctscale.__all__)) == len(dctscale.__all__)
    for name in dctscale.__all__:
        assert getattr(dctscale, name) is not None, name
