"""The byte-identity contracts recorded in ``bench/reference.json``.

The file is read only.  It holds the sha256 of the stdout of
``dctscale tables --id all --format json`` and the ``factored.cost()``
(adds, shifts) of every catalog member at N = 16 ... 256, which every
dyadic method must reproduce.  See ``bench/capture_reference.py``.

``_GOLDEN`` pins the stdout sha256 and the zero exit code of the real
mixing and cosine blocks A, B, D and G, of the permutation generators, of
``tables --id all`` as markdown and csv, and of ``verify``.  The
package-level checks (public names, no scipy) sit here too.
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
    "gen --kind A --size 1 --format csv": "f14b2ac76a61e592050b1ca37fe6347fc85cc26df85e66b8d718650261813b46",
    "gen --kind A --size 1 --format json": "3b3f426b30aad254d0fb6b3749525143631cab56c85aaa3ab1a529f078900668",
    "gen --kind A --size 2 --format csv": "ae844b79a4e649b2441613085a2d17af9f019cbc4705f61c935c5266c9afd4e1",
    "gen --kind A --size 2 --format json": "22772b2278bb0f047ce64eefc03df3db6f1aa1b1f16f47bda6fdfa6e64b9431d",
    "gen --kind A --size 8 --format csv": "6e39f9f803e04627b99c4bd37a6ac8fe6c14e295ae88f2dc2f496c07c62e7f29",
    "gen --kind A --size 8 --format json": "ab7bf896ce1ec718121600ccb1958e60173dbde822c2151c0b6fcd8ceff9f19d",
    "gen --kind A --size 32 --format csv": "2628238eed1d4bed22ce63586e2f2b1bef3f27256064eb4863099988d92f5bc9",
    "gen --kind A --size 32 --format json": "fecd45bb3fb289173e922d323a5a533b17b9c8731d6761687cf39ec2ff5e4669",
    "gen --kind B --size 1 --format csv": "cccf02efaf77b462ec093c0cc994544250d36fdc581bdba887e3c031c98d0ad2",
    "gen --kind B --size 1 --format json": "54eb45d6b59e0a289158494253594ba571ecd56ee277eea7210d3174ada9e08b",
    "gen --kind B --size 2 --format csv": "cbdef6e3f7aa512b79898a1283dbf8a92dfcc7d7700e3b8d7ec5328eac535e78",
    "gen --kind B --size 2 --format json": "07d016d840504cd64c5771dd20334208147183d6827529837d74467645894c67",
    "gen --kind B --size 8 --format csv": "3f9a5f701110819c7f64de9f13a3653fb3c030379d15aab12091d497832708d5",
    "gen --kind B --size 8 --format json": "ac999123d95d34d371302ea85aadfa4421e7e9e769079df322b8090b3712e873",
    "gen --kind B --size 32 --format csv": "6969a9d277be0f8486b93268228d1079e7d973a4be456337af6b72a6d3a50d26",
    "gen --kind B --size 32 --format json": "3bba7235f960b6c820bd027edc3a24ce8b79403b3654dc6f4d991f61c6e243f0",
    "gen --kind D --size 1 --format csv": "c70e033a08cabd4a3d0e95bb5f44b37d88620eb403e224fc201357c5c59b53c0",
    "gen --kind D --size 1 --format json": "a3d44598f0a137fd00b8572bd6441a2ddfd89fc600f5f358aaf3883c9984c5d4",
    "gen --kind D --size 2 --format csv": "2461d5f5fe9eab22d9342f9dea310b9e37a608be5336bc8e9d25d5cf126c63b2",
    "gen --kind D --size 2 --format json": "cd23042af9cea3af277c48250a61ce8a304a568583915c82dfcd84913a4101ed",
    "gen --kind D --size 8 --format csv": "51db02d7f6631d8a967c930b16bc43d2125962d9d4ed486ebe6987d407c99ce3",
    "gen --kind D --size 8 --format json": "fe336cd971ac5d5c5df64a461068dba94a443768cd121d709fc865eec1354282",
    "gen --kind D --size 32 --format csv": "f8eba49a4010e5b9605eb2ceea8df729597e76d3856735f16da6a6406c9393ec",
    "gen --kind D --size 32 --format json": "e3feb9b39c027402f40c918f3d9148dddaae5554ce67f6dc75ee5ef05e36b563",
    "gen --kind G --size 1 --format csv": "c70e033a08cabd4a3d0e95bb5f44b37d88620eb403e224fc201357c5c59b53c0",
    "gen --kind G --size 1 --format json": "74b3a0ab0aec235b9d4740a193b0d0f29cb879f653e65b52f2d30427ace89199",
    "gen --kind G --size 2 --format csv": "2ac3c8911d1c66220ec0661ec56c5d04c2cc9dffac2c81b365efad2e16cf659d",
    "gen --kind G --size 2 --format json": "ea854767b838a782efd96eb05db7c41466f996ccc4d0c0b9c211f4cd8b496ee5",
    "gen --kind G --size 8 --format csv": "0614237764e664f3014bd5daf861cf3c0c2ce6696401f12d7ec87d1857f9f65d",
    "gen --kind G --size 8 --format json": "1b496424e54d78b2a9ed1b92a9403cf8a550ab01b2e9887693b7f7073c2834e8",
    "gen --kind G --size 32 --format csv": "f6cf3e065f8beb3b7c96e755355c0b013dd8efc90ccbdafaf2f190efaf0b2b9b",
    "gen --kind G --size 32 --format json": "012bf221a36836516457f16006bde4bba12b48a3fc601a608689db42589ce969",
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
    "tables --id all --format csv": "b5e9ab794d43838dd9ff2eb171dfd6785c14cdf64703c15188e5ca9d21c0d751",
    "tables --id all --format md": "3321ce69ec35bddcb6ee86d88c28e45486c13f30effbc31c640ed124d8307b3c",
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
