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
from pathlib import Path

import pytest

from dctscale import catalog, cli
from dctscale.scaler import DYADIC_METHOD_IDS, scale_to

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text()
)


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
