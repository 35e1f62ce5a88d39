"""Capture the reference outputs the benchmark's oracles compare against.

    PYTHONPATH=src python3 bench/capture_reference.py > bench/reference.json

Run it at the commit whose outputs are the reference.  It records:

* ``cost``: the (adds, shifts) of ``factored.cost()`` for every catalog
  member at N = 16 ... 256.  The count does not depend on the doubling
  method at that commit; the capture checks this for every method, so the
  same reference serves mixed per-level chains.
* ``tables_json_sha256``: the sha256 of the stdout of
  ``dctscale tables --id all --format json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json

from dctscale import catalog, cli, scale_to
from dctscale.catalog import APPROXIMATION_IDS
from dctscale.scaler import DYADIC_METHOD_IDS

SIZES = (16, 32, 64, 128, 256)


def main() -> None:
    cost = {}
    for approx in APPROXIMATION_IDS:
        entry = catalog.load(approx)
        base = (entry.baseline_adds, entry.baseline_shifts)
        cost[approx] = {}
        for size in SIZES:
            counts = {scale_to(entry.matrix, size, m, base_cost=base).factored.cost()
                      for m in DYADIC_METHOD_IDS}
            if len(counts) != 1:
                raise SystemExit(f"{approx} N={size}: cost depends on the method: {counts}")
            cost[approx][str(size)] = list(counts.pop())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["tables", "--id", "all", "--format", "json"])
    if code != 0:
        raise SystemExit(f"tables exited {code}")
    doc = {
        "cost": cost,
        "tables_json_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
