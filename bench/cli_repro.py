"""cli-repro: user-facing commands, each in a fresh interpreter.

One command is ``dctscale tables --id all --format json``, the paper's
reproduction; the other is ``dctscale apply --int --size 64`` on a seeded
vector file.  Each run stays cold on purpose: every user run pays the
interpreter start, the ``dctscale`` import, the ``analysis._method_fit``
cache filling from cold, CLI parsing and formatting.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from dctscale import catalog, scaler

from common import BENCH, Fastest, Ops, ar1, dyadic_text, median_or_fail, residuals, run_child

TABLES_ARGS = ["tables", "--id", "all", "--format", "json"]
APPLY_SIZE = 64
APPLY_VECTORS = 48
# fixed, so that only the vector file depends on the seed: the exact path's
# cost differs between members, and a seeded member would move apply_int_s
APPLY_APPROX, APPLY_METHOD = "rdct", "VI"
REFERENCE = BENCH / "reference.json"

# what the installed ``dctscale`` console script runs
ENTRY_POINT = "import sys; from dctscale.cli import main; sys.argv[0] = 'dctscale'; main()"


def setup(seed: int) -> None:
    """A fresh ``import dctscale.cli``; run by the set-up probes only."""
    import dctscale.cli  # noqa: F401


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    def __init__(self, seed: int, state, ops: Ops, workdir: Path) -> None:
        self.ops = ops
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        approx, method = APPLY_APPROX, APPLY_METHOD
        ints = residuals(ar1(rng, APPLY_VECTORS, APPLY_SIZE))
        vectors = workdir / "vectors.txt"
        vectors.write_text("".join(" ".join(map(str, row)) + "\n" for row in ints.tolist()))
        # oracle for apply --int: the exact dense product, rendered as p/2^s
        entry = catalog.load(approx)
        dyadic = scaler.scale_to(entry.matrix, APPLY_SIZE, method).dyadic
        products = ints @ dyadic.numerators().T
        expected = "".join(
            " ".join(dyadic_text(int(v), dyadic.shift) for v in row) + "\n"
            for row in products.tolist()
        )
        self.commands = {
            # stdout of `tables --id all --format json`, see capture_reference.py
            "tables": (TABLES_ARGS, json.loads(REFERENCE.read_text())["tables_json_sha256"]),
            "apply": (
                ["apply", "--approx", approx, "--method", method, "--size", str(APPLY_SIZE),
                 "--input", str(vectors), "--int"],
                _sha256(expected.encode()),
            ),
        }

    def _command(self, key: str, argv_prefix: list[str]):
        """One command as an ``Ops`` operation."""
        args, sha = self.commands[key]

        def check(proc) -> bool:
            if proc.returncode != 0:
                print(proc.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return proc.returncode == 0 and _sha256(proc.stdout) == sha

        return f"dctscale {' '.join(args)}", lambda: run_child(argv_prefix + args), check

    def cycle(self, _: int, fastest: Fastest) -> None:
        """Each command once, with the host speed probed around it."""
        for key in self.commands:
            [(elapsed, nominal)] = self.ops.timed_batch([self._command(key, ["-c", ENTRY_POINT])])
            fastest.add(key, elapsed, nominal)

    def warm_up(self) -> None:
        """None: every command runs cold, in its own interpreter."""

    def summarize(self, fastest: Fastest, speed: float) -> dict:
        """Metrics at the nominal host speed.

        A run has time for only about 15 runs of each command, so both use
        the host speed probed around each run rather than the run's
        ``speed`` factor.
        """
        tables_s = fastest.total_nominal(["tables"], "tables")
        apply_s = fastest.total_nominal(["apply"], "apply --int")
        return {
            "primary_s": tables_s,
            "secondary_s": apply_s,
            "report": {"tables_s": (tables_s, "s"), "apply_int_s": (apply_s, "s")},
        }

    def traced(self, recorder) -> dict:
        """Run each command once under tracing in its child interpreter."""
        traced = Fastest()
        with recorder.span("bench"):
            for key in self.commands:
                spans_file = self.workdir / f"spans-{key}.json"
                op = self._command(key, [str(BENCH / "child.py"), "cli", str(spans_file)])
                with recorder.span("interp") as parent:
                    traced.add(key, self.ops.timed(*op))
                if spans_file.is_file():
                    recorder.adopt(json.loads(spans_file.read_text()), parent)
        imports = recorder.durations("cli.import")
        layers = {"cli.import_s": median_or_fail(imports, "cli import")}
        return {"traced": traced.best, "layers": layers}
