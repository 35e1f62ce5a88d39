"""The dctscale benchmark: one workload per run, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists):
    design-sweep  seed -> scale_to -> cost() -> figures of merit, N = 16..256
    encode        exact integer and batched float application at N = 16..64
    cli-repro     `dctscale tables --id all` and `dctscale apply --int`, cold

Each workload is a closed loop with one caller: every caller of this library
waits for its result.  Every operation's output is checked; a wrong output
or an exception counts as failed.  With ``--trace 0`` the last line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass, and the spans are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median

from common import BENCH, ROOT, SRC, WORKLOADS, Fastest, Ops, perf, pin_threads, run_child, run_rounds
from spans import Recorder

pin_threads()  # before anything loads numpy

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
OUT_DIR = ROOT / ".bench_out"

# Per-layer metric -> (unit, end-to-end metric it should move, workload).
# The program is single-threaded with no queues, so no layer has a waiting
# metric.  Layers a workload does not reach read 0 there.
PER_LAYER = {
    "catalog.load.calls": ("count", "design_points_per_s, setup_s", "design-sweep"),
    "catalog.load.self_ms": ("ms", "design_points_per_s, setup_s", "design-sweep"),
    "catalog.orthogonalize.self_ms": ("ms", "large_point_s", "design-sweep"),
    "exact.transform_matrix.calls": ("count", "design_points_per_s", "design-sweep"),
    "exact.transform_matrix.self_ms": ("ms", "design_points_per_s", "design-sweep"),
    "matkit.matmul.calls": ("count", "large_point_s; none on encode", "design-sweep"),
    "matkit.matmul.self_ms": ("ms", "large_point_s; none on encode", "design-sweep"),
    "matkit.entries.calls": ("count", "design_points_per_s", "design-sweep"),
    "matkit.entries.self_ms": ("ms", "design_points_per_s", "design-sweep"),
    "matkit.apply.calls": ("count", "int_samples_per_s; apply_int_s", "encode; cli-repro"),
    "matkit.apply.self_ms": ("ms", "int_samples_per_s; apply_int_s", "encode; cli-repro"),
    "scaler.scale.calls": ("count", "design_points_per_s, large_point_s", "design-sweep"),
    "scaler.scale.self_ms": ("ms", "design_points_per_s, large_point_s", "design-sweep"),
    "fastpath.count_dense_dyadic.calls": ("count", "design_points_per_s, large_point_s", "design-sweep"),
    "fastpath.count_dense_dyadic.self_ms": ("ms", "design_points_per_s, large_point_s", "design-sweep"),
    "fastpath.cost.self_ms": ("ms", "design_points_per_s, large_point_s", "design-sweep"),
    "fastpath.apply_exact.self_ms": ("ms", "int_samples_per_s", "encode"),
    "fastpath.apply_real.self_ms": ("ms", "float_samples_per_s", "encode"),
    "fastpath.apply_real.vs_dense": ("ratio", "float_samples_per_s", "encode"),
    "fastpath.apply_real.dense_ms": ("ms", "none: base of vs_dense", "encode"),
    "fastpath.apply_real.vs_scipy": ("ratio", "float_samples_per_s", "encode"),
    "fastpath.apply_real.scipy_ms": ("ms", "none: base of vs_scipy", "encode"),
    "fastpath.model_adds.N16": ("count", "none: pins the cost model", "encode"),
    "fastpath.model_adds.N32": ("count", "none: pins the cost model", "encode"),
    "fastpath.model_adds.N64": ("count", "none: pins the cost model", "encode"),
    "fastpath.model_shifts.N16": ("count", "none: pins the cost model", "encode"),
    "fastpath.model_shifts.N32": ("count", "none: pins the cost model", "encode"),
    "fastpath.model_shifts.N64": ("count", "none: pins the cost model", "encode"),
    "metrics.self_ms": ("ms", "large_point_s, design_points_per_s", "design-sweep"),
    "analysis.reproduce_table.self_ms": ("ms", "tables_s", "cli-repro"),
    "analysis.fit.calls": ("count", "tables_s", "cli-repro"),
    "cli.import_s": ("s", "setup_s, tables_s, apply_int_s", "cli-repro"),
    "cli.run.self_ms": ("ms", "tables_s, apply_int_s", "cli-repro"),
    "catalog.self_ms": ("ms", "layer total", "all"),
    "exact.self_ms": ("ms", "layer total", "all"),
    "matkit.self_ms": ("ms", "layer total", "all"),
    "scaler.self_ms": ("ms", "layer total", "all"),
    "fastpath.self_ms": ("ms", "layer total", "all"),
    "analysis.self_ms": ("ms", "layer total", "all"),
    "cli.self_ms": ("ms", "layer total", "cli-repro"),
    "interp.self_ms": ("ms", "tables_s, apply_int_s: interpreter start and exit", "cli-repro"),
    "bench.self_ms": ("ms", "none: the benchmark's own time", "all"),
    "trace.wall_ms": ("ms", "none: traced wall time, the sum of all self times", "all"),
    "trace.overhead_frac": ("ratio", "none: traced over untraced time of the same operations, minus 1", "all"),
}

END_TO_END = {
    "setup_s": "s",
    "primary_s": "s",
    "secondary_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _environment(args) -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class SetupProbes:
    """Set-up time measured in fresh interpreters: import, loads, builds.

    The probes are spread over the timed loop, so that a slow phase of the
    host does not hit all of them; ``setup_s`` is their median.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [str(BENCH / "child.py"), "setup", workload, str(seed)]
        self.times: list[float] = []

    def _probe(self) -> None:
        proc = run_child(self.argv)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"set-up probe {' '.join(self.argv[1:])} failed")
        self.times.append(float(proc.stdout.decode().strip().splitlines()[-1]))

    def keep_up(self, share: float) -> None:
        """Run probes until their share of SETUP_PROBES matches ``share``."""
        while len(self.times) < min(SETUP_PROBES, int(share * SETUP_PROBES) + 1):
            self._probe()

    def median(self) -> float:
        self.keep_up(1.0)
        return median(self.times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _overhead(traced: dict, untraced: dict) -> float:
    """Traced over untraced seconds of the same operations, minus 1."""
    keys = [k for k in traced if k in untraced]
    base = sum(untraced[k] for k in keys)
    return sum(traced[k] for k in keys) / base - 1.0 if base else 0.0


def _trace(workload, untraced: dict, args) -> dict:
    recorder = Recorder()
    extra = workload.traced(recorder)
    summary = recorder.summary()
    values = {name: summary.get(name, 0) for name in PER_LAYER}
    values.update(extra["layers"])
    values["trace.overhead_frac"] = _overhead(extra["traced"], untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(recorder.spans))
    print(f"spans: {len(recorder.spans)} written to {spans_path.relative_to(ROOT)}")
    for name, (unit, moves, where) in PER_LAYER.items():
        print(f"layer {name} = {values[name]:.6g} {unit}  (moves {moves} on {where})")
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dctscale" / "__init__.py").is_file():
        print(f"error: no dctscale sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dctscale

    if not os.path.realpath(dctscale.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: dctscale imported from {dctscale.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(_environment(args), sort_keys=True))
    module = importlib.import_module(WORKLOADS[args.workload])
    probes = SetupProbes(args.workload, args.seed)
    ops = Ops()
    fastest = Fastest()
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        start = perf()
        state = module.setup(args.seed)
        own_setup_s = perf() - start
        workload = module.Workload(args.seed, state, ops, Path(workdir))
        workload.warm_up()
        cycles = run_rounds(args.seconds, lambda i: workload.cycle(i, fastest), probes.keep_up)
        speed = ops.speed.factor()
        setup_s = probes.median() / speed
        measured = workload.summarize(fastest, speed)
        per_layer = _trace(workload, fastest.best, args) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {
        "setup_s": setup_s,
        "primary_s": measured["primary_s"],
        "secondary_s": measured["secondary_s"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    report = {"setup_s": (setup_s, "s"), "in_process_setup_s": (own_setup_s / speed, "s")}
    report.update(measured["report"])
    report["cycles"] = (cycles, "count")
    report["host_speed_factor"] = (speed, "ratio")
    report["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB")
    report["fail_frac"] = (ops.failed / max(ops.attempted, 1), "fraction")
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if per_layer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items()
        }
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
