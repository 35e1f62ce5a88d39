"""Helpers shared by the benchmark workloads.

Nothing here imports dctscale: ``child.py`` must be able to import this
module before it starts timing ``import dctscale``.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# BLAS/OpenMP thread pools are pinned to one thread before numpy loads: on a
# 2-core machine a 32x1000 dense product took 12 ms with default threading
# against 0.07 ms pinned, so unpinned numbers measure the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

perf = time.perf_counter

#: Workload name -> module; each module has ``setup(seed)`` and ``Workload``.
WORKLOADS = {"design-sweep": "design_sweep", "encode": "encode", "cli-repro": "cli_repro"}

#: Per-child wall-time limit; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 120


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child interpreter on the checkout's sources to completion.

    It inherits the pinned thread settings; a timeout kills and reaps it.
    """
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


class _Scalar:
    """A number p / 2**s, built and added the way exact scalar code does."""

    __slots__ = ("p", "s")

    def __init__(self, p: int, s: int) -> None:
        while s > 0 and p % 2 == 0:
            p //= 2
            s -= 1
        self.p = p
        self.s = s

    def __add__(self, other: "_Scalar") -> "_Scalar":
        s = max(self.s, other.s)
        return _Scalar((self.p << (s - self.s)) + (other.p << (s - other.s)), s)


def _reference_kernel() -> _Scalar:
    total = _Scalar(0, 0)
    for i in range(1250):
        total = total + _Scalar(i, 3)
    return total


class HostSpeed:
    """How fast the host runs, from a fixed reference kernel.

    On a shared 2-vCPU Linux VM the host's speed drifted by about 20% over
    minutes, and in bursts of seconds the program's object-heavy calls
    (``DyadicMatrix.entries``, ``analysis.evaluate``, the exact apply) ran
    2.0-2.1x slower.  This kernel allocates and adds small slotted number
    objects the same way and slowed by the same 2.1x, where a plain integer
    loop slowed by 1.5x and a 256x256 int64 matmul by 1.3x.  Timing metrics
    are divided by ``factor()``, the kernel's fastest time in the run over
    its nominal time, so that they read as seconds at the nominal host
    speed.  The kernel runs outside every timed call and uses no dctscale
    code.
    """

    NOMINAL_S = 1.0e-3  # about the kernel's fastest time on a quiet 2-vCPU VM
    EVERY_S = 0.1  # sampling period, about 1% of the run

    def __init__(self) -> None:
        self.fastest = float("inf")
        self._last = -float("inf")

    def maybe_sample(self) -> None:
        now = perf()
        if now - self._last >= self.EVERY_S:
            _reference_kernel()
            self.fastest = min(self.fastest, perf() - now)
            self._last = perf()

    def probe(self) -> float:
        """The kernel's fastest of three runs now, in seconds."""
        best = float("inf")
        for _ in range(3):
            start = perf()
            _reference_kernel()
            best = min(best, perf() - start)
        self.fastest = min(self.fastest, best)
        self._last = perf()
        return best

    def factor(self) -> float:
        if self.fastest == float("inf"):
            raise RuntimeError("host speed was never sampled")
        return self.fastest / self.NOMINAL_S


class Ops:
    """Tally of benchmark operations.

    Every timed call into dctscale is one attempted operation.  It fails
    when it raises or when its output does not pass its oracle.  The host
    speed is sampled between operations.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.speed = HostSpeed()

    def timed_batch(self, ops) -> list[tuple[float | None, float | None]]:
        """``timed`` for each ``(label, call, check)`` in ``ops``, in order.

        Returns, per operation, the elapsed seconds and the same at the
        nominal host speed: divided by the mean of a kernel probe just
        before and just after the batch, over the kernel's nominal time.
        Both are None when the operation failed.  Keep a batch to a few
        tenths of a second, shorter than the host's slow phases.
        """
        before = self.speed.probe()
        elapsed = [self.timed(*op) for op in ops]
        after = self.speed.probe()
        scale = HostSpeed.NOMINAL_S / ((before + after) / 2)
        return [(None, None) if t is None else (t, t * scale) for t in elapsed]

    def timed(self, label: str, call, check) -> float | None:
        """Time ``call()`` alone, then check its output.

        Returns the elapsed seconds, or None when the operation failed.
        """
        self.speed.maybe_sample()
        self.attempted += 1
        try:
            start = perf()
            out = call()
            elapsed = perf() - start
            ok = check(out)
        except Exception:  # a failing operation is counted, the run goes on
            self.failed += 1
            print(f"operation raised: {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        if not ok:
            self.failed += 1
            print(f"output check failed: {label}", file=sys.stderr)
            return None
        return elapsed


def run_rounds(budget_s: float, round_fn, between=None) -> int:
    """Call ``round_fn(i)`` for i = 0, 1, ... until ``budget_s`` is spent.

    At least one round always runs, so every metric has a sample.  After
    each round ``between(share of the budget spent)`` runs; its own time
    is not counted against the budget.
    """
    spent = 0.0
    i = 0
    while True:
        start = perf()
        round_fn(i)
        spent += perf() - start
        i += 1
        if between is not None:
            between(min(spent / budget_s, 1.0))
        if spent >= budget_s:
            return i


def median_or_fail(samples: list[float], what: str) -> float:
    if not samples:
        raise RuntimeError(f"no successful samples for {what}")
    return median(samples)


class Fastest:
    """Fastest time seen per operation key, and the nominal-speed samples.

    On a shared 2-vCPU Linux VM the same call ran up to 1.7x slower in
    phases lasting seconds: per-second medians of one N = 64 exact apply
    ranged from 5.1 to 9.4 ms, and 10 s run medians from 5.4 to 8.6 ms,
    while its fastest time stayed within 5.03-5.13 ms.  Such noise only
    adds time, so the fastest of samples spread over the whole run is the
    steady estimate of what the program costs.
    """

    def __init__(self) -> None:
        self.best: dict = {}
        self.nominal: dict = {}

    def add(self, key, elapsed: float | None, nominal: float | None = None) -> None:
        if elapsed is not None and elapsed < self.best.get(key, float("inf")):
            self.best[key] = elapsed
        if nominal is not None:
            self.nominal.setdefault(key, []).append(nominal)

    def total(self, keys, what: str) -> float:
        """Sum of the fastest times over ``keys``; every key needs a sample."""
        missing = [k for k in keys if k not in self.best]
        if missing:
            raise RuntimeError(f"no successful sample for {what}: {missing[:3]}")
        return sum(self.best[k] for k in keys)

    def total_nominal(self, keys, what: str) -> float:
        """Sum over ``keys`` of the lower quartile of the nominal-speed samples.

        For operations that a run samples only a few times each: there the
        fastest raw time depends on whether a quiet phase of the host
        happened to meet the operation.  Each sample is divided by the host
        speed measured around it instead (``Ops.timed_batch``), and the
        lower quartile drops the samples that the probes misjudged.
        """
        missing = [k for k in keys if not self.nominal.get(k)]
        if missing:
            raise RuntimeError(f"no successful sample for {what}: {missing[:3]}")
        return sum(sorted(self.nominal[k])[len(self.nominal[k]) // 4] for k in keys)


def ar1(rng, count: int, n: int, rho: float = 0.95):
    """``count`` stationary unit-variance AR(1) vectors of length ``n``."""
    import numpy as np

    x = np.empty((count, n))
    x[:, 0] = rng.standard_normal(count)
    innov = rng.standard_normal((count, n)) * np.sqrt(1.0 - rho * rho)
    for k in range(1, n):
        x[:, k] = rho * x[:, k - 1] + innov[:, k]
    return x


def residuals(x):
    """Unit-variance samples rounded to signed 9-bit integers (int64)."""
    import numpy as np

    return np.clip(np.rint(x * 64.0), -256, 255).astype(np.int64)


def dyadic_text(numerator: int, shift: int) -> str:
    """Canonical ``p`` or ``p/2^s`` text of numerator / 2**shift."""
    while shift > 0 and numerator % 2 == 0:
        numerator //= 2
        shift -= 1
    if numerator == 0 or shift == 0:
        return str(numerator)
    return f"{numerator}/{1 << shift}"
