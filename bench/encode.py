"""encode: codec use of transforms built once in setup.

Every catalog member is built at N = 16, 32 and 64 in setup; the seed
chooses the per-level method chain of each.  Vectors from an
AR(1) rho = 0.95 source (the paper's signal model) are then pushed through
them.  Integer vectors are rounded to signed 9-bit residuals and go one at a
time through the exact path, ``fastpath.apply(ft, list_of_ints)``; float
inputs go as fixed-width (N, B) blocks through ``fastpath.apply(ft, X)``.

A 2-D integer array passed to ``fastpath.apply`` silently takes the float
path at the time of writing, so the exact path is fed one list of ints per
call.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.fft

# called through the module so that the traced run sees every call
from dctscale import catalog, fastpath, scaler
from dctscale.catalog import APPROXIMATION_IDS
from dctscale.scaler import DYADIC_METHOD_IDS

from common import Fastest, Ops, ar1, median_or_fail, perf, residuals

SIZES = (16, 32, 64)
BLOCK = 256  # columns per float block
INT_POOL = 32  # rounds of integer vectors, cycled
FLOAT_POOL = 4  # rounds of float blocks, cycled
TRACED_CYCLES = 2
FLOAT_RTOL = 1e-9  # factored float result against dense @ X, relative to max |dense @ X|


def setup(seed: int) -> list[dict]:
    """Build every catalog member at every size, with seed-chosen chains.

    Using every member keeps the work of a run the same for every seed;
    the seed chooses each transform's per-level method chain.
    """
    rng = np.random.default_rng(seed)
    built = []
    for size in SIZES:
        levels = int(math.log2(size // 8))
        for approx in APPROXIMATION_IDS:
            chain = tuple(rng.choice(DYADIC_METHOD_IDS, size=levels).tolist())
            entry = catalog.load(approx)
            st = scaler.scale_to(
                entry.matrix, size, chain, base_cost=(entry.baseline_adds, entry.baseline_shifts)
            )
            built.append(
                {
                    "size": size,
                    "label": f"{approx} {'/'.join(chain)}",
                    "ft": st.factored,
                    "num": st.dyadic.numerators(),
                    "shift": st.dyadic.shift,
                    "dense": st.dense,
                    "cost": st.factored.cost(),
                }
            )
    return built


def _exact_matches(result, expected, shift: int) -> bool:
    """``result[i] == expected[i] / 2**shift`` for DyadicRational results."""
    if len(result) != len(expected):
        return False
    return all(
        (r.numerator << shift) == (int(v) << r.shift) for r, v in zip(result, expected)
    )


class Workload:
    def __init__(self, seed: int, state: list[dict], ops: Ops, workdir) -> None:
        self.ops = ops
        self.transforms = state
        rng = np.random.default_rng([seed, 1])
        self.int_pool = []  # [(list of ints, exact product numerators) per transform]
        for _ in range(INT_POOL):
            row = []
            for t in state:
                ints = residuals(ar1(rng, 1, t["size"])[0])
                row.append((ints.tolist(), t["num"] @ ints))
            self.int_pool.append(row)
        self.float_pool = []  # [(X, dense @ X) per transform]
        for _ in range(FLOAT_POOL):
            row = []
            for t in state:
                x = np.ascontiguousarray(ar1(rng, BLOCK, t["size"]).T)
                row.append((x, t["dense"] @ x))
            self.float_pool.append(row)
        self.samples_int = sum(t["size"] for t in state)
        self.samples_float = self.samples_int * BLOCK

    # -- rounds: one input through every transform --------------------------

    def int_round(self, i: int, fastest: Fastest) -> None:
        for k, (t, (vec, expected)) in enumerate(zip(self.transforms, self.int_pool[i % INT_POOL])):
            fastest.add(
                ("int", k),
                self.ops.timed(
                    f"exact apply {t['label']} N={t['size']} round {i}",
                    lambda: fastpath.apply(t["ft"], vec),
                    lambda out: _exact_matches(out, expected, t["shift"]),
                ),
            )

    def float_round(self, i: int, fastest: Fastest) -> None:
        for k, (t, (x, expected)) in enumerate(zip(self.transforms, self.float_pool[i % FLOAT_POOL])):
            bound = FLOAT_RTOL * max(1.0, float(np.max(np.abs(expected))))
            fastest.add(
                ("float", k),
                self.ops.timed(
                    f"float apply {t['label']} N={t['size']} round {i}",
                    lambda: fastpath.apply(t["ft"], x),
                    lambda out: out.shape == expected.shape
                    and float(np.max(np.abs(out - expected))) <= bound,
                ),
            )

    def cycle(self, i: int, fastest: Fastest) -> None:
        self.int_round(i, fastest)
        self.float_round(i, fastest)

    def warm_up(self) -> None:
        """One untimed cycle: codecs run warm in one process."""
        self.cycle(0, Fastest())

    def summarize(self, fastest: Fastest, speed: float) -> dict:
        """Metrics at the nominal host speed (``speed`` is the host factor)."""
        keys = range(len(self.transforms))
        int_s = fastest.total([("int", k) for k in keys], "exact path") / speed
        float_s = fastest.total([("float", k) for k in keys], "float path") / speed
        return {
            "primary_s": int_s / self.samples_int,
            "secondary_s": float_s / self.samples_float,
            "report": {
                "int_samples_per_s": (self.samples_int / int_s, "samples/s"),
                "float_samples_per_s": (self.samples_float / float_s, "samples/s"),
            },
        }

    def _baselines(self) -> dict:
        """Factored float apply against a dense matmul and scipy's DCT.

        Timed untraced, round by round on identical blocks; the ratios are
        per-layer figures only, because the baselines do not change with
        the program.
        """
        apply_s, dense_s, scipy_s = [], [], []
        for row in self.float_pool:
            a = d = s = 0.0
            for t, (x, _) in zip(self.transforms, row):
                start = perf()
                fastpath.apply(t["ft"], x)
                mid = perf()
                t["dense"] @ x
                end = perf()
                scipy.fft.dct(x, axis=0, norm="ortho")
                a += mid - start
                d += end - mid
                s += perf() - end
            apply_s.append(a)
            dense_s.append(d)
            scipy_s.append(s)
        dense_ms = median_or_fail(dense_s, "dense baseline") * 1e3
        scipy_ms = median_or_fail(scipy_s, "scipy baseline") * 1e3
        apply_ms = median_or_fail(apply_s, "float apply") * 1e3
        return {
            "fastpath.apply_real.vs_dense": apply_ms / dense_ms,
            "fastpath.apply_real.dense_ms": dense_ms,
            "fastpath.apply_real.vs_scipy": apply_ms / scipy_ms,
            "fastpath.apply_real.scipy_ms": scipy_ms,
        }

    def traced(self, recorder) -> dict:
        """Trace the first cycles, then time the baselines."""
        traced = Fastest()
        with recorder.installed(), recorder.span("bench"):
            for i in range(TRACED_CYCLES):
                self.cycle(i, traced)
        layers = self._baselines()
        for size in SIZES:
            costs = [t["cost"] for t in self.transforms if t["size"] == size]
            layers[f"fastpath.model_adds.N{size}"] = sum(c[0] for c in costs)
            layers[f"fastpath.model_shifts.N{size}"] = sum(c[1] for c in costs)
        return {"traced": traced.best, "layers": layers}
