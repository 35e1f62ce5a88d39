"""design-sweep: design-space exploration, applying no transform.

A design point is seed -> ``scale_to`` -> ``factored.cost()`` -> the five
figures of merit plus the Frobenius error.  The paper tier covers every
catalog member x every dyadic method at N = 16, 32 and 64 through
``analysis.evaluate``, plus seeded mixed per-level chains through the same
public calls.  The large tier is a fixed set at N = 128 and 256.  The two
tiers split small-N Python overhead from O(N^3) construction.
"""
from __future__ import annotations

import json
import math

import numpy as np

# dctscale functions are called through their modules so that the traced
# run, which patches module attributes, sees every call.
from dctscale import analysis, catalog, exact, matkit, metrics, scaler
from dctscale.catalog import APPROXIMATION_IDS, DIAGONAL_GRAM_IDS
from dctscale.exact import TransformKind
from dctscale.metrics import SignalModel
from dctscale.scaler import DYADIC_METHOD_IDS

from common import BENCH, Fastest, Ops

PAPER_SIZES = (16, 32, 64)
MIXED_SIZES = (32, 64) * 4  # mixed chains per paper pass, alternating sizes
PAPER_BATCH = 16  # paper points between host-speed probes, about 0.2 s
# Large rounds per cycle.  A run has time for about five paper passes; that
# is enough samples for the sum over 248 paper points, not for 4 long points.
LARGE_ROUNDS = 2
# The large tier is fixed rather than drawn: at N = 128 the construction
# cost ranged from 64 to 128 ms across members and chains, so a seeded
# draw would move large_point_s with the seed more than with the program.
# rdct is the rounded DCT; VII has the half-magnitude (Z) entry, VI not.
LARGE = tuple(
    ("rdct", size, (method,) * int(math.log2(size // 8)))
    for size in (128, 256)
    for method in ("VI", "VII")
)
RHO = 0.95
ORTHO_TOL = 1e-10  # on c_hat c_hat^T - I and on the deviation d
REFERENCE = BENCH / "reference.json"


def setup(seed: int) -> dict:
    """Load (and so verify) every catalog member."""
    return {approx: catalog.load(approx) for approx in APPROXIMATION_IDS}


def _chain(rng, size: int) -> tuple[str, ...]:
    levels = int(math.log2(size // 8))
    return tuple(rng.choice(DYADIC_METHOD_IDS, size=levels).tolist())


def _draw(rng, size: int) -> tuple[str, int, tuple[str, ...]]:
    return (str(rng.choice(APPROXIMATION_IDS)), size, _chain(rng, size))


def _chain_point(approx: str, size: int, chain: tuple[str, ...]):
    """One design point through the public calls, for a per-level chain."""
    entry = catalog.load(approx)
    st = scaler.scale_to(
        entry.matrix, size, chain, base_cost=(entry.baseline_adds, entry.baseline_shifts)
    )
    adds, shifts = st.factored.cost()
    dct = exact.transform_matrix(TransformKind.DCT2, size)
    model = SignalModel(size=size, rho=RHO)
    figures = (
        metrics.deviation_from_orthogonality(st.c_hat),
        metrics.total_error_energy(st.c_hat, dct),
        metrics.mse(st.c_hat, dct, model),
        metrics.coding_gain(st.c_hat, model),
        metrics.transform_efficiency(st.c_hat, model),
        matkit.frobenius_distance(st.c_hat, dct),
    )
    return adds, shifts, st.c_hat, figures


class Workload:
    def __init__(self, seed: int, state: dict, ops: Ops, workdir) -> None:
        self.ops = ops
        # (adds, shifts) per member and size, see capture_reference.py
        self.cost_ref = json.loads(REFERENCE.read_text())["cost"]
        rng = np.random.default_rng(seed)
        self.paper = [
            ("evaluate", approx, size, method)
            for size in PAPER_SIZES
            for approx in APPROXIMATION_IDS
            for method in DYADIC_METHOD_IDS
        ] + [("chain", *_draw(rng, size)) for size in MIXED_SIZES]
        self.paper_keys = [("paper", k) for k in range(len(self.paper))]
        self.large_keys = [("large", k) for k in range(len(LARGE))]

    # -- one design point --------------------------------------------------

    def _cost_ok(self, approx: str, size: int, adds: int, shifts: int) -> bool:
        return [adds, shifts] == self.cost_ref[approx][str(size)]

    def _evaluate(self, approx: str, size: int, method: str):
        """One ``analysis.evaluate`` point as an ``Ops`` operation."""

        def check(report) -> bool:
            values = (report.d, report.epsilon, report.mse, report.cg, report.eta, report.frob)
            ok = all(math.isfinite(v) for v in values)
            ok = ok and self._cost_ok(approx, size, report.adds, report.shifts)
            # unit rows plus a diagonal Gram (d = 0) make c_hat orthogonal
            if approx in DIAGONAL_GRAM_IDS:
                ok = ok and report.d <= ORTHO_TOL
            return ok

        return (
            f"evaluate {approx} {method} N={size}",
            lambda: analysis.evaluate(approx, method, size=size, rho=RHO),
            check,
        )

    def _chain(self, approx: str, size: int, chain: tuple[str, ...]):
        """One per-level chain point as an ``Ops`` operation."""

        def check(out) -> bool:
            adds, shifts, c_hat, figures = out
            ok = all(math.isfinite(v) for v in figures)
            ok = ok and self._cost_ok(approx, size, adds, shifts)
            if approx in DIAGONAL_GRAM_IDS:
                gram = c_hat @ c_hat.T
                ok = ok and float(np.max(np.abs(gram - np.eye(size)))) <= ORTHO_TOL
            return ok

        return (
            f"chain {approx} {'/'.join(chain)} N={size}",
            lambda: _chain_point(approx, size, chain),
            check,
        )

    def _op(self, point):
        if point[0] == "evaluate":
            return self._evaluate(*point[1:])
        return self._chain(*point[1:])

    # -- rounds ------------------------------------------------------------

    def cycle(self, i: int, fastest: Fastest) -> None:
        """One paper pass, then LARGE_ROUNDS rounds over the large points.

        Paper points are timed in batches of PAPER_BATCH, each large point
        alone, with the host speed probed around every batch.
        """
        keyed = [(("paper", k), self._op(point)) for k, point in enumerate(self.paper)]
        batches = [keyed[j : j + PAPER_BATCH] for j in range(0, len(keyed), PAPER_BATCH)]
        large = [[(("large", k), self._chain(*point))] for k, point in enumerate(LARGE)]
        batches += large * LARGE_ROUNDS
        for batch in batches:
            times = self.ops.timed_batch([op for _, op in batch])
            for (key, _), (elapsed, nominal) in zip(batch, times):
                fastest.add(key, elapsed, nominal)

    def warm_up(self) -> None:
        """One untimed pass over every (size, method) pair and both tiers.

        In-process callers sweep many points, so they run warm: at the
        time of writing the first pass of a 160-point sweep ran at about
        150 points/s against about 240 points/s afterwards.
        """
        seen = set()
        for point in self.paper:
            key = (point[0], point[2], point[-1])
            if key not in seen:
                seen.add(key)
                self.ops.timed(*self._op(point))
        self.ops.timed(*self._chain(*LARGE[0]))

    def summarize(self, fastest: Fastest, speed: float) -> dict:
        """Metrics at the nominal host speed.

        A run samples each point only four to ten times, so both tiers use
        the per-batch host speed rather than the run's ``speed`` factor.
        """
        paper_s = fastest.total_nominal(self.paper_keys, "paper tier")
        large_s = fastest.total_nominal(self.large_keys, "large tier") / len(LARGE)
        points_per_s = len(self.paper) / paper_s
        return {
            "primary_s": 1.0 / points_per_s,
            "secondary_s": large_s,
            "report": {
                "design_points_per_s": (points_per_s, "points/s"),
                "large_point_s": (large_s, "s"),
            },
        }

    def traced(self, recorder) -> dict:
        """Trace one cycle."""
        traced = Fastest()
        with recorder.installed(), recorder.span("bench"):
            self.cycle(0, traced)
        return {"traced": traced.best, "layers": {}}
