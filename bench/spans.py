"""Span recording for the traced run.

Public dctscale functions and methods are wrapped at run time from the
benchmark's own files, so nothing under ``src/`` changes.  A wrapped
function is replaced in every loaded ``dctscale`` module namespace that
binds it by name (``scaler.scale_to``, ``analysis.scale_to``,
``dctscale.scale_to``, ...); a wrapped method is replaced on its class.

Each span is kept in memory as ``[name, start, end, parent]`` and written
out when the run ends.  A span's self time is its duration minus the time
its child spans cover; a layer (a module) sums the self times of its spans.
The root span, named ``bench``, holds the benchmark's own time, so the
self times of all layers add up to the traced wall time.

Child processes record with the same clock: ``time.perf_counter`` reads
CLOCK_MONOTONIC on Linux, which all processes share, so their spans are
placed under the parent span that waited for them.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager

from common import perf

# (span name, module, attribute); "Class.method" attributes patch the class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("catalog.load", "dctscale.catalog", "load"),
    ("catalog.orthogonalize", "dctscale.catalog", "orthogonalize"),
    ("exact.transform_matrix", "dctscale.exact", "transform_matrix"),
    ("exact.butterfly", "dctscale.exact", "butterfly"),
    ("exact.perfect_shuffle", "dctscale.exact", "perfect_shuffle"),
    ("exact.counter_identity", "dctscale.exact", "counter_identity"),
    ("exact.sign_diagonal", "dctscale.exact", "sign_diagonal"),
    ("exact.half_leading_diagonal", "dctscale.exact", "half_leading_diagonal"),
    ("matkit.matmul", "dctscale.matkit", "DyadicMatrix.__matmul__"),
    ("matkit.entries", "dctscale.matkit", "DyadicMatrix.entries"),
    ("matkit.apply", "dctscale.matkit", "DyadicMatrix.apply"),
    ("scaler.scale", "dctscale.scaler", "scale"),
    ("scaler.scale_to", "dctscale.scaler", "scale_to"),
    ("scaler.method_blocks", "dctscale.scaler", "method_blocks"),
    ("fastpath.count_dense_dyadic", "dctscale.fastpath", "count_dense_dyadic"),
    ("fastpath.cost", "dctscale.fastpath", "FactoredTransform.cost"),
    ("fastpath.dyadic", "dctscale.fastpath", "FactoredTransform.dyadic"),
    ("fastpath.apply", "dctscale.fastpath", "apply"),
    ("fastpath.apply_exact", "dctscale.fastpath", "FactoredTransform.apply_exact"),
    ("fastpath.apply_exact", "dctscale.fastpath", "Factor.apply_exact"),
    ("fastpath.apply_real", "dctscale.fastpath", "FactoredTransform.apply_real"),
    ("fastpath.apply_real", "dctscale.fastpath", "Factor.apply_real"),
    ("metrics.deviation_from_orthogonality", "dctscale.metrics", "deviation_from_orthogonality"),
    ("metrics.total_error_energy", "dctscale.metrics", "total_error_energy"),
    ("metrics.mse", "dctscale.metrics", "mse"),
    ("metrics.coding_gain", "dctscale.metrics", "coding_gain"),
    ("metrics.transform_efficiency", "dctscale.metrics", "transform_efficiency"),
    # a matkit function, counted with the figures of merit it serves
    ("metrics.frobenius_distance", "dctscale.matkit", "frobenius_distance"),
    ("analysis.evaluate", "dctscale.analysis", "evaluate"),
    ("analysis.reproduce_table", "dctscale.analysis", "reproduce_table"),
    ("analysis.fit", "dctscale.analysis", "fit"),
    ("analysis.catalog_error_points", "dctscale.analysis", "catalog_error_points"),
    ("cli.run", "dctscale.cli", "run"),
)

#: Layers whose summed self time is reported; ``interp`` is interpreter
#: start-up and exit of CLI child processes, ``bench`` the benchmark itself.
LAYERS = (
    "catalog", "exact", "matkit", "scaler", "fastpath", "metrics",
    "analysis", "cli", "interp", "bench",
)


class Recorder:
    """In-memory span list plus the runtime patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def adopt(self, records: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, up in records:
            self.spans.append([name, start, end, parent if up < 0 else base + up])

    def _wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "dctscale" or n.startswith("dctscale."))
        ]
        for name, module, attr in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def summary(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.self_ms`` and ``<layer>.self_ms`` values."""
        child = [0.0] * len(self.spans)
        for _, start, end, up in self.spans:
            if up >= 0:
                child[up] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_s: dict[str, float] = defaultdict(float)
        wall = 0.0
        for i, (name, start, end, up) in enumerate(self.spans):
            own = (end - start) - child[i]
            calls[name] += 1
            self_s[name] += own
            layer_s[name.split(".", 1)[0]] += own
            if up < 0:
                wall += end - start
        out: dict[str, float] = {"trace.wall_ms": wall * 1e3}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_s.get(layer, 0.0) * 1e3
        return out
