"""Error-model fitting across the catalog and reference-table reproduction.

The doubling error of a scaled approximation grows linearly with the
seed's own error; this module fits that line per method over the ten
catalog members, derives per-method break-points against the baseline
method, and recomputes every bundled reference table with per-cell deltas
against the printed values.
"""
from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from . import catalog, golden
from .exact import TransformKind, transform_matrix
from .matkit import frobenius_distance
from .metrics import MetricReport, SignalModel, _figures
from .scaler import DYADIC_METHOD_IDS, normalize_method, scale, scale_to

TABLE_IDS = golden.TABLE_IDS

CSV_HEADER = "table,row,column,computed,printed,delta,ok"
TABLE_FORMATS = ("md", "csv", "json")


@dataclass(frozen=True)
class ErrorPoint:
    """One catalog member's (8-point error, 16-point error) pair."""

    approximation: str
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError("error points live in the first quadrant")


@dataclass(frozen=True)
class LinearFit:
    m_hat: float
    b_hat: float
    chi2: float
    rmse: float


def fit(points) -> LinearFit:
    """Ordinary least squares y = m x + b over the given error points.

    chi2 is the unit-weight goodness-of-fit statistic (the residual sum
    of squares); rmse uses the two-estimated-parameters correction,
    sqrt(chi2 / (n - 2)).  Points are ordered canonically first, so the
    result is bit-identical under input reordering.
    """
    pts = sorted(points, key=lambda p: (p.x, p.y, p.approximation))
    if len(pts) < 3:
        raise ValueError("need at least three points to fit a line")
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    if np.all(xs == xs[0]):
        raise ValueError("degenerate design: all abscissae equal")
    m_hat, b_hat = np.polyfit(xs, ys, 1)
    resid = ys - (m_hat * xs + b_hat)
    chi2 = float(resid @ resid)
    rmse = float(np.sqrt(chi2 / (len(pts) - 2)))
    return LinearFit(m_hat=float(m_hat), b_hat=float(b_hat), chi2=chi2, rmse=rmse)


def break_point(a: LinearFit, b: LinearFit) -> float:
    """Abscissa where two fitted lines cross.

    For a method fitted as ``b`` against a baseline fitted as ``a``, the
    method yields the smaller predicted error for x below the returned
    value exactly when its slope is the larger one.
    """
    denom = b.m_hat - a.m_hat
    if abs(denom) < 1e-12:
        raise ValueError("parallel fits have no break-point")
    return (a.b_hat - b.b_hat) / denom


def catalog_error_points(method: str) -> list[ErrorPoint]:
    """The ten (x, y) pairs for one scaling method.

    x is the Frobenius error of the orthogonalized 8-point member itself;
    y is the error of its orthogonalized 16-point doubling.
    """
    c8 = transform_matrix(TransformKind.DCT2, 8)
    c16 = transform_matrix(TransformKind.DCT2, 16)
    points = []
    for approx_id in golden.APPROX_ORDER:
        entry = catalog.load(approx_id)
        _, seed_hat = catalog.orthogonalize(entry.matrix.to_real())
        x = frobenius_distance(seed_hat, c8)
        y = frobenius_distance(scale(entry.matrix, method).c_hat, c16)
        points.append(ErrorPoint(approx_id, x, y))
    return points


@lru_cache(maxsize=None)
def _method_fit(method: str) -> LinearFit:
    return fit(catalog_error_points(method))


def evaluate(approx_id: str, method: str, size: int = 16, rho: float = 0.95) -> MetricReport:
    """Full figure-of-merit row for one scaled catalog member."""
    mid = normalize_method(method)
    if mid not in DYADIC_METHOD_IDS:
        raise ValueError("metric rows cover the dyadic scaling methods only")
    entry = catalog.load(approx_id)
    scaled = scale_to(
        entry.matrix,
        size,
        mid,
        base_cost=(entry.baseline_adds, entry.baseline_shifts),
    )
    exact = transform_matrix(TransformKind.DCT2, size)
    figures = _figures(scaled.c_hat, exact, SignalModel(size=size, rho=rho))
    return MetricReport(*figures, *scaled.factored.cost())


@dataclass(frozen=True)
class Cell:
    computed: float
    printed: float
    tolerance: float
    relative: bool = False

    @property
    def delta(self) -> float:
        return self.computed - self.printed

    @property
    def ok(self) -> bool:
        bound = self.tolerance * abs(self.printed) if self.relative else self.tolerance
        return abs(self.delta) <= bound


@dataclass(frozen=True, eq=False)
class TableDocument:
    """A recomputed reference table with per-cell printed-value deltas."""

    table_id: str
    columns: tuple[str, ...]
    formats: tuple[str, ...]
    row_labels: tuple[str, ...]
    cells: dict

    def cell(self, row: str, column: str) -> Cell:
        return self.cells[(row, column)]

    def failures(self) -> list[tuple[str, str, Cell]]:
        out = []
        for row in self.row_labels:
            for col in self.columns:
                c = self.cells[(row, col)]
                if not c.ok:
                    out.append((row, col, c))
        return out

    def all_ok(self) -> bool:
        return not self.failures()

    def _fmt(self, column: str, value: float) -> str:
        spec = self.formats[self.columns.index(column)]
        if spec == "%d":
            return str(int(round(value)))
        return spec % value

    def to_markdown(self) -> str:
        lines = [f"## {self.table_id}", ""]
        header = ["row"] + list(self.columns)
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in self.row_labels:
            rendered = [row]
            for col in self.columns:
                c = self.cells[(row, col)]
                rendered.append(f"{self._fmt(col, c.computed)} ({c.delta:+.3g})")
            lines.append("| " + " | ".join(rendered) + " |")
        lines.append("")
        fails = self.failures()
        if fails:
            lines.append("Cells outside tolerance:")
            for row, col, c in fails:
                lines.append(
                    f"- {row}/{col}: computed {self._fmt(col, c.computed)}, "
                    f"printed {self._fmt(col, c.printed)}"
                )
        else:
            lines.append("All cells within tolerance.")
        lines.append("")
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = []
        for row in self.row_labels:
            for col in self.columns:
                c = self.cells[(row, col)]
                rows.append(
                    f"{self.table_id},{row},{col},{self._fmt(col, c.computed)},"
                    f"{self._fmt(col, c.printed)},{c.delta:.6g},"
                    f"{'true' if c.ok else 'false'}"
                )
        return rows

    def payload(self) -> dict:
        rows = []
        for row in self.row_labels:
            cells = {}
            for col in self.columns:
                c = self.cells[(row, col)]
                cells[col] = {
                    "computed": c.computed,
                    "printed": c.printed,
                    "delta": c.delta,
                    "ok": c.ok,
                }
            rows.append({"label": row, "cells": cells})
        return {
            "table": self.table_id,
            "columns": list(self.columns),
            "rows": rows,
            "all_ok": self.all_ok(),
        }


def render(docs, fmt: str) -> str:
    """The text of ``dctscale tables``: each document's markdown in turn, one csv
    header and every row, CRLF-ended, or one json list, indent 2, newline-ended."""
    if fmt == "md":
        return "\n".join(doc.to_markdown() for doc in docs)
    if fmt == "csv":
        return "".join(f"{row}\r\n" for row in [CSV_HEADER, *(r for doc in docs for r in doc.csv_rows())])
    if fmt == "json":
        return json.dumps([doc.payload() for doc in docs], indent=2) + "\n"
    raise ValueError(f"unknown table format {fmt!r}; choose from {', '.join(TABLE_FORMATS)}")


def _table(table_id, columns, formats, rows, computed, printed, tolerance) -> TableDocument:
    """One reference table: ``computed(row)`` and ``printed(row)`` give a row's
    values in column order, ``tolerance(column)`` its ``(tolerance, relative)``."""
    cells = {}
    for row in rows:
        for col, comp, prt in zip(columns, computed(row), printed(row)):
            cells[(row, col)] = Cell(float(comp), float(prt), *tolerance(col))
    return TableDocument(table_id, columns, formats, rows, cells)


def _doubling_errors(method: str) -> list[float]:
    """||scale(C_N) - C_2N||_F at each scaling-family seed size N."""
    return [
        frobenius_distance(
            scale(transform_matrix(TransformKind.DCT2, n), method).c_hat,
            transform_matrix(TransformKind.DCT2, 2 * n),
        )
        for n in golden.SCALING_FAMILY_SEED_SIZES
    ]


def _metric_row(approx_id: str, method: str) -> tuple:
    r = evaluate(approx_id, method, size=16)
    return (r.d, r.epsilon, r.mse, r.cg, r.eta, r.adds, r.shifts)


def reproduce_table(table_id: str) -> TableDocument:
    """Recompute one reference table and diff it against the printed values."""
    if table_id == "scaling-families":
        columns = tuple(f"N={n}" for n in golden.SCALING_FAMILY_SEED_SIZES)
        return _table(
            table_id, columns, ("%.3f",) * len(columns), golden.METHOD_ROWS,
            _doubling_errors, golden.SCALING_FAMILIES.__getitem__,
            lambda col: (golden.SCALING_FAMILIES_TOL, False),
        )
    if table_id == "linear-regression":
        return _table(
            table_id, ("m_hat", "b_hat", "chi2", "rmse"),
            ("%.3f", "%.3f", "%.3e", "%.3e"), golden.METHOD_ROWS,
            lambda m: astuple(_method_fit(m)), golden.REGRESSION_TABLE.__getitem__,
            lambda col: (golden.REGRESSION_COEFF_TOL, False) if col in ("m_hat", "b_hat")
            else (golden.REGRESSION_STAT_RELTOL, True),
        )
    if table_id == "break-point":
        return _table(
            table_id, ("x_star",), ("%.3f",), tuple(golden.BREAK_POINT_TABLE),
            lambda m: (break_point(_method_fit("JAM"), _method_fit(m)),),
            lambda m: (golden.BREAK_POINT_TABLE[m],),
            lambda col: (golden.BREAK_POINT_TOL, False),
        )
    approx_id = table_id.removeprefix("metrics-")
    if table_id.startswith("metrics-") and approx_id in golden.METRIC_TABLES:
        return _table(
            table_id, golden.METRIC_COLUMNS,
            ("%.2f", "%.3f", "%.2f", "%.2f", "%.2f", "%d", "%d"), golden.METHOD_ROWS,
            lambda m: _metric_row(approx_id, m), golden.METRIC_TABLES[approx_id].__getitem__,
            lambda col: (golden.METRIC_TOLS[col], False),
        )
    raise ValueError(
        f"unknown table {table_id!r}; choose from {', '.join(TABLE_IDS)}"
    )
