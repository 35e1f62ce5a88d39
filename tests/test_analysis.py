"""Error-growth regression, break-points and reference-table reproduction.

Two bundled break-point values (methods III and IV) do not match what this
code computes; reproduce_table('break-point') reports exactly those two
cells as out of tolerance against the verbatim printed values, and the
tests here pin that behaviour down.  That is intended: the report shows
the deltas against the reference as printed, while acceptance criterion 5
explains them (the III cell is a misprint, the IV cell carries the
rounding of the printed regression rows).
"""
from __future__ import annotations

import json
import random

import pytest

from dctscale import golden
from dctscale.analysis import (
    CSV_HEADER,
    TABLE_IDS,
    Cell,
    ErrorPoint,
    LinearFit,
    break_point,
    catalog_error_points,
    evaluate,
    fit,
    render,
    reproduce_table,
)

# orthogonalized 8-point Frobenius errors of the catalog members
SEED_ERRORS = {
    "bas1": 2.9242,
    "bas2": 2.8990,
    "bas3": 2.9242,
    "bas4": 1.2678,
    "rdct": 0.7558,
    "mrdct": 1.6602,
    "abdct": 0.6230,
    "sdct": 1.0274,
    "lodct": 0.5261,
    "imrdct": 1.8976,
}


# ── points and fitting ─────────────────────────────────────────────────────


def test_error_point_validation():
    ErrorPoint("ok", 0.0, 0.0)
    with pytest.raises(ValueError, match="first quadrant"):
        ErrorPoint("bad", -0.1, 1.0)
    with pytest.raises(ValueError, match="first quadrant"):
        ErrorPoint("bad", 1.0, -0.1)


def test_fit_recovers_exact_line():
    pts = [ErrorPoint(f"p{i}", float(i), 2.0 * i + 1.0) for i in range(5)]
    f = fit(pts)
    assert f.m_hat == pytest.approx(2.0, abs=1e-12)
    assert f.b_hat == pytest.approx(1.0, abs=1e-12)
    assert f.chi2 == pytest.approx(0.0, abs=1e-24)
    assert f.rmse == pytest.approx(0.0, abs=1e-12)


def test_fit_validation():
    two = [ErrorPoint("a", 0.0, 0.0), ErrorPoint("b", 1.0, 1.0)]
    with pytest.raises(ValueError, match="at least three"):
        fit(two)
    flat = [ErrorPoint(s, 1.0, float(i)) for i, s in enumerate("abc")]
    with pytest.raises(ValueError, match="degenerate"):
        fit(flat)


def test_fit_is_order_independent():
    pts = catalog_error_points("V")
    reference = fit(pts)
    shuffled = list(pts)
    random.Random(42).shuffle(shuffled)
    again = fit(shuffled)
    # bit-identical, not merely close: the fit sorts canonically first
    assert (again.m_hat, again.b_hat, again.chi2, again.rmse) == (
        reference.m_hat,
        reference.b_hat,
        reference.chi2,
        reference.rmse,
    )
    assert isinstance(reference, LinearFit)


# ── catalog error points ───────────────────────────────────────────────────


def test_catalog_error_points_order_and_values():
    pts = catalog_error_points("JAM")
    assert tuple(p.approximation for p in pts) == golden.APPROX_ORDER
    for p in pts:
        assert p.x == pytest.approx(SEED_ERRORS[p.approximation], abs=1e-3)
        assert p.y > 0


def test_abscissae_do_not_depend_on_method():
    xs_jam = [p.x for p in catalog_error_points("JAM")]
    xs_vii = [p.x for p in catalog_error_points("VII")]
    assert xs_jam == xs_vii


# ── break-points ───────────────────────────────────────────────────────────


def test_break_point_parallel():
    f = LinearFit(m_hat=1.0, b_hat=0.0, chi2=0.0, rmse=0.0)
    g = LinearFit(m_hat=1.0, b_hat=2.0, chi2=0.0, rmse=0.0)
    with pytest.raises(ValueError, match="parallel"):
        break_point(f, g)


def test_break_point_simple_crossing():
    f = LinearFit(m_hat=1.0, b_hat=0.0, chi2=0.0, rmse=0.0)
    g = LinearFit(m_hat=3.0, b_hat=-4.0, chi2=0.0, rmse=0.0)
    assert break_point(f, g) == pytest.approx(2.0)


def test_break_points_against_baseline():
    jam = fit(catalog_error_points("JAM"))
    assert break_point(jam, fit(catalog_error_points("I"))) == pytest.approx(
        1.679, abs=1e-2
    )
    assert break_point(jam, fit(catalog_error_points("VII"))) == pytest.approx(
        3.219, abs=5e-3
    )


def test_best_method_break_point_exceeds_catalog_range():
    # the crossover for VI/VII sits beyond the worst seed error, so those
    # methods dominate the baseline over the whole catalog
    jam = fit(catalog_error_points("JAM"))
    x_star = break_point(jam, fit(catalog_error_points("VI")))
    assert x_star > max(p.x for p in catalog_error_points("JAM"))


# ── metric rows ────────────────────────────────────────────────────────────


def test_evaluate_rdct_jam_row():
    report = evaluate("rdct", "JAM")
    assert report.d == pytest.approx(0.0, abs=5e-3)
    assert report.epsilon == pytest.approx(12.93, abs=5e-2)
    assert report.mse == pytest.approx(0.12, abs=1e-2)
    assert report.cg == pytest.approx(8.43, abs=1e-2)
    assert report.eta == pytest.approx(72.23, abs=5e-2)
    assert report.frob == pytest.approx(4.116, abs=1e-3)
    assert (report.adds, report.shifts) == (60, 0)


def test_evaluate_rejects_exact_method():
    with pytest.raises(ValueError, match="dyadic"):
        evaluate("rdct", "exact")


def test_evaluate_size_32():
    report = evaluate("mrdct", "VI", size=32)
    assert (report.adds, report.shifts) == (2 * 44 + 32, 0)
    assert report.d == pytest.approx(0.0, abs=1e-12)


# ── cells ──────────────────────────────────────────────────────────────────


def test_cell_absolute():
    assert Cell(1.05, 1.0, 0.1).ok
    assert not Cell(1.2, 1.0, 0.1).ok
    assert Cell(1.05, 1.0, 0.1).delta == pytest.approx(0.05)


def test_cell_relative():
    assert Cell(109.0, 100.0, 0.1, relative=True).ok
    assert not Cell(111.0, 100.0, 0.1, relative=True).ok


# ── table reproduction ─────────────────────────────────────────────────────


def test_table_ids_exposed():
    assert TABLE_IDS == golden.TABLE_IDS
    assert "break-point" in TABLE_IDS


def test_scaling_families_table():
    doc = reproduce_table("scaling-families")
    assert doc.all_ok()
    assert doc.row_labels == golden.METHOD_ROWS
    assert doc.columns == ("N=8", "N=16", "N=32")
    md = doc.to_markdown()
    assert "## scaling-families" in md
    assert "All cells within tolerance." in md
    assert "| JAM |" in md


def test_linear_regression_table():
    doc = reproduce_table("linear-regression")
    assert doc.all_ok()
    assert doc.columns == ("m_hat", "b_hat", "chi2", "rmse")


def test_break_point_table_flags_known_discrepancies():
    doc = reproduce_table("break-point")
    assert not doc.all_ok()
    assert [row for row, _, _ in doc.failures()] == ["III", "IV"]
    assert doc.cell("VII", "x_star").computed == pytest.approx(3.2178, abs=5e-4)
    assert doc.cell("III", "x_star").computed == pytest.approx(0.5766, abs=5e-4)
    assert doc.cell("IV", "x_star").computed == pytest.approx(1.6471, abs=5e-4)
    md = doc.to_markdown()
    assert "Cells outside tolerance:" in md


@pytest.mark.parametrize("approx_id", ("rdct", "sdct"))
def test_metric_tables_reproduce(approx_id):
    doc = reproduce_table(f"metrics-{approx_id}")
    assert doc.all_ok()
    assert doc.columns == golden.METRIC_COLUMNS
    if approx_id == "sdct":
        for method in golden.METHOD_ROWS:
            assert doc.cell(method, "d").printed == pytest.approx(0.2)


def test_csv_and_json_serialization():
    doc = reproduce_table("scaling-families")
    rows = doc.csv_rows()
    assert len(rows) == len(doc.row_labels) * len(doc.columns)
    assert rows[0].startswith("scaling-families,JAM,N=8,")
    text = render([doc], "csv")
    assert text.startswith(CSV_HEADER + "\r\n")
    assert text.endswith("\r\n")
    assert text.count("\r\n") == len(rows) + 1
    # one header for all documents, and one json list with a trailing newline
    assert render([doc, doc], "csv") == text + "".join(f"{row}\r\n" for row in rows)
    text = render([doc, doc], "json")
    assert text.endswith("}\n]\n") and json.loads(text) == [doc.payload(), doc.payload()]
    assert render([doc, doc], "md") == doc.to_markdown() + "\n" + doc.to_markdown()
    with pytest.raises(ValueError, match="unknown table format 'xml'"):
        render([doc], "xml")
    payload = doc.payload()
    assert payload["table"] == "scaling-families"
    assert payload["all_ok"] is True
    assert payload["rows"][0]["label"] == "JAM"
    assert set(payload["rows"][0]["cells"]["N=8"]) == {
        "computed",
        "printed",
        "delta",
        "ok",
    }


def test_reproduce_table_unknown():
    with pytest.raises(ValueError, match="unknown table"):
        reproduce_table("metrics-dct9")
    with pytest.raises(ValueError, match="unknown table"):
        reproduce_table("nope")
