"""Figure-of-merit metrics against published table values.

Frozen targets come from the per-approximation tables (size 16, AR(1)
rho = 0.95); closed-form cases pin the conventions exactly.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from dctscale import catalog
from dctscale.exact import TransformKind, transform_matrix
from dctscale.metrics import (
    MetricReport,
    SignalModel,
    coding_gain,
    deviation_from_orthogonality,
    mse,
    total_error_energy,
    transform_efficiency,
)
from dctscale.scaler import scale

C8 = transform_matrix(TransformKind.DCT2, 8)
C16 = transform_matrix(TransformKind.DCT2, 16)
MODEL16 = SignalModel(16)


def _scaled(approx_id: str, method: str) -> np.ndarray:
    return scale(catalog.load(approx_id).matrix, method).c_hat


# ── signal model ───────────────────────────────────────────────────────────


def test_signal_model_validation():
    with pytest.raises(ValueError, match="positive size"):
        SignalModel(0)
    with pytest.raises(ValueError, match="rho"):
        SignalModel(8, 1.0)
    with pytest.raises(ValueError, match="rho"):
        SignalModel(8, -0.2)
    assert SignalModel(8, 0.0).autocovariance() == pytest.approx(np.eye(8))


def test_signal_model_autocovariance():
    rx = SignalModel(5, 0.5).autocovariance()
    assert rx[0] == pytest.approx(np.array([1.0, 0.5, 0.25, 0.125, 0.0625]))
    assert rx == pytest.approx(rx.T)
    assert np.all(np.linalg.eigvalsh(rx) > 0)
    assert rx[3, 1] == pytest.approx(0.25)
    # the same values as scipy's symmetric Toeplitz matrix of rho^k
    for n in (1, 5, 16, 1024):
        for rho in (0.0, 0.5, 0.95):
            want = scipy.linalg.toeplitz(rho ** np.arange(n))
            assert np.array_equal(SignalModel(n, rho).autocovariance(), want)


def test_autocovariance_is_shared_and_read_only():
    rx = SignalModel(8, 0.95).autocovariance()
    want = rx.copy()
    with pytest.raises(ValueError, match="read-only"):
        rx[0, 1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        rx += 1.0
    again = SignalModel(8, 0.95).autocovariance()
    assert again is rx and np.array_equal(again, want)


def test_metric_report_fields():
    r = MetricReport(d=0.0, epsilon=1.0, mse=0.1, cg=8.0, eta=70.0, frob=0.3, adds=60, shifts=0)
    assert (r.adds, r.shifts) == (60, 0)


# ── deviation from orthogonality ───────────────────────────────────────────


def test_deviation_exact_transform_is_zero():
    assert deviation_from_orthogonality(C16) == pytest.approx(0.0, abs=1e-14)


def test_deviation_values():
    assert deviation_from_orthogonality(_scaled("rdct", "JAM")) == pytest.approx(
        0.0, abs=1e-14
    )
    assert deviation_from_orthogonality(_scaled("sdct", "JAM")) == pytest.approx(
        0.20, abs=5e-3
    )
    # invariant under the doubling method: d(16) equals d(8) for the seed
    seed = catalog.load("sdct").matrix
    _, seed_hat = catalog.orthogonalize(seed.to_real())
    for method in ("I", "V", "VII"):
        assert deviation_from_orthogonality(_scaled("sdct", method)) == pytest.approx(
            deviation_from_orthogonality(seed_hat), abs=5e-3
        )


def test_deviation_errors():
    with pytest.raises(ValueError, match="zero matrix"):
        deviation_from_orthogonality(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="square"):
        deviation_from_orthogonality(np.ones((2, 3)))


# ── total error energy ─────────────────────────────────────────────────────


def test_total_error_energy_zero_for_exact():
    assert total_error_energy(C16, C16) == 0.0


def test_total_error_energy_is_pi_times_frobenius():
    a = _scaled("rdct", "JAM")
    assert total_error_energy(a, C16) == pytest.approx(
        np.pi * np.linalg.norm(C16 - a, "fro")
    )


@pytest.mark.parametrize(
    "approx_id,method,expected",
    [("rdct", "JAM", 12.93), ("lodct", "VI", 6.30), ("bas1", "II", 15.79)],
)
def test_total_error_energy_values(approx_id, method, expected):
    assert total_error_energy(_scaled(approx_id, method), C16) == pytest.approx(
        expected, abs=5e-2
    )


def test_total_error_energy_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        total_error_energy(C8, C16)


# ── mean squared error ─────────────────────────────────────────────────────


def test_mse_zero_for_exact():
    assert mse(C16, C16, MODEL16) == 0.0


@pytest.mark.parametrize(
    "approx_id,method,expected",
    [("rdct", "JAM", 0.12), ("abdct", "VII", 0.07), ("mrdct", "IV", 0.36)],
)
def test_mse_values(approx_id, method, expected):
    assert mse(_scaled(approx_id, method), C16, MODEL16) == pytest.approx(
        expected, abs=1e-2
    )


def test_mse_model_size_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        mse(C16, C16, SignalModel(8))


# ── coding gain ────────────────────────────────────────────────────────────


def test_coding_gain_exact_values():
    assert coding_gain(C8, SignalModel(8)) == pytest.approx(8.8259, abs=5e-4)
    assert coding_gain(C16, MODEL16) == pytest.approx(9.4555, abs=5e-4)


@pytest.mark.parametrize(
    "approx_id,method,expected",
    [("abdct", "JAM", 8.88), ("mrdct", "VI", 6.48), ("sdct", "IV", 5.57)],
)
def test_coding_gain_values(approx_id, method, expected):
    assert coding_gain(_scaled(approx_id, method), MODEL16) == pytest.approx(
        expected, abs=1e-2
    )


def test_coding_gain_orthonormal_reduction():
    # with orthonormal rows the inverse-row weights are 1, so the gain is
    # the plain variance form
    rx = MODEL16.autocovariance()
    variances = np.diag(C16 @ rx @ C16.T)
    want = float(-10.0 / 16 * np.sum(np.log10(variances)))
    assert coding_gain(C16, MODEL16) == pytest.approx(want, abs=1e-12)


def test_coding_gain_singular():
    with pytest.raises(ValueError, match="invertible"):
        coding_gain(np.ones((4, 4)), SignalModel(4))


# ── transform efficiency ───────────────────────────────────────────────────


def test_transform_efficiency_exact():
    assert transform_efficiency(C8, SignalModel(8)) == pytest.approx(93.99, abs=5e-2)
    assert transform_efficiency(C16, MODEL16) == pytest.approx(88.45, abs=5e-2)


def test_transform_efficiency_identity_closed_form():
    n = 12
    model = SignalModel(n)
    want = 100.0 * n / float(model.autocovariance().sum())
    assert transform_efficiency(np.eye(n), model) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "approx_id,method,expected",
    [("rdct", "JAM", 72.23), ("bas1", "VI", 57.36), ("abdct", "I", 76.81)],
)
def test_transform_efficiency_values(approx_id, method, expected):
    assert transform_efficiency(_scaled(approx_id, method), MODEL16) == pytest.approx(
        expected, abs=5e-2
    )


# ── permutation invariance ─────────────────────────────────────────────────


def test_row_permutation_invariance():
    # d, cg and eta treat the transform's rows symmetrically; eps and mse
    # are invariant when the same row shuffle hits both matrices
    rng = np.random.default_rng(909)
    a = _scaled("lodct", "III")
    for _ in range(5):
        p = rng.permutation(16)
        pa, pc = a[p], C16[p]
        assert deviation_from_orthogonality(pa) == pytest.approx(
            deviation_from_orthogonality(a), abs=1e-12
        )
        assert coding_gain(pa, MODEL16) == pytest.approx(
            coding_gain(a, MODEL16), abs=1e-12
        )
        assert transform_efficiency(pa, MODEL16) == pytest.approx(
            transform_efficiency(a, MODEL16), abs=1e-12
        )
        assert total_error_energy(pa, pc) == pytest.approx(
            total_error_energy(a, C16), abs=1e-12
        )
        assert mse(pa, pc, MODEL16) == pytest.approx(mse(a, C16, MODEL16), abs=1e-12)


def test_evaluate_takes_cg_and_eta_from_one_output_covariance(monkeypatch):
    # evaluate forms R_Y once for both figures, which equal the public
    # coding_gain and transform_efficiency bit for bit
    from dctscale import analysis, metrics
    from dctscale.scaler import scale_to

    formed = []
    form = metrics._output_covariance

    def counted(m, rx):
        formed.append(m.shape)
        return form(m, rx)

    monkeypatch.setattr(metrics, "_output_covariance", counted)
    for approx_id, method, size in (("rdct", "JAM", 16), ("bas1", "VI", 32), ("abdct", "I", 64)):
        formed.clear()
        report = analysis.evaluate(approx_id, method, size=size)
        assert formed == [(size, size)]
        c_hat = scale_to(catalog.load(approx_id).matrix, size, method).c_hat
        assert report.cg == coding_gain(c_hat, SignalModel(size))
        assert report.eta == transform_efficiency(c_hat, SignalModel(size))
