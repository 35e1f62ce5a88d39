"""Bit identity of a design point against the numpy module-function forms.

A design point (catalog seed -> ``scale_to`` -> orthogonalization -> the
five figures of merit and the Frobenius error) stacks each doubling's four
blocks into one preallocated array and reduces with ndarray methods.  Here
every result is compared with ``==`` against the same computation written
with ``np.vstack``/``np.hstack``, ``np.sum``, ``np.diag`` and ``np.trace``,
evaluated on the same machine, so the check holds on any platform: for
every catalog member x dyadic method at N = 16, 32 and 64, and for the
benchmark's large chains (rdct with VI or VII at N = 128 and 256).
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from dctscale import analysis, catalog, scaler
from dctscale.catalog import APPROXIMATION_IDS
from dctscale.exact import TransformKind, perfect_shuffle, transform_matrix
from dctscale.matkit import DyadicMatrix
from dctscale.metrics import SignalModel
from dctscale.scaler import DYADIC_METHOD_IDS

RHO = 0.95


def _stacked(top, low, shuffle):
    return np.vstack([np.hstack([top, top[:, ::-1]]), np.hstack([low[:, ::-1], -low])])[shuffle]


def _reference_chain(approx: str, size: int, mid: str) -> tuple[np.ndarray, int]:
    """Numerators and shift of the raw doubled matrix, stacked by vstack/hstack."""
    seed = catalog.load(approx).matrix
    num, shift = seed.numerators(), seed.shift
    while num.shape[0] < size:
        lv = scaler._doubling(mid, num.shape[0])
        low = lv.mult[:, None] * (num * lv.signs)[lv.index]
        m = DyadicMatrix(_stacked(num << lv.shift, low, lv.shuffle), shift + lv.shift)
        num, shift = m.numerators(), m.shift
    return num, shift


def _reference_figures(c_hat: np.ndarray, size: int) -> tuple[float, ...]:
    """(d, epsilon, mse, cg, eta, frob) through the numpy module functions."""
    exact = transform_matrix(TransformKind.DCT2, size)
    rx = SignalModel(size=size, rho=RHO).autocovariance()
    gram = c_hat @ c_hat.T
    d = 1.0 - float(np.sum(np.diag(gram) ** 2)) / float(np.sum(gram * gram))
    epsilon = float(np.pi * np.linalg.norm(exact - c_hat, "fro"))
    delta = exact - c_hat
    mse = float(np.trace(delta @ rx @ delta.T) / size)
    inv = np.linalg.inv(c_hat)
    ry = c_hat @ rx @ c_hat.T
    cg = float(-10.0 / size * np.sum(np.log10(np.diag(ry) * np.sum(inv * inv, axis=1))))
    eta = float(100.0 * np.sum(np.abs(np.diag(ry))) / np.sum(np.abs(ry)))
    frob = float(np.sqrt(np.sum((c_hat - exact) ** 2)))
    return d, epsilon, mse, cg, eta, frob


def _check_point(approx: str, size: int, mid: str) -> None:
    entry = catalog.load(approx)
    st = scaler.scale_to(entry.matrix, size, mid, base_cost=(entry.baseline_adds, entry.baseline_shifts))
    num, shift = _reference_chain(approx, size, mid)
    assert st.dyadic.shift == shift and np.array_equal(st.dyadic.numerators(), num)
    dense = DyadicMatrix(num, shift).to_real()
    inv_norm = 1.0 / np.sqrt(np.sum(dense * dense, axis=1))
    sigma, c_hat = np.diag(inv_norm), dense * inv_norm[:, None]
    for got, want in ((st.dense, dense), (st.sigma, sigma), (st.c_hat, c_hat)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    report = analysis.evaluate(approx, mid, size=size, rho=RHO)
    got = (report.d, report.epsilon, report.mse, report.cg, report.eta, report.frob)
    # == on every figure; NaN never occurs, the figures are finite
    assert all(math.isfinite(v) for v in got) and got == _reference_figures(c_hat, size)


@pytest.mark.parametrize("size", (16, 32, 64))
def test_paper_points_are_bit_identical(size):
    for approx in APPROXIMATION_IDS:
        for mid in DYADIC_METHOD_IDS:
            _check_point(approx, size, mid)


@pytest.mark.parametrize("size", (128, 256))
@pytest.mark.parametrize("mid", ("VI", "VII"))
def test_large_chains_are_bit_identical(size, mid):
    _check_point("rdct", size, mid)


@pytest.mark.parametrize("dtype", (np.int64, np.float64))
def test_stack_halves_keeps_dtype_and_c_order(dtype):
    rng = np.random.default_rng(19)
    for n in (1, 2, 8, 32):
        top = rng.integers(-9, 10, (n, n)).astype(dtype)
        low = rng.integers(-9, 10, (n, n)).astype(dtype)
        shuffle = perfect_shuffle(n)
        out = scaler._stack_halves(top, low)
        assert out.dtype == dtype and out.flags.c_contiguous and out.flags.writeable
        assert np.array_equal(out, _stacked(top, low, shuffle))
    # a float seed's doubling takes the same stack
    t = transform_matrix(TransformKind.DCT2, 8)
    assert scaler._double_real(t, "VII").flags.c_contiguous
