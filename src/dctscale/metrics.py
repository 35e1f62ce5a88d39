"""Figure-of-merit suite for DCT approximations.

Five standard metrics, all evaluated on the orthogonalized approximation
against the exact transform of the same size: deviation from
orthogonality, total error energy, mean squared error under an AR(1)
signal model, unified transform coding gain, and transform efficiency.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import CACHE_SIZE
from .matkit import as_real


@dataclass(frozen=True)
class SignalModel:
    """First-order autoregressive signal model with correlation ``rho``."""

    size: int
    rho: float = 0.95

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("signal model needs a positive size")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("AR(1) correlation must satisfy 0 <= rho < 1")

    def autocovariance(self) -> np.ndarray:
        """Covariance matrix [R_x]_ij = rho^|i-j| (symmetric Toeplitz); shared, so read-only."""
        return _autocovariance(self.size, self.rho)


@lru_cache(maxsize=CACHE_SIZE)
def _autocovariance(size: int, rho: float) -> np.ndarray:
    p = rho ** np.arange(size)
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([p[:0:-1], p]), size)
    out = rows[::-1].copy()  # row i is the window p[i], ..., p[0], ..., p[N-1-i]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MetricReport:
    """One row of a figure-of-merit table."""

    d: float
    epsilon: float
    mse: float
    cg: float
    eta: float
    frob: float
    adds: int
    shifts: int


def _square(c_hat) -> np.ndarray:
    m = as_real(c_hat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def _pair(c_hat, c) -> tuple[np.ndarray, np.ndarray]:
    a, b = _square(c_hat), _square(c)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def _model_for(m: np.ndarray, model: SignalModel) -> np.ndarray:
    if model.size != m.shape[0]:
        raise ValueError(
            f"signal model size {model.size} does not match matrix size {m.shape[0]}"
        )
    return model.autocovariance()


def deviation_from_orthogonality(c_hat) -> float:
    """1 - ||diag(M)||_F^2 / ||M||_F^2 with M = c_hat c_hat^T.

    Zero exactly when the Gram matrix is diagonal; approaches 1 as the
    off-diagonal energy dominates.
    """
    m = _square(c_hat)
    if not np.any(m):
        raise ValueError("deviation from orthogonality of the zero matrix")
    gram = m @ m.T
    total = float(np.sum(gram * gram))
    diag = float(np.sum(np.diag(gram) ** 2))
    return 1.0 - diag / total


def total_error_energy(c_hat, c) -> float:
    """Total error energy: pi times the Frobenius distance to the exact matrix."""
    a, b = _pair(c_hat, c)
    return float(np.pi * np.linalg.norm(b - a, "fro"))


def mse(c_hat, c, model: SignalModel) -> float:
    """Mean squared error (1/N) tr((c - c_hat) R_x (c - c_hat)^T)."""
    a, b = _pair(c_hat, c)
    rx = _model_for(a, model)
    delta = b - a
    return float(np.trace(delta @ rx @ delta.T) / a.shape[0])


def coding_gain(c_hat, model: SignalModel) -> float:
    """Unified transform coding gain in dB.

    C_g = 10 log10 prod_k (A_k B_k)^(-1/N) with A_k the k-th diagonal
    entry of c_hat R_x c_hat^T and B_k the squared norm of the k-th row
    of c_hat^(-1).  For orthonormal rows B_k = 1 and the product reduces
    to the variance form.
    """
    m = _square(c_hat)
    rx = _model_for(m, model)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("coding gain needs an invertible transform") from exc
    a = np.diag(m @ rx @ m.T)
    b = np.sum(inv * inv, axis=1)
    n = m.shape[0]
    return float(-10.0 / n * np.sum(np.log10(a * b)))


def transform_efficiency(c_hat, model: SignalModel) -> float:
    """Percentage of covariance energy the transform packs on the diagonal.

    eta = 100 sum_k |[R_Y]_kk| / sum_ij |[R_Y]_ij| with R_Y = c_hat R_x c_hat^T.
    """
    m = _square(c_hat)
    rx = _model_for(m, model)
    ry = m @ rx @ m.T
    return float(100.0 * np.sum(np.abs(np.diag(ry))) / np.sum(np.abs(ry)))
