"""Figure-of-merit suite for DCT approximations.

Five standard metrics, all evaluated on the orthogonalized approximation
against the exact transform of the same size: deviation from
orthogonality, total error energy, mean squared error under an AR(1)
signal model, unified transform coding gain, and transform efficiency.
Each public function validates its input and calls one private kernel;
``_figures`` runs the same kernels for all five and the Frobenius error over
one validated input, so each figure has one definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import CACHE_SIZE
from .matkit import _frobenius, as_real


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
    if not m.any():
        raise ValueError("deviation from orthogonality of the zero matrix")
    return _deviation(m)


def total_error_energy(c_hat, c) -> float:
    """Total error energy: pi times the Frobenius distance to the exact matrix."""
    a, b = _pair(c_hat, c)
    return _error_energy(b - a)


def mse(c_hat, c, model: SignalModel) -> float:
    """Mean squared error (1/N) tr((c - c_hat) R_x (c - c_hat)^T)."""
    a, b = _pair(c_hat, c)
    return _mse(b - a, _model_for(a, model))


def coding_gain(c_hat, model: SignalModel) -> float:
    """Unified transform coding gain in dB.

    C_g = 10 log10 prod_k (A_k B_k)^(-1/N) with A_k the k-th diagonal
    entry of c_hat R_x c_hat^T and B_k the squared norm of the k-th row
    of c_hat^(-1).  For orthonormal rows B_k = 1 and the product reduces
    to the variance form.
    """
    m = _square(c_hat)
    return _gain_and_covariance(m, _model_for(m, model))[0]


def transform_efficiency(c_hat, model: SignalModel) -> float:
    """Percentage of covariance energy the transform packs on the diagonal.

    eta = 100 sum_k |[R_Y]_kk| / sum_ij |[R_Y]_ij| with R_Y = c_hat R_x c_hat^T.
    """
    m = _square(c_hat)
    return _efficiency(_output_covariance(m, _model_for(m, model)))


def _figures(c_hat, c, model: SignalModel) -> tuple[float, ...]:
    """(d, epsilon, mse, cg, eta, frob) of ``c_hat`` against the exact ``c``, in
    one pass: the inputs are validated once, c - c_hat is formed once for
    epsilon, the MSE and the Frobenius error, and R_Y once for cg and eta.
    Each figure equals its public function's bit for bit."""
    a, b = _pair(c_hat, c)
    rx = _model_for(a, model)
    delta = b - a
    cg, ry = _gain_and_covariance(a, rx)
    # the Frobenius error squares delta in place, so it comes last
    return _deviation(a), _error_energy(delta), _mse(delta, rx), cg, _efficiency(ry), _frobenius(delta)


# -- the kernels, on validated float64 arrays -------------------------------


def _deviation(m: np.ndarray) -> float:
    gram = m @ m.T
    gram *= gram  # its diagonal is now the squared diagonal
    return 1.0 - float(gram.diagonal().sum()) / float(gram.sum())


def _error_energy(delta: np.ndarray) -> float:
    return float(np.pi * np.linalg.norm(delta, "fro"))


def _mse(delta: np.ndarray, rx: np.ndarray) -> float:
    return float((delta @ rx @ delta.T).trace() / delta.shape[0])


def _output_covariance(m: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """R_Y = m R_x m^T, the covariance of the transformed signal."""
    return m @ rx @ m.T


def _gain_and_covariance(m: np.ndarray, rx: np.ndarray) -> tuple[float, np.ndarray]:
    """The coding gain and the R_Y it reads, which ``_figures`` shares with the
    efficiency.  The inverse comes before R_Y: formed after it, at N = 256,
    the inverse's buffers cost about 470 page faults a call."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("coding gain needs an invertible transform") from exc
    ry = _output_covariance(m, rx)
    a = ry.diagonal()
    inv *= inv
    b = inv.sum(axis=1)
    return float(-10.0 / m.shape[0] * np.log10(a * b).sum()), ry


def _efficiency(ry: np.ndarray) -> float:
    """eta of ``ry``, an R_Y that it takes the absolute value of in place."""
    diag = np.abs(ry.diagonal()).sum()
    return float(100.0 * diag / np.abs(ry, out=ry).sum())
