"""Exact transform generators, structural matrices, and identity checks.

The three trigonometric transforms and the structural factors (counter
identity, sign diagonal, half diagonal, shuffle/bit-reversal permutations,
butterfly, and the real matrices A, B, D, G that make the doubling
factorization exact) all live here, together with a registry of the seven
matrix identities the factorizations rest on.

J, Ibar and Z are gather triples ``(index, mult, shift)`` and the two
permutations gather indices, in the ``Factor.gather`` convention
(``P @ x == x[index]``), and ``gather_matrix`` is the one expansion of a
gather into a :class:`DyadicMatrix`.  ``scaler`` doubles with these triples.
"""
from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from .matkit import DyadicMatrix, _integer

SQRT2 = float(np.sqrt(2.0))
SQRT2_OVER_2 = SQRT2 / 2.0

#: Matrices each cache below and in ``metrics`` keeps; one at N = 4096 is 128 MB.
CACHE_SIZE = 32


class TransformKind(enum.Enum):
    DCT2 = "dct2"
    DCT4 = "dct4"
    DST4 = "dst4"


class StructuralKind(enum.Enum):
    J = "J"
    IBAR = "ibar"
    Z = "Z"
    A = "A"
    D = "D"
    B = "B"
    G = "G"
    PERFECT_SHUFFLE = "shuffle"
    BIT_REVERSAL = "bitrev"
    BUTTERFLY = "butterfly"


def transform_matrix(kind: TransformKind, n: int) -> np.ndarray:
    """The n x n orthonormal transform matrix for the requested kind; shared, so read-only.

    ``n`` must be integral (8.0 is, 8.5 raises ValueError)."""
    n = _integer(n)
    if n < 1:
        raise ValueError("transform size must be at least 1")
    return _transform_matrix(kind, n)


@lru_cache(maxsize=CACHE_SIZE)
def _transform_matrix(kind: TransformKind, n: int) -> np.ndarray:
    k = np.arange(n)[:, None].astype(np.float64)
    m = np.arange(n)[None, :].astype(np.float64)
    if kind is TransformKind.DCT2:
        beta = np.ones((n, 1))
        beta[0, 0] = 1.0 / SQRT2
        out = np.sqrt(2.0 / n) * beta * np.cos(k * (2 * m + 1) * np.pi / (2 * n))
    elif kind is TransformKind.DCT4:
        out = np.sqrt(2.0 / n) * np.cos((2 * k + 1) * (2 * m + 1) * np.pi / (4 * n))
    elif kind is TransformKind.DST4:
        out = np.sqrt(2.0 / n) * np.sin((2 * k + 1) * (2 * m + 1) * np.pi / (4 * n))
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")
    out.setflags(write=False)
    return out


# -- dyadic structural factors -------------------------------------------


def sign_diagonal(n: int) -> tuple:
    """J = diag((-1)^k), the alternating-sign diagonal."""
    rows = np.arange(n)
    return rows, 1 - 2 * (rows % 2), 0


def counter_identity(n: int) -> tuple:
    """Ibar, the unit anti-diagonal: it reverses the coordinate order."""
    return np.arange(n)[::-1], None, 0


def half_leading_diagonal(n: int) -> tuple:
    """Z = diag(1/2, 1, ..., 1)."""
    rows = np.arange(n)
    return rows, np.where(rows, 2, 1), 1


def gather_matrix(index, mult=None, shift: int = 0) -> DyadicMatrix:
    """The matrix M with ``M @ x == mult * x[index] / 2**shift``; mult None is all ones."""
    n = len(index)
    num = np.zeros((n, n), dtype=np.int64)
    num[np.arange(n), index] = 1 if mult is None else mult
    return DyadicMatrix(num, shift)


def butterfly(half: int) -> DyadicMatrix:
    """[[I, Ibar], [Ibar, -I]] for N = half: diag(I, -I) plus the 2N-point reversal."""
    if half < 1:
        raise ValueError("butterfly half-size must be at least 1")
    rows = np.arange(2 * half)
    num = np.diag(np.where(rows < half, 1, -1))
    num[rows, rows[::-1]] += 1  # the reversal never meets the diagonal of an even size
    return DyadicMatrix(num)


def perfect_shuffle(half: int) -> np.ndarray:
    """Gather index of the even-odd interleaving P of size 2N for N = half.

    ``P @ x == x[perfect_shuffle(half)]``: row 2n of P takes column n and
    row 2n + 1 takes column N + n.
    """
    if half < 1:
        raise ValueError("shuffle half-size must be at least 1")
    return np.arange(2 * half).reshape(2, half).T.ravel()


def bit_reversal(n: int) -> np.ndarray:
    """Gather index of the binary-digit reversal R; n must be a power of two.

    R is an involution, so the index is also its own scatter form.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"bit reversal needs a power-of-two size, got {n}")
    index = np.zeros(1, dtype=np.int64)
    while index.size < n:
        index = np.concatenate([2 * index, 2 * index + 1])
    return index


# -- real structural factors ----------------------------------------------


def _tril_u(n: int) -> np.ndarray:
    # lower-triangular part of the outer product u_N * [sqrt(2)/2, ones]
    u = np.ones((n, 1))
    row = np.ones((1, n))
    row[0, 0] = SQRT2_OVER_2
    return np.tril(u @ row)


def lower_mixing(n: int) -> np.ndarray:
    """A_N = J * tril(U) * J with U = ones * [sqrt(2)/2, ones^T]."""
    j = sign_diagonal(n)[1]
    # J flips signs; + 0.0 turns a flipped zero's -0 into the +0 of a matrix product
    return j[:, None] * _tril_u(n) * j + 0.0


def counter_mixing(n: int) -> np.ndarray:
    """B_N = -Ibar * tril(U) * J; first column constant -sqrt(2)/2."""
    return -_tril_u(n)[counter_identity(n)[0]] * sign_diagonal(n)[1] + 0.0


def cosine_diagonal(n: int) -> np.ndarray:
    """D_N = diag(2 cos((2n+1) pi / (4N)))."""
    idx = np.arange(n)
    return np.diag(2.0 * np.cos((2 * idx + 1) * np.pi / (4 * n)))


def signed_cosine_diagonal(n: int) -> np.ndarray:
    """G_N = J D_N = diag(2 (-1)^n cos((2n+1) pi / (4N)))."""
    return np.diag(sign_diagonal(n)[1] * np.diag(cosine_diagonal(n)))


def structural_matrix(kind: StructuralKind, n: int):
    """Generator dispatch for every structural factor.

    For PERFECT_SHUFFLE and BUTTERFLY, ``n`` is the half-size (the result is
    2n x 2n).  J/IBAR/Z, the two permutations and BUTTERFLY return
    :class:`DyadicMatrix`; A, D, B, G return float arrays.  ``n`` must be
    integral (8.0 is, 2.5 raises ValueError).
    """
    n = _integer(n)
    if n < 1:
        raise ValueError("size must be at least 1")
    if kind is StructuralKind.J:
        return gather_matrix(*sign_diagonal(n))
    if kind is StructuralKind.IBAR:
        return gather_matrix(*counter_identity(n))
    if kind is StructuralKind.Z:
        return gather_matrix(*half_leading_diagonal(n))
    if kind is StructuralKind.A:
        return lower_mixing(n)
    if kind is StructuralKind.D:
        return cosine_diagonal(n)
    if kind is StructuralKind.B:
        return counter_mixing(n)
    if kind is StructuralKind.G:
        return signed_cosine_diagonal(n)
    if kind is StructuralKind.PERFECT_SHUFFLE:
        return gather_matrix(perfect_shuffle(n))
    if kind is StructuralKind.BIT_REVERSAL:
        return gather_matrix(bit_reversal(n))
    if kind is StructuralKind.BUTTERFLY:
        return butterfly(n)
    raise ValueError(f"unknown structural kind: {kind!r}")


# -- identity registry -----------------------------------------------------


def _residual(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])


def _dst4_from_dct4(n: int) -> float:
    lhs = transform_matrix(TransformKind.DST4, n)
    rhs = (
        gather_matrix(*counter_identity(n)).to_real()
        @ transform_matrix(TransformKind.DCT4, n)
        @ gather_matrix(*sign_diagonal(n)).to_real()
    )
    return _residual(lhs, rhs)


def _dct4_counter(n: int) -> float:
    lhs = transform_matrix(TransformKind.DCT4, n) @ gather_matrix(*counter_identity(n)).to_real()
    rhs = gather_matrix(*sign_diagonal(n)).to_real() @ transform_matrix(TransformKind.DST4, n)
    return _residual(lhs, rhs)


def _dct4_from_dct2(n: int) -> float:
    lhs = transform_matrix(TransformKind.DCT4, n)
    rhs = (
        lower_mixing(n)
        @ transform_matrix(TransformKind.DCT2, n)
        @ cosine_diagonal(n)
    )
    return _residual(lhs, rhs)


def _doubling_rhs(n: int, lower_block: np.ndarray) -> np.ndarray:
    p = gather_matrix(perfect_shuffle(n)).to_real()
    mid = _block_diag(transform_matrix(TransformKind.DCT2, n), lower_block)
    return SQRT2_OVER_2 * p @ mid @ butterfly(n).to_real()


def _odd_even_exact(n: int) -> float:
    lhs = transform_matrix(TransformKind.DCT2, 2 * n)
    lower = gather_matrix(*sign_diagonal(n)).to_real() @ transform_matrix(TransformKind.DST4, n)
    return _residual(lhs, _doubling_rhs(n, lower))


def _chen_simplified(n: int) -> float:
    lhs = transform_matrix(TransformKind.DCT2, 2 * n)
    lower = transform_matrix(TransformKind.DCT4, n) @ gather_matrix(*counter_identity(n)).to_real()
    return _residual(lhs, _doubling_rhs(n, lower))


def _shuffle_bitrev(n: int) -> float:
    # P_2N = R_2N * blockdiag(R_N, R_N); exact in integer arithmetic
    lhs = gather_matrix(perfect_shuffle(n))
    rn = gather_matrix(bit_reversal(n))
    rhs = gather_matrix(bit_reversal(2 * n)) @ DyadicMatrix.block_diag(rn, rn)
    return float(np.max(np.abs(lhs.to_real() - rhs.to_real())))


def _prop1_factorization(n: int) -> float:
    lhs = transform_matrix(TransformKind.DCT2, 2 * n)
    c2 = transform_matrix(TransformKind.DCT2, n)
    p = gather_matrix(perfect_shuffle(n)).to_real()
    eye = np.eye(n)
    rhs = (
        SQRT2_OVER_2
        * p
        @ _block_diag(eye, counter_mixing(n))
        @ _block_diag(c2, c2)
        @ _block_diag(eye, signed_cosine_diagonal(n))
        @ butterfly(n).to_real()
    )
    return _residual(lhs, rhs)


_IDENTITIES = {
    "dst4-from-dct4": _dst4_from_dct4,
    "dct4-counter": _dct4_counter,
    "dct4-from-dct2": _dct4_from_dct2,
    "odd-even-exact": _odd_even_exact,
    "chen-simplified": _chen_simplified,
    "shuffle-bitrev": _shuffle_bitrev,
    "prop1-factorization": _prop1_factorization,
}

IDENTITY_NAMES: tuple[str, ...] = tuple(_IDENTITIES)


def verify_identity(name: str, n: int) -> float:
    """Max absolute entrywise residual between the two sides of an identity.

    ``n`` is the base transform order; doubling identities are checked at
    size 2n.  Unknown names raise ValueError.
    """
    try:
        fn = _IDENTITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown identity {name!r}; choose from {', '.join(IDENTITY_NAMES)}"
        ) from None
    return fn(n)
