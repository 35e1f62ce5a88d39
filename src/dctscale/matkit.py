"""Exact small-dense linear algebra shared by every other module.

Real matrices are plain float64 numpy arrays.  Low-complexity matrices are
held exactly as :class:`DyadicMatrix` (integer numerators over a common
power-of-two denominator), so Gram products, generalized-permutation checks
and shift counting never see rounding error.  It is the one exact
representation: entries read out are ``fractions.Fraction`` values, and
exact input is ints and rationals over powers of two.  A permutation has
no type of its own: it is a gather index array (``exact.perfect_shuffle``).
"""
from __future__ import annotations

import numbers
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

#: Numerators beyond this many bits raise OverflowError instead of wrapping.
NUMERATOR_BITS = 62
_NUM_LIMIT = 1 << NUMERATOR_BITS
_INT64 = np.dtype(np.int64)


class _Entry(Fraction):
    """An entry read out of a :class:`DyadicMatrix`: a Fraction, and its ``shift``
    (the base-2 log of its denominator) for the benchmark's encode oracle."""

    __slots__ = ()

    @property
    def shift(self) -> int:
        return self.denominator.bit_length() - 1


def _integer(value) -> int:
    """``value`` as an int; ValueError where it is not integral (2.0 is)."""
    as_int = int(value)
    if as_int != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return as_int


def dyadic_str(numerator: int, shift: int) -> str:
    """``"p"`` or ``"p/2^s"`` text of a canonical dyadic value."""
    if shift == 0:
        return str(numerator)
    return f"{numerator}/{1 << shift}"


def _peak(arr: np.ndarray) -> int:
    """The largest magnitude in ``arr``, 0 when empty, read as Python ints at
    ``argmax`` and ``argmin``, which cost less than a ufunc reduction and make
    no temporary; it holds at -2**63, where np.abs wraps, and past int64."""
    return int(max(arr.item(arr.argmax()), -arr.item(arr.argmin()))) if arr.size else 0


def _check_bits(num: np.ndarray) -> None:
    """OverflowError where a numerator needs more than 62 bits."""
    if _peak(num) >= _NUM_LIMIT:
        raise OverflowError(f"dyadic numerator exceeds {NUMERATOR_BITS} bits")


def canonical(num: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry canonical (numerator, shift) arrays of ``num / 2**shift``.

    Each entry drops the powers of two it shares with ``2**shift``; zeros
    get shift 0.  Raises OverflowError for numerators beyond 62 bits.
    """
    num = np.asarray(num, dtype=np.int64)
    _check_bits(num)
    if shift == 0:
        return num, np.zeros_like(num)
    # the lowest set bit of num | 2**cap is 2**min(trailing zeros, cap), and
    # 2**cap for a zero; as an exact power of two frexp reads its exponent
    cap = min(shift, NUMERATOR_BITS)
    padded = num | (1 << cap)
    drop = np.frexp((padded & -padded).astype(np.float64))[1] - 1
    shifts = shift - drop
    if cap < shift:
        shifts[num == 0] = 0
    return num >> drop, shifts


def aligned_numerators(values, growth: int) -> tuple[np.ndarray, int, int]:
    """int64 numerators of ``values`` over one shift, and their peak magnitude.

    A :class:`DyadicMatrix` gives its own numerators and shift.  An int or
    bool array is taken as it is, over shift 0, and an int64 one is not
    copied.  An object array, of any shape, holds ints, ``numbers.Rational``
    values or text (:func:`_dyadic`) and goes over their largest shift.
    ``peak`` is the largest magnitude (:func:`_peak`), read before the int64
    conversion, which would wrap uint64 values at or above 2**63.
    ``growth`` bounds the worst-case gain of a product: where ``peak`` times
    ``growth`` reaches 2**62, OverflowError is raised.  Other arrays raise
    TypeError.
    """
    if isinstance(values, DyadicMatrix):
        arr, shift = values._num, values._shift
    else:
        arr, shift = np.asarray(values), 0
    if arr.dtype.kind not in "iub":
        if arr.dtype.kind != "O":
            raise TypeError(f"exact application takes ints and rationals, got {arr.dtype}")
        pairs = [_dyadic(v) for v in arr.flat]
        shift = max((s for _, s in pairs), default=0)
        arr = np.array([p << (shift - s) for p, s in pairs], dtype=object).reshape(arr.shape)
    peak = _guard(_peak(arr), growth)
    return arr if arr.dtype is _INT64 else arr.astype(np.int64), shift, peak


def _guard(peak: int, growth: int) -> int:
    """``peak``; OverflowError where it times ``growth`` reaches 2**62."""
    if peak * growth >= _NUM_LIMIT:
        raise OverflowError(
            f"input magnitude {peak} times worst-case growth {growth} reaches 2**{NUMERATOR_BITS}"
        )
    return peak


def _dyadic(value) -> tuple[int, int]:
    """``(p, s)`` with ``value == p / 2**s``, for an int or other rational, or
    for text: an int literal, or two joined by ``/``.  ValueError where the
    denominator is not a positive power of two, TypeError for other values."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        num, den = int(num), int(den) if slash else 1
    elif isinstance(value, numbers.Rational):
        num, den = int(value.numerator), int(value.denominator)
    else:
        raise TypeError(f"exact application takes ints and rationals, got {type(value).__name__}")
    if den <= 0 or den & (den - 1):
        raise ValueError(f"denominator of {value!r} is not a power of two")
    return num, den.bit_length() - 1


def _as_int_array(values) -> np.ndarray:
    """A fresh int64 copy of ``values``; ValueError where one is not integral.

    Integer and bool arrays are copied in one pass; other input, such as
    floats (2.0 is integral), is compared with its int64 image; floats
    without one (NaN, infinities, |x| >= 2**63) raise before the cast.
    Complex input raises TypeError, even with a zero imaginary part.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise TypeError("expected integers, got complex input")
    if arr.dtype.kind == "f" and not np.all(np.abs(arr) < 2.0**63):
        raise ValueError("expected integers, got a non-finite or out-of-range value")
    ints = arr.astype(np.int64)
    if arr.dtype.kind not in "iub" and not np.array_equal(ints, arr):
        raise ValueError("expected integers, got a value with a fractional part")
    return ints


def _reduce_common(num: np.ndarray, shift: int) -> int:
    """Divide ``num`` in place by the powers of two all its entries share, up
    to ``2**shift``, and return the shift left; with shift 0 none can go."""
    common = int(np.bitwise_or.reduce(num, axis=None)) if shift else 0
    if not common:
        return 0
    drop = min((common & -common).bit_length() - 1, shift)  # the lowest set bit
    if drop:
        num >>= drop
    return shift - drop


class DyadicMatrix:
    """Exact matrix or vector of dyadic rationals.

    Stored as an int64 numerator array of shape (N,) or (N, B) over one
    common shift: ``value[i, j] = num[i, j] / 2**shift``.  All arithmetic is
    exact; numerators are capped at 62 bits (OverflowError beyond that).  A
    vector also reads as a sequence: ``len``, ``v[i]`` and iteration give
    its entries as Fractions, built only when read, and ``v[a:b]`` a
    DyadicMatrix.  The constructor copies and checks its input; a plan's
    exact result is adopted as it comes (:meth:`_owning`), since the plan's
    ``growth`` has already bounded it below 2**62.
    """

    __slots__ = ("_num", "_shift")

    def __init__(self, numerators, shift: int = 0):
        num = _as_int_array(numerators)
        if num.ndim not in (1, 2):
            raise ValueError("dyadic data must be one- or two-dimensional")
        shift = _integer(shift)
        if shift < 0:
            raise ValueError("shift must be non-negative")
        self._num, self._shift = num, _reduce_common(num, shift)
        _check_bits(num)  # after the reduction: DyadicMatrix([-2**63], 2) is legal

    @classmethod
    def _owning(cls, num: np.ndarray, shift: int) -> "DyadicMatrix":
        """Adopt ``num``, a fresh (N,) or (N, B) int64 array known to lie below 2**62."""
        self = object.__new__(cls)
        self._num, self._shift = num, _reduce_common(num, shift)
        return self

    @classmethod
    def _from_ints(cls, num: np.ndarray, shift: int) -> "DyadicMatrix":
        """``num / 2**shift`` for ``num``, an object array of Python ints of any
        size: reduced and checked as the constructor does, before the int64
        conversion, so a result past 62 bits raises OverflowError."""
        shift = _reduce_common(num, shift)
        _check_bits(num)
        return cls(num.astype(np.int64), shift)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence]) -> "DyadicMatrix":
        """Build from rows of ints, Fractions and other rationals, or text
        such as ``"3"`` and ``"-1/2"``, over their largest shift; each
        denominator must be a power of two (:func:`_dyadic`)."""
        rows = [list(row) for row in rows]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("ragged rows: every row needs the same number of entries")
        num, shift, _ = aligned_numerators(np.array(rows, dtype=object), 1)
        return cls(num, shift)

    @classmethod
    def block_diag(cls, a: "DyadicMatrix", b: "DyadicMatrix") -> "DyadicMatrix":
        shift = max(a._shift, b._shift)
        out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.int64)
        out[: a.rows, : a.cols] = a._num << (shift - a._shift)
        out[a.rows :, a.cols :] = b._num << (shift - b._shift)
        return cls(out, shift)

    # -- shape / access -----------------------------------------------

    @property
    def rows(self) -> int:
        return self._num.shape[0]

    @property
    def cols(self) -> int:
        if self._num.ndim != 2:
            raise ValueError("a vector has no columns")
        return self._num.shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self._num.shape

    @property
    def shift(self) -> int:
        """Common denominator exponent of the internal representation."""
        return self._shift

    def entry(self, i: int, j: int) -> Fraction:
        return _Entry(int(self._num[i, j]), 1 << self._shift)

    def entries(self) -> list["DyadicMatrix"]:
        """The rows as vectors; each reads as its entries."""
        return [DyadicMatrix(row, self._shift) for row in self._num]

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, key) -> "Fraction | DyadicMatrix":
        """``v[i]``, entry ``i`` of a vector, or ``v[a:b]``, a slice of rows."""
        if isinstance(key, slice):
            return DyadicMatrix(self._num[key], self._shift)
        if self._num.ndim != 1:
            raise TypeError("a matrix entry is read with entry(i, j)")
        return _Entry(int(self._num[key]), 1 << self._shift)

    def __iter__(self):
        """The entries of a vector as Fractions, built as read."""
        if self._num.ndim != 1:
            raise TypeError("only a vector iterates over its entries")
        den = 1 << self._shift
        return (_Entry(num, den) for num in self._num.tolist())

    def numerators(self) -> np.ndarray:
        """Copy of the int64 numerator array (over ``2**self.shift``)."""
        return self._num.copy()

    def to_real(self) -> np.ndarray:
        """float64 image, exact at each entry whose numerator is below 2**53."""
        out = self._num.astype(np.float64)
        out /= float(1 << self._shift)
        return out

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other) -> "DyadicMatrix":
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        amax = int(np.abs(self._num).max(initial=0))
        bmax = int(np.abs(other._num).max(initial=0))
        bound = amax * bmax * max(self.cols, 1)
        shift = self._shift + other._shift
        if bound < _NUM_LIMIT:
            return DyadicMatrix(self._num @ other._num, shift)  # exact in int64
        return DyadicMatrix._from_ints(self._num.astype(object) @ other._num.astype(object), shift)

    def transpose(self) -> "DyadicMatrix":
        return DyadicMatrix(self._num.T, self._shift)

    @property
    def T(self) -> "DyadicMatrix":
        return self.transpose()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        shift = max(self._shift, other._shift)
        a = self._num << (shift - self._shift)
        return bool(np.array_equal(a, other._num << (shift - other._shift)))

    def __hash__(self):
        return hash((self.shape, self._shift, self._num.tobytes()))

    def row_norm(self) -> int:
        """Largest row-L1 norm of the numerators: the worst-case gain of ``apply``.

        Summed as Python integers, so a wide row of large numerators cannot wrap.
        """
        return int(np.abs(self._num).sum(axis=1, dtype=object).max(initial=0))

    def apply(self, x) -> "DyadicMatrix":
        """Exact matrix-vector product as a vector DyadicMatrix; ``x`` holds
        ints or rationals over powers of two, or is a vector DyadicMatrix.

        The inputs are aligned to one shift and multiplied as int64; inputs
        whose worst-case product could reach 62 bits raise OverflowError.
        """
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        vec, shift, _ = aligned_numerators(x, self.row_norm())
        return DyadicMatrix(self._num @ vec, self._shift + shift)

    def __repr__(self) -> str:
        return f"DyadicMatrix({self._num.tolist()}, shift={self._shift})"


# -- free functions -----------------------------------------------------


def as_real(m) -> np.ndarray:
    """Coerce DyadicMatrix / array-like to a float64 array."""
    if isinstance(m, DyadicMatrix):
        return m.to_real()
    return np.asarray(m, dtype=np.float64)


def frobenius_distance(a, b) -> float:
    """sqrt of the summed squared entrywise differences of two matrices."""
    a = as_real(a)
    b = as_real(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _frobenius(a - b)


def _frobenius(diff: np.ndarray) -> float:
    """sqrt of the summed squares of ``diff``, a float array that it squares in place."""
    return float(np.sqrt(np.square(diff, out=diff).sum()))


def is_diagonal(m, tol: float = 0.0) -> bool:
    """True when every off-diagonal magnitude is at most ``tol``."""
    m = as_real(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("is_diagonal expects a square matrix")
    off = m - np.diag(np.diag(m))
    return bool(np.max(np.abs(off)) <= tol)


def is_generalized_permutation(m) -> bool:
    """True when the matrix has exactly one nonzero entry per row and column.

    Dyadic matrices are tested exactly; float matrices use exact-zero
    structure (the matrices this is asked about have structural zeros).
    """
    if isinstance(m, DyadicMatrix):
        pattern = m.numerators() != 0
    else:
        pattern = np.asarray(m, dtype=np.float64) != 0.0
    if pattern.shape[0] != pattern.shape[1]:
        raise ValueError("is_generalized_permutation expects a square matrix")
    return bool(
        np.all(pattern.sum(axis=0) == 1) and np.all(pattern.sum(axis=1) == 1)
    )

