"""Exact small-dense linear algebra shared by every other module.

Real matrices are plain float64 numpy arrays.  Low-complexity matrices are
held exactly as :class:`DyadicMatrix` (integer numerators over a common
power-of-two denominator), so Gram products, generalized-permutation checks
and shift counting never see rounding error.  A permutation has no type
of its own: it is a gather index array (``exact.perfect_shuffle``).
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Numerators beyond this many bits raise OverflowError instead of wrapping.
NUMERATOR_BITS = 62
_NUM_LIMIT = 1 << NUMERATOR_BITS

#: Default tolerance for float comparisons throughout the package.
DEFAULT_TOL = 1e-10


class DyadicRational:
    """A number of the form ``numerator / 2**shift``, kept in canonical form.

    Canonical means the numerator is odd whenever ``shift > 0`` and the
    shift is zero when the numerator is zero.  Building a value whose
    numerator needs more than 62 bits raises OverflowError.  Exact
    arithmetic lives in :class:`DyadicMatrix`; this is one entry, read out.
    """

    __slots__ = ("numerator", "shift")

    def __init__(self, numerator: int, shift: int = 0):
        # entries read from a DyadicMatrix arrive as plain ints; other input is checked
        if type(numerator) is not int or type(shift) is not int:
            numerator, shift = _integer(numerator), _integer(shift)
        if shift < 0:
            raise ValueError("shift must be non-negative")
        if numerator == 0:
            shift = 0
        else:
            while shift > 0 and numerator % 2 == 0:
                numerator //= 2
                shift -= 1
        if abs(numerator) >= _NUM_LIMIT:
            raise OverflowError(
                f"dyadic numerator {numerator} exceeds {NUMERATOR_BITS} bits"
            )
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("DyadicRational is immutable")

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """Parse ``"3"``, ``"-1/2"``, ``"5/8"`` (denominator a power of two)."""
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            num = int(num_s)
            den = int(den_s)
            if den <= 0 or den & (den - 1):
                raise ValueError(f"denominator of {text!r} is not a power of two")
            return cls(num, den.bit_length() - 1)
        return cls(int(text))

    def __float__(self) -> float:
        return self.numerator / (1 << self.shift)

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = DyadicRational(other)
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.numerator == other.numerator and self.shift == other.shift

    def __hash__(self):
        return hash((self.numerator, self.shift))

    def is_unit_magnitude(self) -> bool:
        """True when the value is +1 or -1 (applying it is free)."""
        return self.shift == 0 and abs(self.numerator) == 1

    def __repr__(self) -> str:
        return f"DyadicRational({self})"

    def __str__(self) -> str:
        return dyadic_str(self.numerator, self.shift)


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


def canonical(num: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry canonical (numerator, shift) arrays of ``num / 2**shift``.

    Each entry drops the powers of two it shares with ``2**shift``; zeros
    get shift 0.  Raises OverflowError for numerators beyond 62 bits.
    """
    num = np.asarray(num, dtype=np.int64)
    if num.size and (num.max() >= _NUM_LIMIT or num.min() <= -_NUM_LIMIT):
        raise OverflowError(f"dyadic numerator exceeds {NUMERATOR_BITS} bits")
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


def aligned_numerators(values, growth: int) -> tuple[np.ndarray, int]:
    """int64 numerators of ``values`` over one shift, checked against ``growth``.

    A :class:`DyadicMatrix` gives its own numerators and shift.  Other values,
    ints and DyadicRationals of any shape, go over their largest shift; an
    integer array converts in one numpy pass.  The largest numerator is
    checked against ``growth`` by :func:`check_growth` before the int64
    conversion, so no value wraps.  Other values raise TypeError.
    """
    if isinstance(values, DyadicMatrix):
        arr, shift = values._num, values._shift
    else:
        arr, shift = np.asarray(values), 0
    if arr.dtype.kind == "O":
        shift = max((v.shift for v in arr.flat if isinstance(v, DyadicRational)), default=0)
        arr = np.array([_aligned(v, shift) for v in arr.flat], dtype=object).reshape(arr.shape)
    elif arr.dtype.kind not in "iub":
        raise TypeError(f"exact application takes ints and DyadicRationals, got {arr.dtype}")
    check_growth(max(int(arr.max()), -int(arr.min())) if arr.size else 0, growth)
    return arr.astype(np.int64, copy=False), shift


def _aligned(v, shift: int) -> int:
    if isinstance(v, DyadicRational):
        return v.numerator << (shift - v.shift)
    if isinstance(v, (int, np.integer)):
        return int(v) << shift
    raise TypeError(f"exact application takes ints and DyadicRationals, got {type(v).__name__}")


def check_growth(peak: int, growth: int) -> None:
    """Raise OverflowError unless ``peak * growth`` stays below 2**62.

    ``peak`` bounds the input magnitudes and ``growth`` the worst-case gain
    of a product, so int64 arithmetic under this bound never wraps.
    """
    if peak * growth >= _NUM_LIMIT:
        raise OverflowError(
            f"input magnitude {peak} times worst-case growth {growth} "
            f"reaches 2**{NUMERATOR_BITS}"
        )


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


class DyadicMatrix:
    """Exact matrix or vector of dyadic rationals.

    Stored as an int64 numerator array of shape (N,) or (N, B) over one
    common shift: ``value[i, j] = num[i, j] / 2**shift``.  All arithmetic is
    exact; numerators are capped at 62 bits (OverflowError beyond that).  A
    vector also reads as a sequence: ``len``, ``v[i]`` and iteration give
    canonical DyadicRationals, built only when read, and ``v[a:b]`` a
    DyadicMatrix.
    """

    __slots__ = ("_num", "_shift")

    def __init__(self, numerators, shift: int = 0):
        num = _as_int_array(numerators)
        if num.ndim not in (1, 2):
            raise ValueError("dyadic data must be one- or two-dimensional")
        shift = _integer(shift)
        if shift < 0:
            raise ValueError("shift must be non-negative")
        # factor out the powers of two all entries share, so entry shifts
        # stay minimal: the lowest set bit of their OR, capped at ``shift``
        common = int(np.bitwise_or.reduce(num, axis=None))
        if common == 0:
            shift = 0
        else:
            drop = min((common & -common).bit_length() - 1, shift)
            if drop:
                num >>= drop
                shift -= drop
        # both ends, as np.abs(-2**63) wraps to -2**63
        if num.size and (num.max() >= _NUM_LIMIT or num.min() <= -_NUM_LIMIT):
            raise OverflowError(
                f"dyadic numerator exceeds {NUMERATOR_BITS} bits"
            )
        self._num = num
        self._shift = shift

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence]) -> "DyadicMatrix":
        """Build from nested ints, strings like ``"-1/2"``, or DyadicRationals."""
        parsed = [
            [
                e
                if isinstance(e, DyadicRational)
                else DyadicRational.parse(e)
                if isinstance(e, str)
                else DyadicRational(e)
                for e in row
            ]
            for row in rows
        ]
        shift = max((e.shift for row in parsed for e in row), default=0)
        num = [[e.numerator << (shift - e.shift) for e in row] for row in parsed]
        return cls(num, shift)

    @classmethod
    def identity(cls, n: int) -> "DyadicMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, n: int) -> "DyadicMatrix":
        return cls(np.zeros((n, n), dtype=np.int64))

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

    def entry(self, i: int, j: int) -> DyadicRational:
        return DyadicRational(int(self._num[i, j]), self._shift)

    def entries(self) -> list["DyadicMatrix"]:
        """The rows as vectors; each reads as its canonical entries."""
        return [DyadicMatrix(row, self._shift) for row in self._num]

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, key) -> "DyadicRational | DyadicMatrix":
        """``v[i]``, entry ``i`` of a vector, or ``v[a:b]``, a slice of rows."""
        if isinstance(key, slice):
            return DyadicMatrix(self._num[key], self._shift)
        if self._num.ndim != 1:
            raise TypeError("a matrix entry is read with entry(i, j)")
        return DyadicRational(int(self._num[key]), self._shift)

    def __iter__(self):
        """The entries of a vector as canonical DyadicRationals, built as read."""
        if self._num.ndim != 1:
            raise TypeError("only a vector iterates over its entries")
        nums, shifts = canonical(self._num, self._shift)
        return map(DyadicRational, nums.tolist(), shifts.tolist())

    def numerators(self) -> np.ndarray:
        """Copy of the int64 numerator array (over ``2**self.shift``)."""
        return self._num.copy()

    def to_real(self) -> np.ndarray:
        """Lossless float64 image (entries here are far below 2**53)."""
        return self._num.astype(np.float64) / float(1 << self._shift)

    def max_entry_shift(self) -> int:
        """Largest canonical per-entry shift (0 for an integer matrix)."""
        return int(canonical(self._num, self._shift)[1].max(initial=0))

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other) -> "DyadicMatrix":
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        amax = int(np.abs(self._num).max(initial=0))
        bmax = int(np.abs(other._num).max(initial=0))
        bound = amax * bmax * max(self.cols, 1)
        if bound < _NUM_LIMIT:
            prod = self._num @ other._num  # exact in int64
        else:
            prod = self._num.astype(object) @ other._num.astype(object)
            if int(max(abs(int(v)) for v in prod.flat)) >= _NUM_LIMIT:
                raise OverflowError(
                    f"dyadic numerator exceeds {NUMERATOR_BITS} bits"
                )
            prod = prod.astype(np.int64)
        return DyadicMatrix(prod, self._shift + other._shift)

    def _aligned(self, other: "DyadicMatrix"):
        shift = max(self._shift, other._shift)
        a = self._num << (shift - self._shift)
        b = other._num << (shift - other._shift)
        return a, b, shift

    def __add__(self, other) -> "DyadicMatrix":
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("dimension mismatch in matrix sum")
        a, b, shift = self._aligned(other)
        return DyadicMatrix(a + b, shift)

    def __sub__(self, other) -> "DyadicMatrix":
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("dimension mismatch in matrix difference")
        a, b, shift = self._aligned(other)
        return DyadicMatrix(a - b, shift)

    def __neg__(self) -> "DyadicMatrix":
        return DyadicMatrix(-self._num, self._shift)

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
        a, b, _ = self._aligned(other)
        return bool(np.array_equal(a, b))

    def __hash__(self):
        return hash((self.shape, self._shift, self._num.tobytes()))

    def row_norm(self) -> int:
        """Largest row-L1 norm of the numerators: the worst-case gain of ``apply``.

        Summed as Python integers, so a wide row of large numerators cannot wrap.
        """
        return int(np.abs(self._num).sum(axis=1, dtype=object).max(initial=0))

    def apply(self, x) -> "DyadicMatrix":
        """Exact matrix-vector product as a vector DyadicMatrix; ``x`` holds
        ints or DyadicRationals, or is a vector DyadicMatrix.

        The inputs are aligned to one shift and multiplied as int64; inputs
        whose worst-case product could reach 62 bits raise OverflowError.
        """
        if len(x) != self.cols:
            raise ValueError("vector length mismatch")
        vec, shift = aligned_numerators(x, self.row_norm())
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
    return float(np.sqrt(np.sum((a - b) ** 2)))


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

