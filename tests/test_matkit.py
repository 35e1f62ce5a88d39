"""Exact dyadic arithmetic and the small matrix helpers.

The dyadic types back every cost count and every bit-exact claim in the
package, so they get the heaviest randomized coverage: values are
cross-checked against Fraction and the matrix product against a Fraction
matmul.
"""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from dctscale.exact import (
    StructuralKind,
    TransformKind,
    counter_mixing,
    structural_matrix,
    transform_matrix,
)
from dctscale.matkit import (
    DyadicMatrix,
    as_real,
    canonical,
    frobenius_distance,
    is_diagonal,
    is_generalized_permutation,
)


def _entry(num: int, shift: int = 0) -> Fraction:
    """``num / 2**shift`` as read out of a vector, held over that shift by a
    second, odd entry."""
    return DyadicMatrix([num, 1], shift)[0]


# ── entries read out ───────────────────────────────────────────────────────


def test_rational_canonical_form():
    # an entry is a Fraction in lowest terms: 6/4 reads as 3/2, 8/8 as 1, and
    # zero drops its shift; ``shift`` is the base-2 log of the denominator
    assert _entry(6, 2) == Fraction(3, 2) and _entry(6, 2).shift == 1
    assert _entry(8, 3) == Fraction(1)
    z = _entry(0, 7)
    assert isinstance(z, Fraction) and z.numerator == 0 and z.shift == 0
    assert str(_entry(-1, 1)) == "-1/2"
    assert str(_entry(5)) == "5"


def test_rational_parse():
    # text is an int literal, or int/int with a power-of-two denominator
    for text, want in (("3", 3), ("+3", 3), (" 5/8 ", Fraction(5, 8)), ("-1/2", Fraction(-1, 2))):
        assert DyadicMatrix.from_entries([[text]]).entry(0, 0) == want
    for text in ("1/3", "1/0", "1/-2", "1.5", "", "3/"):
        with pytest.raises(ValueError):
            DyadicMatrix.from_entries([[text]])


def test_rational_validation():
    # the 62-bit cap is the matrix's, checked where it is built
    for big in (Fraction(1 << 62), Fraction(-(1 << 63), 2), 1 << 62):
        with pytest.raises(OverflowError):
            DyadicMatrix.from_entries([[big]])
    # largest representable magnitude is fine
    assert DyadicMatrix.from_entries([[Fraction((1 << 62) - 1)]]).entry(0, 0) == (1 << 62) - 1


def test_rational_rejects_non_integral_input():
    # a rational over any other denominator raises instead of being rounded,
    # and a float is no exact value; numpy integers are taken as their value
    with pytest.raises(ValueError, match="power of two"):
        DyadicMatrix.from_entries([[Fraction(1, 3)]])
    with pytest.raises(ValueError, match="power of two"):
        DyadicMatrix.identity(2).apply([Fraction(1, 3), 0])
    with pytest.raises(TypeError):
        DyadicMatrix.from_entries([[0.5]])
    assert DyadicMatrix.from_entries([[np.int64(6), np.int32(2)]]) == DyadicMatrix([[6, 2]])


def test_rational_immutable_and_hashable():
    d = _entry(3, 1)
    with pytest.raises(AttributeError):
        d.numerator = 5
    assert hash(_entry(3, 1)) == hash(d) == hash(Fraction(3, 2))
    assert _entry(2) == 2
    assert bool(_entry(0)) is False and bool(d) is True


def test_entries_survive_copy_and_pickle():
    # a copy, a deep copy and a pickled round trip give the same value, of
    # the same type, with its shift
    for e in (_entry(3, 1), _entry(-5), _entry(0, 4), _entry((1 << 61) - 1, 5)):
        for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert again == e and type(again) is type(e) and again.shift == e.shift


def test_entries_compute_and_compare_as_fractions():
    e = DyadicMatrix.from_entries([["-1/2"]]).entry(0, 0)
    assert e + 1 == Fraction(1, 2) and 4 * e == -2 and -e == Fraction(1, 2)
    assert e < 0 < -e and sorted([_entry(3), e, _entry(1, 2)]) == [e, Fraction(1, 4), 3]
    # and equal floats of the same value
    assert e == -0.5 and hash(e) == hash(-0.5) and e in {-0.5}


def test_rational_hash_agrees_with_equal_ints():
    # an integer value equals its int, so it hashes as that int and is found in sets
    for value in (3, -5, 0, 1, -(1 << 61)):
        d = _entry(value)
        assert d == value and hash(d) == hash(value)
        assert d in {value} and value in {d} and {value: "x"}[d] == "x"
    assert _entry(6, 1) in {3}
    half = _entry(1, 1)
    assert hash(half) == hash(_entry(2, 2)) and half not in {0, 1}


def test_rational_float_vs_fraction():
    rng = np.random.default_rng(101)
    for _ in range(300):
        num, shift = int(rng.integers(-999, 1000)), int(rng.integers(0, 7))
        assert float(_entry(num, shift)) == float(Fraction(num, 1 << shift))


# ── DyadicMatrix ───────────────────────────────────────────────────────────


def test_matrix_from_entries_mixed():
    m = DyadicMatrix.from_entries([[1, "-1/2"], [Fraction(3, 4), 0]])
    assert m.entry(0, 0) == Fraction(1)
    assert m.entry(0, 1) == Fraction(-1, 2)
    assert m.entry(1, 0) == Fraction(3, 4)
    assert m.entry(1, 1) == Fraction(0)
    assert m.shape == (2, 2)


def test_matrix_common_shift_normalization():
    # all numerators even -> the constructor divides the shift out
    m = DyadicMatrix([[2, 4], [6, 8]], 1)
    assert m.shift == 0
    assert m.entry(0, 0) == Fraction(1)
    z = DyadicMatrix([[0, 0], [0, 0]], 5)
    assert z.shift == 0


def test_matrix_constructor_validation():
    for data in (5, [[[1]]]):
        with pytest.raises(ValueError, match="one- or two-dimensional"):
            DyadicMatrix(data)
    with pytest.raises(ValueError):
        DyadicMatrix([[1]], -1)
    with pytest.raises(OverflowError):
        DyadicMatrix([[1 << 62]])
    # the int64 minimum too, which np.abs leaves negative
    for data in ([[-(1 << 63), 0]], [-(1 << 62)]):
        with pytest.raises(OverflowError):
            DyadicMatrix(data)
    assert DyadicMatrix([-(1 << 63)], 2).numerators()[0] == -(1 << 61)


def test_matrix_rejects_non_integral_input():
    # non-integral numerators or shifts raise instead of being truncated;
    # integral floats, numpy integers and bools are taken as their value
    for args in (([[0.5, 1.7]],), (np.array([[2.0, 1.5]]),), ([[1, 2]], 1.5)):
        with pytest.raises(ValueError, match="integer"):
            DyadicMatrix(*args)
    assert DyadicMatrix(np.array([[2.0, 4.0]]), 1) == DyadicMatrix([[1, 2]])
    assert DyadicMatrix(np.array([[3, -1]], dtype=np.int16), np.int64(1)) == DyadicMatrix([[3, -1]], 1)
    assert DyadicMatrix(np.array([[True, False]])) == DyadicMatrix([[1, 0]])


@pytest.mark.filterwarnings("error")
def test_matrix_rejects_non_finite_input_without_a_cast_warning():
    # NaN, infinities and floats past int64 raise before numpy's cast warns
    for bad in (np.nan, np.inf, -np.inf, 1e30, -(2.0**63)):
        with pytest.raises(ValueError, match="non-finite or out-of-range"):
            DyadicMatrix([[1.0, bad]])
    assert DyadicMatrix([[2.0**62 - 1024]]).numerators()[0, 0] == 2**62 - 1024


@pytest.mark.filterwarnings("error")
def test_matrix_rejects_complex_input():
    # a zero imaginary part is no exemption, and numpy's cast never warns
    for data in ([[1 + 0j]], np.zeros(3, complex), [[1, 2j]]):
        with pytest.raises(TypeError, match="complex"):
            DyadicMatrix(data)


def _factored_by_bits(num, shift: int) -> tuple[np.ndarray, int]:
    """The common power of two taken out one bit at a time: the reference."""
    num = np.array(num, dtype=np.int64)
    while shift > 0 and not np.any(num & 1):
        num >>= 1
        shift -= 1
    if not np.any(num):
        shift = 0
    return num, shift


def test_matrix_factors_out_the_common_power_of_two_in_one_pass():
    # random vectors and matrices sharing 0..61 trailing zero bits, with
    # zeros, negatives and entries near 2**61, against the per-bit loop
    rng = np.random.default_rng(404)
    for _ in range(300):
        shape = (int(rng.integers(1, 9)),) + (() if rng.integers(2) else (int(rng.integers(1, 5)),))
        tz = int(rng.integers(0, 62))
        num = rng.integers(-(2**61), 2**61, size=shape) >> tz << tz
        num[rng.random(shape) < 0.3] = 0
        if rng.integers(4) == 0:
            num.flat[0] = rng.choice([2**61, -(2**61), 2**61 - 2**tz])
        for shift in (0, 1, 61, 62, 70):
            m = DyadicMatrix(num, shift)
            want_num, want_shift = _factored_by_bits(num, shift)
            assert m.shift == want_shift
            assert np.array_equal(m.numerators(), want_num)
    for shift in (0, 1, 61, 62, 70):
        for zeros in (np.zeros(4, np.int64), np.zeros((3, 2), np.int64)):
            assert DyadicMatrix(zeros, shift).shift == 0


def test_matrix_identity_zeros_blockdiag():
    eye = DyadicMatrix.identity(3)
    assert eye.to_real() == pytest.approx(np.eye(3))
    assert DyadicMatrix.zeros(2).to_real() == pytest.approx(np.zeros((2, 2)))
    a = DyadicMatrix.from_entries([["1/2"]])
    b = DyadicMatrix.from_entries([[3]])
    bd = DyadicMatrix.block_diag(a, b)
    assert bd.to_real() == pytest.approx(np.array([[0.5, 0.0], [0.0, 3.0]]))


def test_matrix_matmul_vs_fraction():
    rng = np.random.default_rng(202)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        a = DyadicMatrix(rng.integers(-9, 10, size=(n, n)), int(rng.integers(0, 3)))
        b = DyadicMatrix(rng.integers(-9, 10, size=(n, n)), int(rng.integers(0, 3)))
        got = (a @ b).entries()
        fa = [[Fraction(int(v), 1 << a.shift) for v in row] for row in a.numerators()]
        fb = [[Fraction(int(v), 1 << b.shift) for v in row] for row in b.numerators()]
        for i in range(n):
            for j in range(n):
                want = sum(fa[i][k] * fb[k][j] for k in range(n))
                assert got[i][j] == want


def test_matrix_matmul_object_fallback():
    # numerators big enough to trip the conservative int64 bound while the
    # true products still fit: exercises the arbitrary-precision path
    big = (1 << 31) + 1
    a = DyadicMatrix([[big, 0], [0, 1]])
    b = DyadicMatrix([[big - 2, 0], [0, 1]])
    prod = a @ b
    assert prod.entry(0, 0) == Fraction(big * (big - 2))
    # genuine overflow raises the constructor's error, within int64 and past it
    with pytest.raises(OverflowError, match="dyadic numerator exceeds 62 bits"):
        c = DyadicMatrix([[1 << 61]])
        _ = c @ DyadicMatrix([[2]])
    with pytest.raises(OverflowError, match="dyadic numerator exceeds 62 bits"):
        _ = DyadicMatrix([[1 << 40, 1 << 40]]) @ DyadicMatrix([[1 << 40], [1 << 40]])
    # a product past 62 bits before the common-power reduction and not after
    # is legal, as DyadicMatrix([-2**63], 2) is: (2**63 - 2) / 4 = (2**62 - 1) / 2
    a = DyadicMatrix([[big, big - 2]], 1)
    prod = a @ DyadicMatrix([[big - 2], [big]], 1)
    assert (prod.numerators().tolist(), prod.shift) == ([[(1 << 62) - 1]], 1)
    # so is one past int64: x (u + v) is about 2**64, and 2**4 divides u + v
    x, u, v = (1 << 31) + 1, (1 << 33) + 7, 9
    assert x * (u + v) >= 1 << 63
    prod = DyadicMatrix([[x, x]], 2) @ DyadicMatrix([[u], [v]], 2)
    assert (prod.numerators().tolist(), prod.shift) == ([[x * (u + v) >> 4]], 0)


def test_from_entries_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        DyadicMatrix.from_entries([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        DyadicMatrix.from_entries([["1/2"], [1, 0]])


def test_matrix_add_sub_neg_transpose():
    a = DyadicMatrix.from_entries([[1, "1/2"], [0, -2]])
    b = DyadicMatrix.from_entries([["1/4", 1], [1, 1]])
    assert (a + b).entry(0, 0) == Fraction(5, 4)
    assert (a - b).entry(0, 1) == Fraction(-1, 2)
    assert (-a).entry(1, 1) == Fraction(2)
    assert a.T.entry(1, 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        _ = a + DyadicMatrix.identity(3)
    with pytest.raises(ValueError):
        _ = a @ DyadicMatrix.identity(3)


def test_matrix_round_trip_is_exact():
    # float64 image is lossless for shifts up to 30
    rng = np.random.default_rng(303)
    num = rng.integers(-(2**20), 2**20, size=(6, 6))
    m = DyadicMatrix(num, 30)
    back = m.to_real() * float(2**30)
    assert np.array_equal(back.astype(np.int64), m.numerators())


def test_matrix_apply_exact():
    m = DyadicMatrix.from_entries([[1, "-1/2"], [2, 0]])
    out = m.apply([4, Fraction(1, 2)])
    assert isinstance(out, DyadicMatrix) and out.shape == (2,)
    assert out[0] == Fraction(15, 4)  # 4 - 1/4
    assert out[1] == Fraction(8)
    # a vector DyadicMatrix goes in as well, and @ gives the same product
    x = DyadicMatrix([8, 1], 1)
    assert m.apply(x) == out == m @ x
    with pytest.raises(ValueError):
        m.apply([1, 2, 3])


def test_matrix_apply_refuses_possible_overflow():
    m = DyadicMatrix([[1, -1], [0, 3]])
    assert m.row_norm() == 3
    top = ((1 << 62) - 1) // 3
    assert m.apply([top, -top])[1] == Fraction(-3 * top)
    with pytest.raises(OverflowError):
        m.apply([top + 1, 0])
    wide = DyadicMatrix(np.full((1, 8), (1 << 61) + 1, dtype=np.int64))
    assert wide.row_norm() == 8 * ((1 << 61) + 1)
    with pytest.raises(OverflowError):
        wide.apply([1] * 8)


def test_canonical_matches_dyadic_rational():
    num = np.array([0, 1, -2, 12, -(1 << 40), (1 << 61) + 2], dtype=np.int64)
    for shift in (0, 1, 3, 62, 70):
        nums, shifts = canonical(num, shift)
        for v, n, s in zip(num.tolist(), nums.tolist(), shifts.tolist()):
            want = Fraction(v, 1 << shift)
            assert (n, 1 << s) == (want.numerator, want.denominator)
        assert list(DyadicMatrix(num, shift)) == [Fraction(v, 1 << shift) for v in num.tolist()]


def test_vector_reads_as_canonical_entries():
    # len, v[i] and iteration give each entry in its own canonical form;
    # v[a:b] stays a DyadicMatrix
    v = DyadicMatrix([0, 4, -6, 3, 8], 2)
    assert v.shift == 2 and len(v) == 5
    assert [(e.numerator, e.shift) for e in v] == [(0, 0), (1, 0), (-3, 1), (3, 2), (2, 0)]
    assert list(v) == [Fraction(n, 4) for n in (0, 4, -6, 3, 8)]
    assert v[2] == Fraction(-3, 2) and v[-1] == Fraction(2)
    assert isinstance(v[1:3], DyadicMatrix) and v[1:3] == DyadicMatrix([2, -3], 1)
    assert [str(e) for e in v[3:]] == ["3/4", "2"]
    with pytest.raises(IndexError):
        v[5]
    with pytest.raises(ValueError, match="no columns"):
        v @ v
    # a matrix reads its entries with entry(i, j) instead
    m = DyadicMatrix([[1, 2], [3, 4]])
    assert len(m) == 2 and m[1:] == DyadicMatrix([[3, 4]])
    with pytest.raises(TypeError):
        m[0]
    with pytest.raises(TypeError):
        list(m)


def test_matrix_equality_and_hash():
    a = DyadicMatrix([[1, 2], [3, 4]], 1)
    b = DyadicMatrix([[2, 4], [6, 8]], 2)
    assert a == b and hash(a) == hash(b)


# ── free helpers ───────────────────────────────────────────────────────────


def test_frobenius_distance_basics():
    assert frobenius_distance(np.eye(4), np.eye(4)) == 0.0
    assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(
        np.sqrt(2.0)
    )
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(3))


def test_frobenius_distance_triangle_inequality():
    rng = np.random.default_rng(505)
    for _ in range(50):
        a, b, c = (rng.normal(size=(5, 5)) for _ in range(3))
        ab = frobenius_distance(a, b)
        bc = frobenius_distance(b, c)
        ac = frobenius_distance(a, c)
        assert ac <= ab + bc + 1e-12


def test_is_diagonal():
    assert is_diagonal(np.diag([1.0, 2.0, 3.0]), tol=0.0)
    rdct = np.rint(2.0 * transform_matrix(TransformKind.DCT2, 8))
    assert is_diagonal(rdct @ rdct.T, tol=1e-12)
    sdct = np.sign(transform_matrix(TransformKind.DCT2, 8))
    assert not is_diagonal(sdct @ sdct.T, tol=1e-12)
    with pytest.raises(ValueError):
        is_diagonal(np.ones((2, 3)))


def test_is_generalized_permutation():
    ibar = DyadicMatrix(np.fliplr(np.eye(8, dtype=np.int64)))
    assert is_generalized_permutation(ibar)
    # -Ibar Z J: anti-diagonal times two diagonals keeps one entry per line
    z = DyadicMatrix.from_entries(
        [["1/2" if i == j == 0 else (1 if i == j else 0) for j in range(8)] for i in range(8)]
    )
    j = DyadicMatrix(np.diag((-1) ** np.arange(8)).astype(np.int64))
    assert is_generalized_permutation(-(ibar @ z @ j))
    # the exact mixing block has a dense first column
    assert not is_generalized_permutation(counter_mixing(8))
    assert is_generalized_permutation(structural_matrix(StructuralKind.PERFECT_SHUFFLE, 4))
    with pytest.raises(ValueError):
        is_generalized_permutation(np.ones((2, 3)))


def test_as_real_coercions():
    assert as_real(DyadicMatrix.identity(2)) == pytest.approx(np.eye(2))
    assert as_real([[1, 2], [3, 4]]).dtype == np.float64
