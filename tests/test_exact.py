"""Exact transform generators, structural factors, and the identity registry.

Checks the closed forms at tiny sizes, orthonormality across the full size
range, and every registered identity at the power-of-two sizes the rest of
the package relies on.
"""
from __future__ import annotations

import numpy as np
import pytest

from dctscale.exact import (
    IDENTITY_NAMES,
    SQRT2_OVER_2,
    StructuralKind,
    TransformKind,
    bit_reversal,
    butterfly,
    cosine_diagonal,
    counter_mixing,
    lower_mixing,
    perfect_shuffle,
    signed_cosine_diagonal,
    structural_matrix,
    transform_matrix,
    verify_identity,
)
from dctscale.fastpath import Factor
from dctscale.matkit import DyadicMatrix, as_real

SQRT2 = np.sqrt(2.0)


# ── transform matrices ─────────────────────────────────────────────────────


def test_dct2_closed_forms():
    assert transform_matrix(TransformKind.DCT2, 1) == pytest.approx(np.array([[1.0]]))
    c2 = transform_matrix(TransformKind.DCT2, 2)
    want = np.array([[1, 1], [1, -1]]) / SQRT2
    assert c2 == pytest.approx(want, abs=1e-15)


def test_transforms_are_orthonormal():
    for kind in TransformKind:
        for n in (1, 2, 3, 5, 8, 16, 32, 64):
            m = transform_matrix(kind, n)
            assert np.max(np.abs(m @ m.T - np.eye(n))) < 1e-12, (kind, n)


def test_dst4_from_dct4_relation():
    s4 = transform_matrix(TransformKind.DST4, 8)
    rhs = (
        structural_matrix(StructuralKind.IBAR, 8).to_real()
        @ transform_matrix(TransformKind.DCT4, 8)
        @ structural_matrix(StructuralKind.J, 8).to_real()
    )
    assert np.max(np.abs(s4 - rhs)) < 1e-12


def test_transform_matrix_is_shared_and_read_only():
    for kind in TransformKind:
        m = transform_matrix(kind, 8)
        want = m.copy()
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            m *= 2.0
        again = transform_matrix(kind, 8)
        assert again is m and np.array_equal(again, want)


def test_transform_size_validation():
    with pytest.raises(ValueError):
        transform_matrix(TransformKind.DCT2, 0)


def test_transform_size_must_be_integral():
    # a fractional size must not build a rounded-up matrix far from
    # orthonormal; an integral float is its int, down to the cached matrix
    for kind in TransformKind:
        with pytest.raises(ValueError, match="integer"):
            transform_matrix(kind, 8.5)
        assert transform_matrix(kind, 8.0) is transform_matrix(kind, 8)
    # a structural factor of fractional size is refused, not cut to 3x3
    for kind in StructuralKind:
        with pytest.raises(ValueError, match="integer"):
            structural_matrix(kind, 2.5)
        assert np.array_equal(as_real(structural_matrix(kind, 8.0)), as_real(structural_matrix(kind, 8)))


# ── structural factors ─────────────────────────────────────────────────────


def test_sign_diagonal_and_counter_identity():
    j = structural_matrix(StructuralKind.J, 4)
    assert j.to_real() == pytest.approx(np.diag([1.0, -1.0, 1.0, -1.0]))
    ibar = structural_matrix(StructuralKind.IBAR, 3)
    assert ibar.to_real() == pytest.approx(np.fliplr(np.eye(3)))


def test_half_leading_diagonal():
    z = structural_matrix(StructuralKind.Z, 4)
    assert z.to_real() == pytest.approx(np.diag([0.5, 1.0, 1.0, 1.0]))
    assert z.entry(0, 0).shift == 1


def test_butterfly_matrix_and_action():
    bf = butterfly(2)
    want = np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]
    )
    assert bf.to_real() == pytest.approx(want)
    assert bf.to_real() @ np.array([1, 2, 3, 4]) == pytest.approx([5, 5, -1, -3])
    # Bf Bf^T = 2I exactly
    n = 4
    assert (butterfly(n) @ butterfly(n).T) == DyadicMatrix(
        2 * np.eye(2 * n, dtype=np.int64)
    )
    with pytest.raises(ValueError):
        butterfly(0)


def test_perfect_shuffle_index():
    # a gather index: P @ x == x[index] interleaves the two halves of x
    x = np.arange(8)
    assert x[perfect_shuffle(4)].tolist() == [0, 4, 1, 5, 2, 6, 3, 7]
    assert perfect_shuffle(1).tolist() == [0, 1]
    assert perfect_shuffle(2).tolist() == [0, 2, 1, 3]
    for half in (1, 3, 8, 100):
        p = perfect_shuffle(half)
        assert p.shape == (2 * half,) and p.dtype.kind == "i"
        assert np.array_equal(np.sort(p), np.arange(2 * half))
        assert np.array_equal(p[0::2], np.arange(half))
        assert np.array_equal(p[1::2], half + np.arange(half))
    with pytest.raises(ValueError):
        perfect_shuffle(0)


def test_bit_reversal():
    assert bit_reversal(1).tolist() == [0]
    assert bit_reversal(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    for bits in range(11):
        r = bit_reversal(1 << bits)
        assert r.dtype.kind == "i"
        assert np.array_equal(r[r], np.arange(1 << bits))  # involution
        if bits:
            want = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
            assert r.tolist() == want
    with pytest.raises(ValueError):
        bit_reversal(7)
    with pytest.raises(ValueError):
        bit_reversal(0)


def test_shuffle_is_bit_reversals_on_indices():
    # P_2N = R_2N bd(R_N, R_N); for gathers, (A B) x = x[b[a]]
    for bits in range(10):
        n = 1 << bits
        rn = bit_reversal(n)
        assert np.array_equal(
            np.concatenate([rn, n + rn])[bit_reversal(2 * n)], perfect_shuffle(n)
        )


def test_counter_mixing_small_values():
    b2 = counter_mixing(2)
    want = np.array([[-SQRT2_OVER_2, 1.0], [-SQRT2_OVER_2, 0.0]])
    assert b2 == pytest.approx(want, abs=1e-15)
    assert counter_mixing(1) == pytest.approx(np.array([[-SQRT2_OVER_2]]))


def test_counter_mixing_first_column_constant():
    for n in (2, 4, 8, 16):
        b = counter_mixing(n)
        assert b[:, 0] == pytest.approx(np.full(n, -SQRT2_OVER_2))


def test_signed_cosine_diagonal_values():
    assert signed_cosine_diagonal(1) == pytest.approx(np.array([[SQRT2]]))
    for n in (2, 4, 8):
        g = signed_cosine_diagonal(n)
        idx = np.arange(n)
        want = 2.0 * (-1.0) ** idx * np.cos((2 * idx + 1) * np.pi / (4 * n))
        assert np.diag(g) == pytest.approx(want)
        mags = np.abs(np.diag(g))
        assert np.all(mags > 0.0) and np.all(mags < 2.0)
        assert np.count_nonzero(g - np.diag(np.diag(g))) == 0


def test_cosine_and_lower_mixing_relation():
    # A and B share the same triangular core: B = -Ibar J A (since J J = I)
    n = 8
    a = lower_mixing(n)
    b = counter_mixing(n)
    j = structural_matrix(StructuralKind.J, n).to_real()
    ibar = structural_matrix(StructuralKind.IBAR, n).to_real()
    assert b == pytest.approx(-ibar @ j @ a, abs=1e-15)
    d = cosine_diagonal(n)
    assert np.diag(d) == pytest.approx(
        2.0 * np.cos((2 * np.arange(n) + 1) * np.pi / (4 * n))
    )


def test_gather_expansions_match_closed_forms():
    for n in range(1, 34):
        k = np.arange(n)
        z = np.eye(n)
        z[0, 0] = 0.5
        for kind, want in (
            (StructuralKind.J, np.diag((-1.0) ** k)),
            (StructuralKind.IBAR, np.fliplr(np.eye(n))),
            (StructuralKind.Z, z),
        ):
            assert np.array_equal(structural_matrix(kind, n).to_real(), want), (kind, n)


def test_mixing_blocks_match_float_products_byte_for_byte():
    # J and Ibar are applied as flips; the bytes, down to the sign of every
    # zero, are those of the float matrix products A = J L J and B = -Ibar L J
    for n in range(1, 65):
        row = np.ones(n)
        row[0] = SQRT2_OVER_2
        tril_u = np.tril(np.ones((n, 1)) * row)
        j = structural_matrix(StructuralKind.J, n).to_real()
        ibar = structural_matrix(StructuralKind.IBAR, n).to_real()
        assert lower_mixing(n).tobytes() == (j @ tril_u @ j).tobytes(), n
        assert counter_mixing(n).tobytes() == (-ibar @ tril_u @ j).tobytes(), n


def test_structural_matrix_dispatch_types():
    assert isinstance(structural_matrix(StructuralKind.J, 4), DyadicMatrix)
    assert isinstance(structural_matrix(StructuralKind.IBAR, 4), DyadicMatrix)
    assert isinstance(structural_matrix(StructuralKind.Z, 4), DyadicMatrix)
    assert isinstance(structural_matrix(StructuralKind.BUTTERFLY, 4), DyadicMatrix)
    assert isinstance(structural_matrix(StructuralKind.PERFECT_SHUFFLE, 4), DyadicMatrix)
    assert isinstance(structural_matrix(StructuralKind.BIT_REVERSAL, 4), DyadicMatrix)
    for kind in (StructuralKind.A, StructuralKind.B, StructuralKind.D, StructuralKind.G):
        assert isinstance(structural_matrix(kind, 4), np.ndarray)
    with pytest.raises(ValueError):
        structural_matrix(StructuralKind.J, 0)


def test_permutation_matrices_are_their_gathers():
    for n in (1, 2, 4, 16):
        for m, index in (
            (structural_matrix(StructuralKind.PERFECT_SHUFFLE, n), perfect_shuffle(n)),
            (structural_matrix(StructuralKind.BIT_REVERSAL, 2 * n), bit_reversal(2 * n)),
        ):
            x = np.arange(2 * n) ** 2
            assert Factor.gather(index).dyadic() == m
            assert np.array_equal(m.numerators() @ x, x[index])
            assert m @ m.T == DyadicMatrix.identity(2 * n)


# ── identity registry ───────────────────────────────────────────────────────


def test_identity_names_are_exhaustive():
    assert IDENTITY_NAMES == (
        "dst4-from-dct4",
        "dct4-counter",
        "dct4-from-dct2",
        "odd-even-exact",
        "chen-simplified",
        "shuffle-bitrev",
        "prop1-factorization",
    )


@pytest.mark.parametrize("name", IDENTITY_NAMES)
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_identities_verify(name, n):
    assert verify_identity(name, n) <= 1e-10


def test_identity_spot_values():
    assert verify_identity("prop1-factorization", 8) <= 1e-12
    assert verify_identity("chen-simplified", 16) <= 1e-12
    assert verify_identity("shuffle-bitrev", 8) == 0.0  # integer arithmetic


def test_identity_unknown_name():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("nope", 8)


def test_dct4_counter_to_doubling_block():
    # C4 Ibar = B C2 G: the bridge between the two doubling forms
    for n in (2, 4, 8, 16):
        ibar = structural_matrix(StructuralKind.IBAR, n).to_real()
        lhs = transform_matrix(TransformKind.DCT4, n) @ ibar
        rhs = (
            counter_mixing(n)
            @ transform_matrix(TransformKind.DCT2, n)
            @ signed_cosine_diagonal(n)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12
