"""Factored transforms: cost accounting and the exact application path.

The cost model is checked against the published operation counts for the
doubled 8-point approximations (adds = 2A + 2N per doubling, shifts = 2S),
the gather cost against the dense count of its matrix, the ``describe()``
tree by rebuilding the transform from it, and the integer path
bit-exactly against the dense product, including hypothesis properties
of the compiled plan up to N = 256.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dctscale import catalog, matkit
from dctscale.exact import (
    StructuralKind,
    butterfly,
    perfect_shuffle,
    structural_matrix,
)
from dctscale.fastpath import (
    Factor,
    FactoredTransform,
    FactorKind,
    Plan,
    _Butterfly,
    _Dense,
    _Gather,
    _Layout,
    _pair_order,
    apply,
    compose,
    count_dense_dyadic,
    to_json,
)
from dctscale.matkit import DyadicMatrix
from dctscale.scaler import DYADIC_METHOD_IDS, scale, scale_to

RDCT = catalog.load("rdct")
SDCT = catalog.load("sdct")


def _floats(values):
    return np.array([float(v) for v in values])


# ── naive dense cost ───────────────────────────────────────────────────────


def test_count_dense_dyadic():
    assert count_dense_dyadic(DyadicMatrix.identity(8)) == (0, 0)
    assert count_dense_dyadic(structural_matrix(StructuralKind.J, 8)) == (0, 0)
    # one 1/2-magnitude entry -> a single shift, no adds
    mix = -(
        structural_matrix(StructuralKind.IBAR, 8)
        @ structural_matrix(StructuralKind.Z, 8)
        @ structural_matrix(StructuralKind.J, 8)
    )
    assert count_dense_dyadic(mix) == (0, 1)
    # dense butterfly: two nonzeros per row -> one add each, all unit entries
    assert count_dense_dyadic(butterfly(4)) == (8, 0)
    assert count_dense_dyadic(DyadicMatrix.zeros(3)) == (0, 0)
    assert count_dense_dyadic(RDCT.matrix) == (40, 0)


def _count_per_entry(m: DyadicMatrix) -> tuple[int, int]:
    """The cost rule applied entry by entry, as Fractions."""
    adds = shifts = 0
    for row in m.entries():
        nonzero = [e for e in row if e]
        adds += max(len(nonzero) - 1, 0)
        shifts += sum(1 for e in nonzero if e not in (1, -1))
    return adds, shifts


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    rows=st.integers(1, 128),
    cols=st.integers(1, 128),
    shift=st.sampled_from((0, 1, 2, 5, 61, 62, 70)),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_dense_dyadic_matches_per_entry_rule(rows, cols, shift, seed):
    # zeros, units, +-2, +-1/2 and other values, over shifts up to past
    # 62 bits, where no numerator can be a unit any more
    rng = np.random.default_rng(seed)
    unit = 1 << min(shift, 61)
    values = np.array([0, 0, unit, -unit, 3, -7], dtype=np.int64)
    if shift:
        values = np.append(values, [unit // 2, -(unit // 2)])
    if shift < 61:
        values = np.append(values, [2 * unit, -2 * unit])
    m = DyadicMatrix(rng.choice(values, size=(rows, cols)), shift)
    assert count_dense_dyadic(m) == _count_per_entry(m)


def test_count_dense_dyadic_on_scaled_matrices():
    for approx_id, method in (("abdct", "VII"), ("bas2", "III"), ("sdct", "JAM")):
        m = scale_to(catalog.load(approx_id).matrix, 128, method).dyadic
        assert count_dense_dyadic(m) == _count_per_entry(m)


# ── factor constructors and validation ─────────────────────────────────────


def test_factor_validation():
    leaf = FactoredTransform(8, (Factor.leaf(RDCT.matrix),))
    with pytest.raises(ValueError, match="square"):
        Factor.leaf(DyadicMatrix(np.zeros((2, 3), dtype=np.int64)))
    with pytest.raises(ValueError, match="no columns"):
        Factor.leaf(DyadicMatrix(np.zeros(4, dtype=np.int64)))
    for index in ([0, 2], [-1, 0], [[0]]):
        with pytest.raises(ValueError, match="gather index"):
            Factor.gather(index)
    with pytest.raises(ValueError, match="one multiplier per output"):
        Factor.gather([1, 0], [1, 1, 1])
    with pytest.raises(ValueError, match="gather shift"):
        Factor.gather([0], [1], 62)
    with pytest.raises(ValueError, match="butterfly size"):
        Factor.butterfly(3)
    with pytest.raises(ValueError, match="butterfly size"):
        Factor.butterfly(0)
    with pytest.raises(ValueError, match="at least one block"):
        Factor.block_diag(leaf, 0)
    # fractional sizes are refused; integral floats are taken as their int
    with pytest.raises(ValueError, match="integer"):
        Factor.block_diag(leaf, 1.5)
    with pytest.raises(ValueError, match="integer"):
        Factor.butterfly(4.5)
    assert Factor.block_diag(leaf, 2.0) == Factor.block_diag(leaf, 2)
    assert Factor.butterfly(4.0) == Factor.butterfly(4)
    assert apply(FactoredTransform(4, (Factor.butterfly(4.0),)), [1, 2, 3, 4]) == DyadicMatrix([5, 5, -1, -3])


def test_gather_rejects_non_integral_input():
    # a fractional index or multiplier raises instead of being truncated into
    # a zero row or another position; integral floats are taken as their value
    for args in (([0, 1], [0.5, 1]), ([0.7, 1.2],), (np.array([1.0, 0.5]),)):
        with pytest.raises(ValueError, match="integers"):
            Factor.gather(*args)
    g = Factor.gather(np.array([1.0, 0.0]), [2.0, -1])
    assert g.dyadic() == DyadicMatrix([[0, 2], [-1, 0]])
    with pytest.raises(ValueError, match="integer"):
        Factor.gather([1, 0], [1, 1], 1.5)
    assert Factor.gather([1, 0], [2, 1], 1.0).cost() == (0, 1)


@pytest.mark.filterwarnings("error")
def test_gather_rejects_non_finite_input_without_a_cast_warning():
    for bad in (np.nan, np.inf, -np.inf, 1e30):
        with pytest.raises(ValueError, match="non-finite or out-of-range"):
            Factor.gather([bad, 0])
        with pytest.raises(ValueError, match="non-finite or out-of-range"):
            Factor.gather([1, 0], [bad, 1])


@pytest.mark.filterwarnings("error")
def test_gather_rejects_complex_input():
    # as apply does: a zero imaginary part is no exemption
    for args in (([1 + 0j, 0j],), ([1, 0], [1 + 0j, 1])):
        with pytest.raises(TypeError, match="complex"):
            Factor.gather(*args)


def test_factor_costs():
    assert Factor.gather(perfect_shuffle(4)).cost() == (0, 0)
    assert Factor.butterfly(16).cost() == (16, 0)
    assert Factor.gather([0, 1], [2, 1]).cost() == (0, 1)
    assert Factor.gather([0, 1], [4, 1], 1).cost() == (0, 2)
    assert Factor.gather([1, 0], [-2, 0], 1).cost() == (0, 0)
    assert Factor.gather([1, 0], [-2, 0], 1, declared_cost=(0, 3)).cost() == (0, 3)
    assert Factor.leaf(RDCT.matrix).cost() == (40, 0)
    assert Factor.leaf(RDCT.matrix, declared_cost=(22, 0)).cost() == (22, 0)
    leaf = FactoredTransform(8, (Factor.leaf(RDCT.matrix, (22, 0)),))
    assert Factor.block_diag(leaf, 4).cost() == (88, 0)


def test_factor_dyadic_views():
    assert Factor.butterfly(4).dyadic() == butterfly(2)
    p = structural_matrix(StructuralKind.PERFECT_SHUFFLE, 4)
    assert Factor.gather(perfect_shuffle(4)).dyadic() == p
    # -Ibar Z J: reversed rows, alternating signs, the last one halved
    rows = np.arange(8)
    mult = -2 * (-1) ** rows[::-1]
    mult[-1] //= 2
    mix = -(
        structural_matrix(StructuralKind.IBAR, 8)
        @ structural_matrix(StructuralKind.Z, 8)
        @ structural_matrix(StructuralKind.J, 8)
    )
    assert Factor.gather(rows[::-1], mult, 1).dyadic() == mix
    leaf = FactoredTransform(8, (Factor.leaf(RDCT.matrix),))
    stacked = Factor.block_diag(leaf, 2)
    assert stacked.size == 16
    assert stacked.dyadic() == DyadicMatrix.block_diag(RDCT.matrix, RDCT.matrix)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 64), shift=st.integers(0, 6), data=st.data())
def test_gather_cost_matches_dense_count(n, shift, data):
    # identity and other index vectors, +-2**shift units, halves and other
    # multipliers, zeros, shift 0 included
    unit = 1 << shift
    values = [unit, -unit, 2 * unit, -2 * unit, 3, -5, 0]
    if shift:
        values += [unit // 2, -(unit // 2), 1, -1]
    index = data.draw(
        st.one_of(
            st.just(list(range(n))),
            st.permutations(range(n)),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        )
    )
    mult = data.draw(st.none() | st.lists(st.sampled_from(values), min_size=n, max_size=n))
    g = Factor.gather(index, mult, shift)
    assert g.cost() == count_dense_dyadic(g.dyadic())


def test_factor_apply_butterfly():
    f = Factor.butterfly(4)
    out = f.apply_exact([Fraction(v) for v in (1, 2, 3, 4)])
    assert _floats(out).tolist() == [5.0, 5.0, -1.0, -3.0]
    assert f.apply_real(np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [
        5.0,
        5.0,
        -1.0,
        -3.0,
    ]


def test_factor_apply_permutation_matches_matrix():
    p = structural_matrix(StructuralKind.PERFECT_SHUFFLE, 4)
    f = Factor.gather(perfect_shuffle(4))
    x = np.arange(8.0)
    assert f.apply_real(x) == pytest.approx(p.to_real() @ x)
    exact = f.apply_exact([Fraction(int(v)) for v in range(8)])
    assert _floats(exact) == pytest.approx(p.to_real() @ x)


# ── factored transforms ────────────────────────────────────────────────────


def test_factored_transform_size_check():
    with pytest.raises(ValueError, match="factor of size 2"):
        FactoredTransform(4, (Factor.butterfly(2),))


def test_identical_blocks_are_costed_once(monkeypatch):
    # seven doublings by VII: each level's transform is costed once, rather
    # than once per copy of it in the level above
    ft = scale_to(catalog.load("bas2").matrix, 1024, "VII", base_cost=(18, 2)).factored
    costed = []
    real_cost = FactoredTransform.cost

    def counting(self):
        costed.append(self.size)
        return real_cost(self)

    monkeypatch.setattr(FactoredTransform, "cost", counting)
    assert ft.cost() == (128 * 18 + 7 * 1024, 128 * 2)
    assert sorted(costed) == [8 << k for k in range(8)]


def test_scale_to_builds_one_matrix_per_level(monkeypatch):
    # the gather stages are O(N) arrays: scaling and costing build one
    # dense matrix per level, the doubled transform itself
    seed = catalog.load("abdct").matrix
    built = []
    real_init = DyadicMatrix.__init__

    def recording(self, numerators, shift=0):
        real_init(self, numerators, shift)
        built.append(self.rows)

    monkeypatch.setattr(DyadicMatrix, "__init__", recording)
    scale_to(seed, 256, ("III", "VI", "JAM", "VII", "II"), base_cost=(24, 6)).factored.cost()
    assert built == [16, 32, 64, 128, 256]


def test_declared_base_overrides_naive_cost():
    naive = FactoredTransform(8, (Factor.leaf(RDCT.matrix),))
    assert naive.cost() == (40, 0)
    leaf = FactoredTransform(8, (Factor.leaf(RDCT.matrix, declared_cost=(22, 0)),))
    assert leaf.cost() == (22, 0)
    # the base cost given to scale is declared on the seed's leaf
    assert scale(RDCT.matrix, "JAM", base_cost=(22, 0)).factored.factors[2].payload == leaf


@pytest.mark.parametrize(
    "approx_id,method,expected",
    [
        ("rdct", "JAM", (60, 0)),
        ("abdct", "JAM", (64, 12)),
        ("bas2", "VI", (52, 4)),
        ("mrdct", "VII", (44, 0)),
    ],
)
def test_doubling_cost_oracles(approx_id, method, expected):
    entry = catalog.load(approx_id)
    base = (entry.baseline_adds, entry.baseline_shifts)
    st = scale(entry.matrix, method, base_cost=base)
    assert st.factored.cost() == expected


def test_cost_recurrence():
    # one doubling: adds -> 2A + 2N, shifts -> 2S, for every dyadic method
    entry = catalog.load("lodct")
    base = (entry.baseline_adds, entry.baseline_shifts)
    st16 = scale(entry.matrix, "V", base_cost=base)
    a16, s16 = st16.factored.cost()
    assert (a16, s16) == (2 * base[0] + 16, 2 * base[1])
    st32 = scale(st16.factored, "V")
    assert st32.factored.cost() == (2 * a16 + 32, 2 * s16)
    st64 = scale_to(entry.matrix, 64, "V", base_cost=base)
    assert st64.factored.cost() == (2 * (2 * a16 + 32) + 64, 4 * s16)


def test_column_extraction():
    st = scale(RDCT.matrix, "JAM")
    ft = st.factored
    for col in (0, 7, 15):
        e = [0] * 16
        e[col] = 1
        out = apply(ft, e)
        assert _floats(out) == pytest.approx(ft.dense()[:, col], abs=0)


def test_apply_integer_path_is_bit_exact():
    ft = scale(RDCT.matrix, "JAM").factored
    dense = ft.dense()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        x = rng.integers(-128, 128, size=16)
        out = apply(ft, [int(v) for v in x])
        assert isinstance(out, DyadicMatrix) and out.shape == (16,)
        worst = max(worst, float(np.max(np.abs(_floats(out) - dense @ x))))
    assert worst == 0.0


def test_apply_dyadic_rational_input():
    # Fractions over powers of two come back exact, equal to the dense product
    # in Python ints; any other denominator raises rather than taking the
    # float path
    ft = scale(SDCT.matrix, "VI").factored
    x = [Fraction(3, 2), Fraction(-5, 4)] + [Fraction(1)] * 14
    out = apply(ft, x)
    assert isinstance(out, DyadicMatrix) and out.shape == (16,)
    assert _floats(out) == pytest.approx(ft.dense() @ _floats(x), abs=0)
    dense = ft.dyadic()
    assert list(apply(ft, [Fraction(1, 2)] * 16)) == _dense_exact(dense.numerators(), dense.shift + 1, [1] * 16)
    with pytest.raises(ValueError, match="power of two"):
        apply(ft, [Fraction(1, 3)] * 16)


def test_apply_float_path():
    ft = scale(RDCT.matrix, "III").factored
    dense = ft.dense()
    rng = np.random.default_rng(808)
    for _ in range(50):
        x = rng.normal(size=16)
        out = apply(ft, x)
        assert isinstance(out, np.ndarray)
        assert np.linalg.norm(out - dense @ x) <= 1e-9 * max(np.linalg.norm(dense @ x), 1.0)


def test_apply_length_mismatch():
    ft = scale(RDCT.matrix, "JAM").factored
    with pytest.raises(ValueError, match="length 16"):
        apply(ft, [1, 2, 3])


def test_apply_integer_vector_array_is_exact():
    scaled = scale(SDCT.matrix, "III")
    x = np.arange(-8, 8, dtype=np.int32)
    out = apply(scaled.factored, x)
    assert isinstance(out, DyadicMatrix) and out.shape == (16,)
    assert list(out) == _dense_exact(scaled.dyadic.numerators(), scaled.dyadic.shift, x.tolist())


def test_apply_integer_batch_returns_dyadic_matrix():
    scaled = scale_to(RDCT.matrix, 32, ("VII", "II"))
    x = np.random.default_rng(909).integers(-256, 256, size=(32, 5))
    out = apply(scaled.factored, x)
    assert isinstance(out, DyadicMatrix)
    assert out == scaled.dyadic @ DyadicMatrix(x)
    for b in range(5):
        assert out.numerators()[:, b].tolist() == [
            v.numerator << (out.shift - v.shift) for v in apply(scaled.factored, x[:, b])
        ]


def test_apply_integer_array_shape_errors():
    ft = scale(RDCT.matrix, "JAM").factored
    for shape in ((4, 16), (16, 2, 2), (), (15,)):
        x = np.zeros(shape, dtype=np.int64)
        for given in (x, x.astype(float), x.tolist()):
            with pytest.raises(ValueError, match=r"shape \(16,\) or \(16, B\)"):
                apply(ft, given)
    # apply_real names the shape it was given, not the one column made of it
    with pytest.raises(ValueError, match=r"got shape \(15,\)"):
        ft.apply_real(np.ones(15))


def test_batches_come_back_exact_as_lists_or_arrays():
    # an (N, B) batch of ints comes back as the same exact DyadicMatrix as a
    # nested list, an int array or an object array, and through
    # FactoredTransform.apply_exact as well
    scaled = scale_to(SDCT.matrix, 32, ("VI", "III"))
    x = np.random.default_rng(31).integers(-99, 99, size=(32, 4))
    want = scaled.dyadic @ DyadicMatrix(x)
    for batch in (x, x.tolist(), x.astype(object)):
        out = apply(scaled.factored, batch)
        assert isinstance(out, DyadicMatrix) and out == want
    out = scaled.factored.apply_exact(x)
    assert isinstance(out, DyadicMatrix) and out == want


def test_object_batch_of_dyadic_rationals_is_exact():
    # Fractions of mixed shifts, and ints, in a 2-D object array or a
    # nested list, against the dense exact product over their common shift
    scaled = scale_to(RDCT.matrix, 32, ("VII", "JAM"))
    rng = np.random.default_rng(32)
    nums, shifts = rng.integers(-999, 999, size=(32, 3)), rng.integers(0, 7, size=(32, 3))
    values = np.empty((32, 3), dtype=object)
    for i, j in np.ndindex(values.shape):
        values[i, j] = Fraction(int(nums[i, j]), 1 << int(shifts[i, j]))
    values[0, 0], nums[0, 0], shifts[0, 0] = 5, 5, 0  # an int among them
    want = scaled.dyadic @ DyadicMatrix(nums << (shifts.max() - shifts), shifts.max())
    for batch in (values, values.tolist()):
        out = apply(scaled.factored, batch)
        assert isinstance(out, DyadicMatrix) and out == want


def test_exact_results_chain_through_apply():
    # an exact result goes back into apply: one transform after another is
    # their composition, for a vector and for an (N, B) batch
    a = scale_to(RDCT.matrix, 32, ("VII", "IV")).factored
    b = scale_to(SDCT.matrix, 32, ("III", "JAM")).factored
    x = np.random.default_rng(35).integers(-99, 99, size=(32, 4))
    for given in (x, x[:, 0].tolist()):
        inner = apply(b, given)
        assert inner.shift > 0  # the second apply aligns a real shift
        out = apply(a, inner)
        assert isinstance(out, DyadicMatrix) and out.shape == np.shape(given)
        assert out == apply(compose(a, b), given)


def test_exact_apply_on_a_dyadic_matrix_is_the_dense_product():
    ft = scale_to(RDCT.matrix, 32, ("VII", "III")).factored
    rng = np.random.default_rng(36)
    for shape in ((32,), (32, 3)):
        dm = DyadicMatrix(rng.integers(-999, 999, size=shape), 5)
        want = ft.dyadic() @ dm
        assert ft.apply_exact(dm) == want
        assert apply(ft, dm) == want
        assert ft.factors[-1].apply_exact(dm) == ft.factors[-1].dyadic() @ dm
    # the growth bound holds for DyadicMatrix input too
    bound = ((1 << 62) - 1) // ft.plan.growth
    with pytest.raises(OverflowError):
        apply(ft, DyadicMatrix([bound + 1] + [0] * 31))
    with pytest.raises(ValueError, match="expected 32 rows"):
        apply(ft, DyadicMatrix([1] * 16))


def test_exact_path_builds_no_dyadic_rational(monkeypatch):
    # results are read lazily: applying, to ints or to an exact result,
    # builds no per-entry object; reading one builds one per entry
    ft = scale_to(RDCT.matrix, 64, ("VII", "III", "JAM")).factored
    made = []
    build = matkit._Entry

    def counted(*args):
        made.append(args)
        return build(*args)

    monkeypatch.setattr(matkit, "_Entry", counted)
    out = apply(ft, list(range(-32, 32)))
    again = apply(ft, out)
    assert made == []
    assert len(list(again)) == 64 and len(made) == 64


def test_plan_is_lazy_and_cached():
    ft = scale(RDCT.matrix, "VI", base_cost=(22, 0)).factored
    ft.cost()
    assert "plan" not in vars(ft)
    apply(ft, list(range(16)))
    assert ft.plan is vars(ft)["plan"]
    text = str(ft.plan)
    assert "butterfly 16: add and subtract contiguous halves" in text
    assert "dense 8x8 product on 2 blocks, columns in pair order" in text


def test_plan_is_flat_with_signs_folded_into_butterflies():
    ft = scale_to(RDCT.matrix, 64, ("VII", "IV", "JAM")).factored
    # one gather into pair order, then the three butterfly levels over all
    # their blocks as one stage, the sign stages of IV and VII taken into the
    # layout, then one leaf product that reads its columns in pair order,
    # also takes the mixing multipliers, and writes its rows where the
    # perfect shuffles put them, with its blocks stored by the butterfly run
    # in that order: no sign, scale or permutation pass
    assert str(ft.plan).splitlines() == [
        "plan N=64, shift 1, growth 128:",
        "  gather 64, shift 0",
        "  butterflies 64 to 16: one ±1 product of 8 rows, slices in order [0, 4, 3, 7, 1, 5, 2, 6]",
        "  dense 8x8 product on 8 blocks, columns in pair order, row multipliers {-2, -1, 2},"
        " rows interleaved into place, shift 1",
    ]
    x = np.random.default_rng(5).normal(size=(64, 7))
    assert np.allclose(apply(ft, x), ft.dense() @ x, rtol=0, atol=1e-9)


def test_leaf_takes_only_power_of_two_multipliers():
    # a leaf takes the multipliers of the permutation after it into its rows
    # only where float products stay exact, so the float output is unchanged
    perm = np.array([3, 1, 0, 2, 7, 5, 4, 6])
    x = np.random.default_rng(3).normal(size=(8, 4))
    leaf_out = RDCT.matrix.numerators().astype(np.float64) @ x
    for mult, folded in (([2, -1, 4, 1, -2, 1, 1, 8], True), ([3, 1, 1, 1, 1, 1, 1, 1], False)):
        ft = FactoredTransform(8, (Factor.gather(perm, mult), Factor.leaf(RDCT.matrix)))
        assert ("row multipliers" in str(ft.plan)) == folded
        assert np.array_equal(apply(ft, x), np.array(mult)[:, None] * leaf_out[perm])


def test_complex_input_raises_type_error():
    ft = scale(RDCT.matrix, "VI").factored
    for x in (np.ones(16, complex), np.ones((16, 3), complex), [1j] * 16):
        with pytest.raises(TypeError, match="complex"):
            apply(ft, x)
    with pytest.raises(TypeError, match="complex"):
        ft.factors[0].apply_real(np.ones(16, complex))


def test_bool_array_takes_the_exact_path_like_a_list():
    scaled = scale_to(RDCT.matrix, 32, ("VII", "II"))
    ft, num, shift = scaled.factored, scaled.dyadic.numerators(), scaled.dyadic.shift
    bits = np.array([True, False, False, True] * 8)
    from_array, from_list = apply(ft, bits), apply(ft, bits.tolist())
    assert isinstance(from_array, DyadicMatrix) and from_array == from_list
    assert list(from_array) == _dense_exact(num, shift, bits.astype(int).tolist())
    batch = np.stack([bits, ~bits, bits[::-1]], axis=1)
    out = apply(ft, batch)
    assert isinstance(out, DyadicMatrix)
    assert out == scaled.dyadic @ DyadicMatrix(batch.astype(np.int64))
    assert [row[0] for row in out.entries()] == list(from_list)


_ALIAS_CASES = {
    "scaled VII/IV": scale_to(SDCT.matrix, 32, ("VII", "IV")).factored,
    "scaled JAM/III": scale_to(RDCT.matrix, 32, ("JAM", "III")).factored,
    "shift-only gather": FactoredTransform(8, (Factor.gather(np.arange(8), None, shift=1),)),
    "shift between butterflies": FactoredTransform(
        16, (Factor.butterfly(16), Factor.gather(np.arange(16), None, shift=2), Factor.butterfly(16))
    ),
    "identity gather": FactoredTransform(8, (Factor.gather(np.arange(8)),)),
    "butterfly": FactoredTransform(8, (Factor.butterfly(8),)),
    "leaf": FactoredTransform(8, (Factor.leaf(RDCT.matrix),)),
}


@pytest.mark.parametrize("name", sorted(_ALIAS_CASES))
def test_stages_never_write_into_or_return_the_input(name):
    ft = _ALIAS_CASES[name]
    n = ft.size
    dense = ft.dense()
    rng = np.random.default_rng(17)
    # the stages reshape their buffers, so inputs in other memory layouts are
    # included: Fortran order, strided columns, one column under a batch axis
    # and empty batches
    inputs = (
        rng.normal(size=(n, 5)),
        rng.integers(-99, 99, size=(n, 5)),
        rng.normal(size=n),
        rng.integers(-99, 99, size=n),
        rng.normal(size=(2, n, 3)),
        rng.normal(size=(2, n, 1)),
        np.asfortranarray(rng.normal(size=(n, 4))),
        np.asfortranarray(rng.integers(-99, 99, size=(n, 4))),
        rng.normal(size=(n, 6))[:, ::2],
        np.zeros((n, 0)),
        np.zeros((n, 0), dtype=np.int64),
        np.zeros((2, n, 0)),
    )
    for x in inputs:
        kept = x.copy()
        outs = [ft.plan.run(x if x.ndim > 1 else x[:, None])]
        outs.append(ft.apply_real(x) if x.ndim == 3 else apply(ft, x))
        assert np.array_equal(x, kept)
        for out in outs:
            if isinstance(out, DyadicMatrix):
                out = out._num  # the stored array: numerators() copies
            if isinstance(out, np.ndarray):
                assert not np.shares_memory(out, x)
        got = outs[1]
        if isinstance(got, list):
            got = _floats(got)
        elif isinstance(got, DyadicMatrix):
            got = got.to_real()
        want = np.einsum("ij,...jb->...ib", dense, x) if x.ndim == 3 else dense @ x
        assert np.allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("name", ["identity gather", "shift-only gather", "scaled VII/IV"])
def test_adopted_results_never_share_the_callers_memory(name):
    # the result's numerators are reduced in place, so they must never be
    # the caller's: with no stages (the plan copies), a stage that only
    # shifts, and a real plan, on even int64 arrays and on a DyadicMatrix
    # built from even numerators over shift 3; ``numerators()`` copies, so
    # the stored array is read
    ft = _ALIAS_CASES[name]
    rng = np.random.default_rng(5)
    for shape in ((ft.size,), (ft.size, 4)):
        ints = 2 * rng.integers(-99, 99, size=shape)
        dm = DyadicMatrix(2 * rng.integers(-99, 99, size=shape), 3)
        kept_ints, kept_num, kept_shift = ints.copy(), dm._num.copy(), dm.shift
        for given, stored in ((ints, ints), (dm, dm._num)):
            got = apply(ft, given)
            assert not np.shares_memory(got._num, stored)
            assert got == ft.dyadic() @ (given if isinstance(given, DyadicMatrix) else DyadicMatrix(given))
        assert np.array_equal(ints, kept_ints)
        assert np.array_equal(dm._num, kept_num) and dm.shift == kept_shift


@pytest.mark.parametrize("name", ["identity gather", "scaled VII/IV"])
def test_exact_front_door_overflow_edges(name):
    # the peak is one reduction of abs read as unsigned: it must still see
    # -2**63 (which abs leaves negative) and uint64 at or above 2**63 (which
    # int64 would wrap), as a vector, an (N, 3) batch and a Python list;
    # inputs are never changed, on a plan with no stages as on a real one
    ft = _ALIAS_CASES[name]
    n = ft.size
    assert (name == "identity gather") == (not ft.plan.stages)
    for dtype, value in ((np.int64, -(2**63)), (np.uint64, 2**63), (np.uint64, 2**64 - 1)):
        for shape in ((n,), (n, 3)):
            x = np.zeros(shape, dtype)
            x[n - 1] = value
            kept = x.copy()
            for given in (x, x.tolist()):
                with pytest.raises(OverflowError):
                    apply(ft, given)
            assert np.array_equal(x, kept) and x.dtype == dtype
    # the same magnitudes just inside the bound, and an int8 -128, which abs
    # also leaves negative, run exactly and leave the input as it was
    bound = ((1 << 62) - 1) // ft.plan.growth
    for dtype, value in ((np.int64, -bound), (np.uint64, bound), (np.int8, -128), (np.int64, -2)):
        for shape in ((n,), (n, 3)):
            x = np.zeros(shape, dtype)
            x[n - 1] = value
            x[0] = 2
            kept = x.copy()
            got = apply(ft, x)
            assert got == ft.dyadic() @ DyadicMatrix(x.astype(object))
            assert np.array_equal(x, kept) and not np.shares_memory(got._num, x)


# ── differential properties: engine against the dense exact product ───────


@functools.lru_cache(maxsize=None)
def _built(approx_id: str, chain: tuple[str, ...]):
    entry = catalog.load(approx_id)
    size = 8 << len(chain)
    return scale_to(entry.matrix, size, chain, base_cost=(entry.baseline_adds, entry.baseline_shifts))


def _chains(max_levels: int):
    return st.integers(1, max_levels).flatmap(
        lambda levels: st.lists(
            st.sampled_from(DYADIC_METHOD_IDS), min_size=levels, max_size=levels
        ).map(tuple)
    )


def _dense_exact(num: np.ndarray, shift: int, x) -> list[Fraction]:
    """``num @ x`` over ``2**shift`` in Python integers, ``x`` holding ints."""
    return [Fraction(int(v), 1 << shift) for v in num.astype(object) @ np.array(x, dtype=object)]


def _check_against_dense(scaled, data) -> None:
    ft = scaled.factored
    num, shift, n = scaled.dyadic.numerators(), scaled.dyadic.shift, scaled.size
    event(f"N={n}")
    bound = ((1 << 62) - 1) // ft.plan.growth
    # integers up to the bound, with the bound itself attained
    x = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    x[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from((bound, -bound)))
    assert list(apply(ft, x)) == _dense_exact(num, shift, x)
    # one step past the bound raises instead of wrapping
    x[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from((bound + 1, -bound - 1)))
    with pytest.raises(OverflowError):
        apply(ft, x)
    with pytest.raises(OverflowError):
        apply(ft, np.array(x, dtype=np.int64)[:, None])
    # dyadic rationals with mixed shifts
    nums = data.draw(st.lists(st.integers(-(2**12), 2**12), min_size=n, max_size=n))
    shifts = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    values = [Fraction(v, 1 << s) for v, s in zip(nums, shifts)]
    common = max(shifts)
    aligned = [v << (common - s) for v, s in zip(nums, shifts)]
    assert list(apply(ft, values)) == _dense_exact(num, shift + common, aligned)
    # the float path, one vector and one batch
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for xf in (rng.normal(size=n), rng.normal(size=(n, 7))):
        want = scaled.dense @ xf
        got = apply(ft, xf)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


_PROPERTY = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@_PROPERTY
@given(approx_id=st.sampled_from(catalog.APPROXIMATION_IDS), chain=_chains(4), data=st.data())
def test_engine_matches_dense_product(approx_id, chain, data):
    _check_against_dense(_built(approx_id, chain), data)


@settings(_PROPERTY, max_examples=8)
@given(data=st.data())
def test_engine_matches_dense_product_n256(data):
    _check_against_dense(_built("bas2", ("VII", "IV", "III", "VI", "I")), data)


@_PROPERTY
@given(
    members=st.lists(st.sampled_from(catalog.APPROXIMATION_IDS), min_size=2, max_size=2),
    levels=st.integers(1, 2),
    data=st.data(),
)
def test_engine_heterogeneous_block_diag(members, levels, data):
    chains = st.lists(st.sampled_from(DYADIC_METHOD_IDS), min_size=levels, max_size=levels)
    b, c = (_built(m, tuple(data.draw(chains))).factored for m in members)
    # two copies of a block composed of transforms with distinct shifts
    ft = FactoredTransform(2 * b.size, (Factor.block_diag(compose(b, c), 2),))
    whole = ft.dyadic()
    n = ft.size
    x = data.draw(st.lists(st.integers(-(2**20), 2**20), min_size=n, max_size=n))
    assert list(apply(ft, x)) == _dense_exact(whole.numerators(), whole.shift, x)
    xf = np.random.default_rng(len(x)).normal(size=(n, 3))
    want = whole.to_real() @ xf
    assert np.max(np.abs(apply(ft, xf) - want)) <= 1e-9 * np.max(np.abs(want))


# ── pair order: every butterfly on contiguous halves ──────────────────────


def _skeleton(signed: tuple[bool, ...]) -> FactoredTransform:
    """The doubling's factor structure over an rdct leaf, with the sign stage
    bd(I, J) at the levels that ``signed`` marks, outermost first."""
    ft = FactoredTransform(8, (Factor.leaf(RDCT.matrix),))
    for sign in reversed(signed):
        h = ft.size
        factors = [Factor.block_diag(ft, 2)]
        if sign:
            factors.append(Factor.gather(np.arange(2 * h), np.r_[np.ones(h), (-1) ** np.arange(h)]))
        ft = FactoredTransform(2 * h, (*factors, Factor.butterfly(2 * h)))
    return ft


@pytest.mark.parametrize("levels", range(1, 8))
def test_pair_order_holds_every_level(levels):
    # for every signed/unsigned level pattern at N = 16 ... 1024, the input
    # order puts each butterfly's partners half a block apart at every level,
    # and each storage block of 8 holds one leaf block: the plan runs one
    # gather, the butterfly levels in runs of at most four, and the leaf with
    # no gather between them
    n = 8 << levels
    for signed in itertools.product((False, True), repeat=levels):
        ft = _skeleton(signed)
        stages = ft.plan.stages
        layout = _Layout(_pair_order(stages, n))
        halves = []
        for st in stages:
            if isinstance(st, _Butterfly):
                assert layout.pairs(st)
                halves.append(st.half)
                layout = layout.after(st)
            elif isinstance(st, _Dense):
                assert layout.holds_blocks(8)
            else:
                layout = layout.then(st)
        assert halves == [n >> k for k in range(1, levels + 1)]
        lines = [line.strip() for line in ft.plan.lines()[1:]]
        runs = [
            f"butterfly {n >> j}" if j + 1 == top else f"butterflies {n >> j} to {n >> (top - 1)}"
            for j, top in ((j, min(j + 4, levels)) for j in range(0, levels, 4))
        ]
        k = len(runs) + 1
        assert lines[0].split()[0] == "gather"
        assert [line.split(":")[0].split(" on ")[0] for line in lines[1:k]] == runs
        assert lines[k].split()[0] == "dense" and "columns in pair order" in lines[k]
        # a gather ends the plan only where the leaf blocks lie out of order
        assert [line.split()[0] for line in lines[k + 1 :]] in ([], ["gather"])
        # wide and one-column integer input and float input alike run each
        # butterfly run as one ±1 product
        x = np.random.default_rng(n).integers(-99, 99, size=(n, 3))
        want = _skeleton_product(signed, x)
        assert np.array_equal(ft.plan.run(x), want)
        assert np.array_equal(ft.plan.run(x[:, 1:2]), want[:, 1:2])
        assert np.array_equal(ft.plan.run(x.astype(float)) * 2.0**ft.plan.shift, want)


def _skeleton_product(signed: tuple[bool, ...], x: np.ndarray) -> np.ndarray:
    """``_skeleton(signed)`` applied level by level in row order, without a plan."""
    if not signed:
        return RDCT.matrix.numerators() @ x
    h = len(x) // 2
    y = np.concatenate([x[:h] + x[::-1][:h], x[:h][::-1] - x[h:]])
    if signed[0]:
        y[h + 1 :: 2] *= -1
    return np.concatenate([_skeleton_product(signed[1:], y[:h]), _skeleton_product(signed[1:], y[h:])])


def _pair_order_cases():
    for approx in catalog.APPROXIMATION_IDS:
        for method in DYADIC_METHOD_IDS:
            for size in (16, 32, 64):
                yield approx, (method,) * (size.bit_length() - 4)
    for approx in ("rdct", "bas2"):
        for size in (128, 256, 1024):
            levels = size.bit_length() - 4
            yield approx, tuple(DYADIC_METHOD_IDS[(3 * k + len(approx)) % 8] for k in range(levels))


def test_pair_order_plans_match_the_dense_product():
    # every member and method at 16/32/64 plus mixed rdct and bas2 chains up
    # to 1024: exact outputs equal the dense exact product for an (N, 5)
    # batch of peak 999 (the float64 stages), one of peak 2**53 // growth
    # (the int64 stages), a vector and an (N, 0) batch; float outputs stay
    # within 1e-9 of the dense float product for an (N, 64) block, a vector
    # and a (2, N, 4) array; and the plan headers (shift and growth) hash to
    # the values captured before the pair order
    rng = np.random.default_rng(2024)
    headers = []
    for approx, chain in _pair_order_cases():
        scaled = _built(approx, chain)
        ft, n = scaled.factored, scaled.size
        headers.append(f"{approx} {'/'.join(chain)} {ft.plan.lines()[0]}")
        for peak in (min(999, ((1 << 62) - 1) // ft.plan.growth), 2**53 // ft.plan.growth):
            x = rng.integers(-peak, peak + 1, size=(n, 5))
            x[0, 0] = peak
            assert apply(ft, x) == scaled.dyadic @ DyadicMatrix(x), (approx, chain, peak)
        num, shift = scaled.dyadic.numerators(), scaled.dyadic.shift
        assert list(apply(ft, x[:, 0])) == _dense_exact(num, shift, x[:, 0].tolist())
        empty = np.zeros((n, 0), np.int64)
        assert apply(ft, empty) == scaled.dyadic @ DyadicMatrix(empty) and apply(ft, empty).shape == (n, 0)
        for xf in (rng.normal(size=(n, 64)), rng.normal(size=n), rng.normal(size=(2, n, 4))):
            want = np.einsum("ij,...jb->...ib", scaled.dense, xf) if xf.ndim == 3 else scaled.dense @ xf
            got = ft.apply_real(xf) if xf.ndim == 3 else apply(ft, xf)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    digest = hashlib.sha256("\n".join(headers).encode()).hexdigest()
    assert len(headers) == 246
    assert digest == "94d68a4e180617901f8f63e7e673b95779eb93ea09816cb5e0844c85ed375c1c"


def test_exact_batches_run_on_the_float_stages_below_2_53(monkeypatch):
    # on every pair-order case, an (N, 33) int batch of peak 255 or
    # 2**53 // growth - 1 runs on the float64 stages, and one of peak
    # 2**53 // growth or (2**62 - 1) // growth on the int64 stages, as does
    # one column (every growth here is a power of two, so 2**53 // growth is
    # the bound itself); each output equals the int64 stages bit for bit, and
    # one past the last peak still raises OverflowError
    run, kinds = Plan.run, []

    def spy(plan, x):
        kinds.append(x.dtype.kind)
        return run(plan, x)

    monkeypatch.setattr(Plan, "run", spy)
    rng = np.random.default_rng(53)
    for approx, chain in _pair_order_cases():
        plan = _built(approx, chain).factored.plan
        g = plan.growth
        for peak, kind in ((255, "f"), (2**53 // g - 1, "f"), (2**53 // g, "i"), (((1 << 62) - 1) // g, "i")):
            x = rng.integers(-peak, peak + 1, size=(plan.size, 33))
            x[0, 0] = peak
            kinds.clear()
            assert plan.apply_exact(x) == DyadicMatrix(run(plan, x), plan.shift)
            assert plan.apply_exact(x[:, :1]) == DyadicMatrix(run(plan, x[:, :1]), plan.shift)
            assert kinds == [kind, "i"], (approx, chain, peak)
        x[0, 0] = peak + 1
        with pytest.raises(OverflowError):
            plan.apply_exact(x)


def test_adopted_results_keep_the_constructors_canonical_form():
    # on every pair-order case, a vector and an (N, 33) batch of peak 255
    # (the float64 stages for the batch) and of peak 2**53 // growth (the
    # int64 stages), given as ints, as even ints, and as a DyadicMatrix built
    # from even numerators over shift 3: the result has the shift and the
    # numerators that the public constructor gives the raw stage output
    rng = np.random.default_rng(14)
    for approx, chain in _pair_order_cases():
        ft = _built(approx, chain).factored
        plan = ft.plan
        for peak in (255, 2**53 // plan.growth):
            x = rng.integers(-peak, peak + 1, size=(plan.size, 33))
            x[0, 0] = peak
            for given in (x, x[:, 0]):
                for value in (given, 2 * given, DyadicMatrix(2 * given, 3)):
                    num, shift = (value.numerators(), value.shift) if isinstance(value, DyadicMatrix) else (value, 0)
                    raw = plan.run(num if num.ndim == 2 else num[:, None]).reshape(num.shape)
                    want = DyadicMatrix(raw, shift + plan.shift)
                    got = apply(ft, value)
                    assert got.shift == want.shift, (approx, chain, peak)
                    assert got.numerators().dtype == np.int64
                    assert np.array_equal(got.numerators(), want.numerators()), (approx, chain, peak)


def test_one_column_attains_the_growth_bound_exactly():
    # a vector of peak (2**62 - 1) // growth, signed to reach the largest
    # row-L1 norm of the dense numerators, is exact on every pair-order case
    # although its result is adopted without a range check; one past the
    # peak, at either sign, raises OverflowError
    for approx, chain in _pair_order_cases():
        scaled = _built(approx, chain)
        ft, num, shift = scaled.factored, scaled.dyadic.numerators(), scaled.dyadic.shift
        bound = ((1 << 62) - 1) // ft.plan.growth
        row = num[np.argmax(np.abs(num).sum(axis=1))]
        x = [bound if v >= 0 else -bound for v in row.tolist()]
        assert list(apply(ft, x)) == _dense_exact(num, shift, x), (approx, chain)
        for past in (bound + 1, -bound - 1):
            with pytest.raises(OverflowError):
                apply(ft, [past] + x[1:])


def test_executed_plan_text_is_pinned():
    # the full text of every stage as run, for the pair-order cases, lone and
    # composed butterflies, a leaf alone and before a permutation with and
    # without power-of-two multipliers, and a gather that only shifts, hashes
    # to the value captured once only the gather that ends the plan goes into
    # the leaf's rows and the butterfly run's slice order (a gather after a
    # leaf inside the plan keeps its multipliers)
    perm = np.array([3, 1, 0, 2, 7, 5, 4, 6])
    fts = [_built(approx, chain).factored for approx, chain in _pair_order_cases()]
    fts += [FactoredTransform(n, (Factor.butterfly(n),)) for n in (2, 6, 8)]
    fts += [
        FactoredTransform(16, (Factor.butterfly(16), Factor.butterfly(16))),
        compose(scale(RDCT.matrix, "JAM").factored, scale(SDCT.matrix, "VI").factored),
        compose(scale(RDCT.matrix, "III").factored, scale(SDCT.matrix, "VII").factored),
        FactoredTransform(8, (Factor.leaf(catalog.load("abdct").matrix),)),
        FactoredTransform(8, (Factor.gather(perm, [2, -1, 4, 1, -2, 1, 1, 8]), Factor.leaf(RDCT.matrix))),
        FactoredTransform(8, (Factor.gather(perm, [3, 1, 1, 1, 1, 1, 1, 1]), Factor.leaf(RDCT.matrix))),
        FactoredTransform(8, (Factor.gather(np.arange(8), None, shift=1),)),
    ]
    text = "\n\n".join(str(ft.plan) for ft in fts)
    assert len(fts) == 256
    assert hashlib.sha256(text.encode()).hexdigest() == "2d0031586eec3a06a30ccb173613a1f0cd11c5d4492770494e06b28a83248f54"


@pytest.mark.parametrize(
    "ft, stages",
    [
        (FactoredTransform(8, (Factor.butterfly(8),)), None),
        (FactoredTransform(6, (Factor.butterfly(6),)), None),
        (FactoredTransform(2, (Factor.butterfly(2),)), None),
        (FactoredTransform(16, (Factor.butterfly(16), Factor.butterfly(16))), None),
        (compose(scale(RDCT.matrix, "JAM").factored, scale(SDCT.matrix, "VI").factored), None),
        (compose(_skeleton((True, False)), FactoredTransform(32, (Factor.butterfly(32),))), None),
        (
            compose(scale(RDCT.matrix, "III").factored, scale(SDCT.matrix, "VII").factored),
            [
                "  gather 16, shift 0",
                "  butterfly 16: add and subtract contiguous halves",
                "  dense 8x8 product on 2 blocks, columns in pair order, shift 0",
                "  signed gather 16, multipliers {-2, -1, 2}, shift 1",
                "  butterfly 16: add and subtract contiguous halves",
                "  dense 8x8 product on 2 blocks, columns in pair order, row multipliers {-2, -1, 2},"
                " rows interleaved into place, shift 1",
            ],
        ),
        (
            compose(
                FactoredTransform(2, (Factor.butterfly(2),)),
                FactoredTransform(2, (Factor.leaf(DyadicMatrix([[1, 2], [2, -1]])),)),
            ),
            ["  dense 2x2 product, shift 0", "  butterfly 2: add and subtract contiguous halves"],
        ),
    ],
    ids=[
        "butterfly 8", "butterfly 6", "butterfly 2", "two butterflies", "composed", "skeleton·butterfly",
        "III·VII", "butterfly·leaf",
    ],
)
def test_pair_order_on_lone_and_composed_butterflies(ft, stages):
    # where no leaf follows, a gather takes the layout in; where one run's
    # layout does not pair the next butterfly, a gather between them does;
    # a leaf takes in only the gather that ends the plan, so the signed
    # gather after the first leaf of III·VII stays, and a plan that ends
    # with a butterfly after its leaf has nothing to fold (``stages`` are
    # the stages as run, where pinned); integer-valued float input gives
    # the dense float product bit for bit
    if stages is not None:
        assert ft.plan.lines()[1:] == stages
    n = ft.size
    rng = np.random.default_rng(n)
    x = rng.integers(-999, 999, size=(n, 4))
    assert apply(ft, x) == ft.dyadic() @ DyadicMatrix(x)
    assert list(apply(ft, x[:, 1])) == _dense_exact(ft.dyadic().numerators(), ft.dyadic().shift, x[:, 1].tolist())
    assert np.array_equal(apply(ft, x.astype(float)), ft.dense() @ x)
    xf = rng.normal(size=(n, 64))
    assert np.allclose(apply(ft, xf), ft.dense() @ xf, rtol=0, atol=1e-9)


def test_plan_ends_at_its_leaf_where_the_output_permutation_folds():
    # every pair-order case up to N = 128 ends at its leaf, which writes its
    # rows into place; at N = 256 and 1024 the last butterfly run, on more
    # than one block, cannot store the leaf blocks in output order, and the
    # gather that only moves rows stays after a leaf that writes its blocks
    # in order (the outputs are checked in the test above)
    stays = []
    for approx, chain in _pair_order_cases():
        ft = _built(approx, chain).factored
        *_, before, last = ft.plan._executed
        if isinstance(last, _Gather):
            stays.append(f"{approx} {ft.size}")
            assert isinstance(before, _Dense) and not before.interleaves
            assert last.mult is None and last.permutes
        else:
            assert last.interleaves and ft.size <= 128, (approx, chain)
    assert stays == ["rdct 256", "rdct 1024", "bas2 256", "bas2 1024"]


_SHIFTED = {
    "unpermuted end gather into the leaf": (
        FactoredTransform(8, (Factor.gather(np.arange(8), [2] * 8, shift=1), Factor.leaf(RDCT.matrix))),
        ["  dense 8x8 product, row multipliers {2}, shift 1"],
    ),
    "shift between butterflies": (
        FactoredTransform(16, (Factor.butterfly(16), Factor.gather(np.arange(16), None, shift=2), Factor.butterfly(16))),
        [
            "  gather 16, shift 0",
            "  butterfly 16: add and subtract contiguous halves",
            "  butterfly 16: add and subtract contiguous halves",
            "  gather 16, shift 2",
        ],
    ),
    "signed rows and a shift between butterflies": (
        FactoredTransform(
            16,
            (
                Factor.butterfly(16),
                Factor.gather(np.arange(16)[::-1], [1, -1] * 8, shift=3),
                Factor.butterfly(16),
            ),
        ),
        None,
    ),
}


def test_executed_shifts_sum_to_the_plan_shift():
    # the stages as run carry the plan's whole shift: a gather that goes into
    # the leaf adds its shift to the leaf's, moved rows or not, and a signed
    # permutation that shifts runs no stage of its own, its shift going to
    # the gather that ends the plan; the shifted plans stay exact
    for approx, chain in _pair_order_cases():
        plan = _built(approx, chain).factored.plan
        assert sum(st.shift for st in plan._executed) == plan.shift, (approx, chain)
    rng = np.random.default_rng(5)
    for name, (ft, stages) in _SHIFTED.items():
        assert sum(st.shift for st in ft.plan._executed) == ft.plan.shift, name
        if stages is not None:
            assert ft.plan.lines()[1:] == stages, name
        x = rng.integers(-999, 1000, size=(ft.size, 3))
        assert apply(ft, x) == ft.dyadic() @ DyadicMatrix(x), name
        assert apply(ft, x[:, 0]) == ft.dyadic() @ DyadicMatrix(x[:, 0]), name
        assert np.array_equal(apply(ft, x.astype(float)), ft.dense() @ x), name


def test_plans_match_the_factor_product_to_n256():
    # the factor product, with each gather taken as signed rows of the
    # running product, is the index-built matrix of the scaled transform at
    # N = 128 (the plan ends at its leaf) and 256 (the gather stays), and
    # the plan gives it on the identity and on an int batch and vector
    rng = np.random.default_rng(22)
    sizes = []
    for approx, chain in _pair_order_cases():
        scaled = _built(approx, chain)
        if scaled.size not in (128, 256):
            continue
        ft, n = scaled.factored, scaled.size
        product = ft.dyadic()
        assert product == scaled.dyadic
        assert apply(ft, DyadicMatrix.identity(n)) == product
        x = rng.integers(-999, 1000, size=(n, 3))
        assert apply(ft, x) == product @ DyadicMatrix(x)
        assert apply(ft, x[:, 0]) == product @ DyadicMatrix(x[:, 0])
        sizes.append(n)
    assert sizes == [128, 256, 128, 256]


def test_factor_product_takes_gather_rows_exactly():
    # a gather multiplies the running product as a signed row take over the
    # sum of the shifts; where multiplier times numerator could pass int64,
    # it multiplies as the dense product, which reduces before it checks the
    # 62 bits
    leaf = Factor.leaf(DyadicMatrix([[2**30, 0], [0, 1]]))
    signed = FactoredTransform(2, (Factor.gather([1, 0], [-3, 1], 2), leaf))
    assert signed.dyadic() == DyadicMatrix([[0, -3], [2**30, 0]], 2)
    reduced = FactoredTransform(2, (Factor.gather([1, 0], [2**40, 1], 61), leaf))
    assert reduced.dyadic() == DyadicMatrix([[0, 2**10], [1, 0]], 31)
    with pytest.raises(OverflowError, match="62 bits"):
        FactoredTransform(2, (Factor.gather([0, 1], [2**40, 1]), leaf)).dyadic()


def test_one_transform_applies_from_four_threads_at_once():
    # the prepared stages share no scratch between calls: each of 4 threads
    # running at once makes 200 calls each on its own int vector, int batch
    # and float block, and gets the single-thread results bit for bit
    ft = scale_to(RDCT.matrix, 64, ("VII", "IV", "JAM")).factored
    rng = np.random.default_rng(4)
    inputs = [
        [rng.integers(-255, 256, size=64).tolist(), rng.integers(-255, 256, size=(64, 7)), rng.normal(size=(64, 256))]
        for _ in range(4)
    ]
    wants = [[apply(ft, x) for x in mine] for mine in inputs]
    start, wrong = threading.Barrier(4), []

    def work(k: int) -> None:
        start.wait()
        for i in range(600):
            j = i % 3  # every thread on the same kind of input at once
            got = apply(ft, inputs[k][j])
            if not (got == wants[k][j] if j < 2 else np.array_equal(got, wants[k][j])):
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


# ── composition ────────────────────────────────────────────────────────────


def test_compose_adds_costs_and_multiplies():
    a = scale(RDCT.matrix, "JAM", base_cost=(22, 0)).factored
    b = scale(SDCT.matrix, "VI", base_cost=(24, 0)).factored
    ab = compose(a, b)
    assert ab.cost() == (a.cost()[0] + b.cost()[0], a.cost()[1] + b.cost()[1])
    assert ab.dense() == pytest.approx(a.dense() @ b.dense())
    x = list(range(1, 17))
    assert _floats(apply(ab, x)) == pytest.approx(
        a.dense() @ (b.dense() @ np.array(x, dtype=float)), abs=1e-9
    )


def test_compose_keeps_declared_leaf_cost():
    leaf = FactoredTransform(8, (Factor.leaf(RDCT.matrix, (22, 0)),))
    ident = FactoredTransform(8, (Factor.gather(perfect_shuffle(4)),))
    both = compose(leaf, ident)
    assert both.factors == leaf.factors + ident.factors
    assert both.cost() == (22, 0)
    p = structural_matrix(StructuralKind.PERFECT_SHUFFLE, 4).to_real()
    assert both.dense() == pytest.approx(RDCT.matrix.to_real() @ p)
    twice = compose(leaf, leaf)
    assert twice.cost() == (44, 0)
    assert twice.dense() == pytest.approx(RDCT.matrix.to_real() @ RDCT.matrix.to_real())


def test_compose_size_mismatch():
    small = FactoredTransform(8, (Factor.leaf(RDCT.matrix),))
    big = scale(RDCT.matrix, "JAM").factored
    with pytest.raises(ValueError, match="different sizes"):
        compose(small, big)


# ── serialization ──────────────────────────────────────────────────────────


def test_describe_and_json():
    st = scale(RDCT.matrix, "VII", base_cost=(22, 0))
    ft = st.factored
    doc = ft.describe()
    assert doc["size"] == 16
    assert (doc["adds"], doc["shifts"]) == ft.cost()
    kinds = [f["kind"] for f in doc["factors"]]
    assert kinds == ["gather", "gather", "block-diag", "gather", "butterfly"]
    assert doc["factors"][0]["index"] == perfect_shuffle(8).tolist()
    mixing = doc["factors"][1]
    assert (mixing["adds"], mixing["shifts"], mixing["shift"]) == (0, 0, 1)
    assert mixing["counted"] == [0, 1]  # the declared cost hides the half
    blocks = doc["factors"][2]
    assert blocks["count"] == 2 and blocks["block"]["adds"] == 22
    leaf = blocks["block"]["factors"][0]
    assert (leaf["kind"], leaf["adds"], leaf["counted"]) == ("leaf", 22, [40, 0])
    assert leaf["entries"] == [[str(e) for e in row] for row in RDCT.matrix.entries()]
    parsed = json.loads(to_json(ft))
    assert parsed == doc


def _rebuilt(node) -> DyadicMatrix:
    """A node's matrix rebuilt from its description alone, with its
    adds and shifts checked against its children or its dense count."""
    cost = [node["adds"], node["shifts"]]
    if "factors" in node:
        mats = [_rebuilt(f) for f in node["factors"]]
        assert cost == [sum(f[k] for f in node["factors"]) for k in ("adds", "shifts")]
        return functools.reduce(operator.matmul, mats)
    n, kind = node["size"], node["kind"]
    if kind == "block-diag":
        block = node["block"]
        assert cost == [node["count"] * block["adds"], node["count"] * block["shifts"]]
        return functools.reduce(DyadicMatrix.block_diag, [_rebuilt(block)] * node["count"])
    if kind == "butterfly":
        eye = np.eye(n // 2, dtype=np.int64)
        m = DyadicMatrix(np.block([[eye, eye[::-1]], [eye[::-1], -eye]]))
    elif kind == "gather":
        num = np.zeros((n, n), dtype=np.int64)
        num[np.arange(n), node["index"]] = node["mult"]
        m = DyadicMatrix(num, node["shift"])
    else:
        assert kind == "leaf"
        m = DyadicMatrix.from_entries(node["entries"])
    assert node.get("counted", cost) == list(count_dense_dyadic(m))
    return m


@pytest.mark.parametrize(
    "approx_id,chain",
    [("rdct", ("VII",)), ("abdct", ("V", "IV", "VII")), ("bas2", ("III", "VI", "JAM", "II"))],
)
def test_describe_round_trip(approx_id, chain):
    scaled = _built(approx_id, chain)
    ft = scaled.factored
    rebuilt = _rebuilt(json.loads(to_json(ft)))
    assert rebuilt == ft.dyadic() == scaled.dyadic
    assert rebuilt.shift == scaled.dyadic.shift


def test_factor_kind_values():
    assert {k.value for k in FactorKind} == {"gather", "butterfly", "block-diag", "leaf"}
