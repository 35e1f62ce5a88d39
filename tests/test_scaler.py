"""Doubling methods: registry, single/recursive scaling, orthogonality checker.

Covers the published per-method error values for exact seeds, frozen
recursion oracles, the II==III / VI==VII collapse after row rescaling, the
Gram block structure, and the dyadic shift bound.  The index-built
doubling, and the float doubling of every method, are checked against the
literal product of the five factors; the float64 error of a chained
'exact' doubling is pinned.  The cost recurrence, orthogonality and
method-pair collapse are checked on random members and per-level chains
up to N = 1024.  The method-only factors of a doubling, shared per
(method, half-size), are checked read-only, against builds from a cleared
cache, and against eviction over a full sweep.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dctscale import catalog, scaler
from dctscale.exact import (
    StructuralKind,
    TransformKind,
    bit_reversal,
    butterfly,
    counter_mixing,
    perfect_shuffle,
    signed_cosine_diagonal,
    structural_matrix,
    transform_matrix,
)
from dctscale.fastpath import FactoredTransform
from dctscale.matkit import DyadicMatrix, as_real, canonical, frobenius_distance
from dctscale.scaler import (
    _doubling,
    DYADIC_METHOD_IDS,
    METHOD_IDS,
    check_orthogonality,
    method_blocks,
    normalize_method,
    scale,
    scale_to,
)

C8 = transform_matrix(TransformKind.DCT2, 8)
C16 = transform_matrix(TransformKind.DCT2, 16)

# recursion oracles ||C_hat - C||_F for exact 8-point seeds, frozen values
RECURSION_ERRORS = [
    (32, "JAM", 6.025315),
    (64, "JAM", 9.957923),
    (32, "VI", 3.601017),
    (64, "VII", 5.987605),
]


# ── method registry ────────────────────────────────────────────────────────


def test_method_ids():
    assert METHOD_IDS == ("JAM", "I", "II", "III", "IV", "V", "VI", "VII", "exact")
    assert DYADIC_METHOD_IDS == METHOD_IDS[:-1]


def test_normalize_method():
    assert normalize_method("jam") == "JAM"
    assert normalize_method(" vii ") == "VII"
    assert normalize_method("EXACT") == "exact"
    assert normalize_method("ii") == "II"
    with pytest.raises(ValueError, match="unknown scaling method"):
        normalize_method("VIII")


def test_method_blocks_shapes_and_values():
    half = 4
    ident = np.eye(half)
    ibar = np.fliplr(ident)
    j = np.diag([1.0, -1.0, 1.0, -1.0])
    z = np.diag([0.5, 1.0, 1.0, 1.0])
    want = {
        "JAM": (ident, ident),
        "I": (ibar, ident),
        "II": (-ibar @ j, ident),
        "III": (-ibar @ z @ j, ident),
        "IV": (ident, j),
        "V": (ibar, j),
        "VI": (-ibar @ j, j),
        "VII": (-ibar @ z @ j, j),
    }
    for method, (wb, wg) in want.items():
        b_hat, g_hat = method_blocks(method, half)
        assert isinstance(b_hat, DyadicMatrix) and isinstance(g_hat, DyadicMatrix)
        assert as_real(b_hat) == pytest.approx(wb)
        assert as_real(g_hat) == pytest.approx(wg)
    b_exact, g_exact = method_blocks("exact", half)
    assert b_exact == pytest.approx(counter_mixing(half))
    assert g_exact == pytest.approx(signed_cosine_diagonal(half))
    # every method converts and checks the half-size the same way
    for method in ("exact", "VI"):
        b_hat, _ = method_blocks(method, 4.0)
        assert as_real(b_hat) == pytest.approx(as_real(method_blocks(method, 4)[0]))
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError):
                method_blocks(method, bad)


# ── single doubling ────────────────────────────────────────────────────────


def test_scale_exact_method_reproduces_exact_transform():
    scaled = scale(C8, "exact")
    assert frobenius_distance(scaled.c_hat, C16) <= 1e-10


@pytest.mark.parametrize(
    "method,err8",
    [
        ("JAM", 3.994),
        ("I", 3.826),
        ("II", 4.001),
        ("III", 4.001),
        ("IV", 3.826),
        ("V", 4.006),
        ("VI", 1.954),
        ("VII", 1.954),
    ],
)
def test_scale_exact_seed_errors(method, err8):
    scaled = scale(C8, method)
    assert frobenius_distance(scaled.c_hat, C16) == pytest.approx(err8, abs=1e-3)


def test_scaled_transform_fields():
    entry = catalog.load("rdct")
    st = scale(entry.matrix, "VI", base_cost=(22, 0))
    assert st.size == 16
    assert st.method == "VI"
    assert st.c_hat == pytest.approx(st.sigma @ st.dense, abs=1e-12)
    assert st.dyadic is not None and st.factored is not None
    assert st.dyadic.to_real() == pytest.approx(st.dense)
    assert st.factored.dyadic().to_real() == pytest.approx(st.dense, abs=1e-12)
    assert st.factored.cost() == (60, 0)


def test_scale_float_seed_has_no_dyadic_view():
    st = scale(np.asarray(C8), "JAM")
    assert st.dyadic is None and st.factored is None
    st2 = scale(catalog.load("rdct").matrix, "exact")
    assert st2.dyadic is None and st2.factored is None


def test_scale_jam_equivalence():
    # with identity parameters the map collapses to P blockdiag(t, t) Bf
    t = catalog.load("mrdct").matrix
    n = t.rows
    st = scale(t, "JAM")
    expect = (
        structural_matrix(StructuralKind.PERFECT_SHUFFLE, n)
        @ DyadicMatrix.block_diag(t, t)
        @ butterfly(n)
    )
    assert st.dyadic == expect


@pytest.mark.parametrize("method", DYADIC_METHOD_IDS)
def test_scale_gram_block_structure(method):
    for approx_id in ("rdct", "sdct"):
        t = catalog.load(approx_id).matrix
        n = t.rows
        st = scale(t, method)
        b_hat, g_hat = (as_real(m) for m in method_blocks(method, n))
        tr = t.to_real()
        p = structural_matrix(StructuralKind.PERFECT_SHUFFLE, n).to_real()
        lower = b_hat @ tr @ g_hat @ g_hat.T @ tr.T @ b_hat.T
        want = 2.0 * p @ scipy.linalg.block_diag(tr @ tr.T, lower) @ p.T
        assert np.max(np.abs(st.dense @ st.dense.T - want)) < 1e-10


@pytest.mark.parametrize("approx_id", catalog.APPROXIMATION_IDS)
def test_dyadic_shift_growth_bound(approx_id):
    def max_entry_shift(m: DyadicMatrix) -> int:
        return canonical(m.numerators(), m.shift)[1].max(initial=0)

    t = catalog.load(approx_id).matrix
    for method in DYADIC_METHOD_IDS:
        st = scale(t, method)
        assert max_entry_shift(st.dyadic) <= max_entry_shift(t) + 1


def test_scale_one_point_seed():
    # 1x1 seeds are allowed; JAM doubling of any positive scalar gives C_2
    st = scale(np.array([[3.0]]), "JAM")
    assert st.c_hat == pytest.approx(transform_matrix(TransformKind.DCT2, 2), abs=1e-12)
    st_dyadic = scale(DyadicMatrix([[1]]), "JAM")
    assert st_dyadic.dyadic.numerators().tolist() == [[1, 1], [1, -1]]
    assert st_dyadic.factored.cost() == (2, 0)
    st_exact = scale(np.array([[1.0]]), "exact")
    assert st_exact.size == 2
    assert np.max(np.abs(st_exact.c_hat @ st_exact.c_hat.T - np.eye(2))) < 1e-12


def test_scale_seed_validation():
    with pytest.raises(ValueError):
        scale(np.ones((2, 3)), "JAM")
    with pytest.raises(ValueError):
        scale(np.ones((0, 0)), "JAM")


def test_gather_index_is_not_a_seed():
    # a permutation is a 1-D gather index, not a square matrix
    for index in (perfect_shuffle(4), bit_reversal(8)):
        with pytest.raises(ValueError, match="square matrix"):
            scale(index, "JAM")
        with pytest.raises(ValueError, match="square matrix"):
            scale_to(index, 16, "VII")
        with pytest.raises(ValueError, match="square matrix"):
            check_orthogonality(index, "JAM")


# ── recursive scaling ──────────────────────────────────────────────────────


@pytest.mark.parametrize("target,method,expected", RECURSION_ERRORS)
def test_scale_to_frozen_oracles(target, method, expected):
    st = scale_to(C8, target, method)
    exact = transform_matrix(TransformKind.DCT2, target)
    assert frobenius_distance(st.c_hat, exact) == pytest.approx(expected, abs=2e-6)


def test_scale_to_single_level_matches_scale():
    t = catalog.load("rdct").matrix
    one = scale(t, "V")
    via = scale_to(t, 16, "V")
    assert via.c_hat == pytest.approx(one.c_hat, abs=0)


def test_scale_to_orthogonalizes_once_at_the_end():
    # the raw 32-point matrix must be the doubling of the raw 16-point one,
    # not of its rescaled version
    t = catalog.load("lodct").matrix
    inner = scale(t, "II")
    outer = scale_to(t, 32, "II")
    redoubled = scale(inner.dyadic, "II")
    assert outer.dense == pytest.approx(redoubled.dense, abs=0)
    assert outer.dyadic == redoubled.dyadic


def test_scale_to_per_level_methods():
    t = catalog.load("bas4").matrix
    chained = scale_to(t, 32, ("JAM", "VI"))
    level1 = scale(t, "JAM")
    level2 = scale(level1.factored, "VI")
    assert chained.c_hat == pytest.approx(level2.c_hat, abs=0)
    assert chained.factored.cost() == level2.factored.cost()


def test_scale_to_validation():
    with pytest.raises(ValueError, match="at least twice"):
        scale_to(C8, 8, "JAM")
    with pytest.raises(ValueError, match="power of two"):
        scale_to(C8, 24, "JAM")
    with pytest.raises(ValueError, match="doublings"):
        scale_to(C8, 32, ("JAM",))
    # an empty seed is refused before the size loop, which could not end
    for empty in (np.ones((0, 0)), DyadicMatrix(np.zeros((0, 0), dtype=np.int64))):
        with pytest.raises(ValueError, match="at least 1x1"):
            scale_to(empty, 16, "JAM")


def test_scale_to_keeps_dyadic_chain():
    st = scale_to(catalog.load("imrdct").matrix, 64, "VII")
    assert st.size == 64
    assert st.dyadic is not None and st.factored is not None
    assert st.dyadic.to_real() == pytest.approx(st.dense)


# ── method-pair collapse ───────────────────────────────────────────────────


@pytest.mark.parametrize("approx_id", catalog.APPROXIMATION_IDS)
def test_pair_collapse_at_16(approx_id):
    t = catalog.load(approx_id).matrix
    assert np.max(np.abs(scale(t, "II").c_hat - scale(t, "III").c_hat)) <= 1e-12
    assert np.max(np.abs(scale(t, "VI").c_hat - scale(t, "VII").c_hat)) <= 1e-12


def test_pair_collapse_survives_recursion():
    for approx_id in ("rdct", "bas2", "sdct"):
        t = catalog.load(approx_id).matrix
        a = scale_to(t, 32, "II").c_hat
        b = scale_to(t, 32, "III").c_hat
        assert np.max(np.abs(a - b)) <= 1e-12
        c = scale_to(t, 32, "VI").c_hat
        d = scale_to(t, 32, "VII").c_hat
        assert np.max(np.abs(c - d)) <= 1e-12


# ── orthogonality checker ──────────────────────────────────────────────────


def test_check_orthogonality_rdct_jam():
    chk = check_orthogonality(catalog.load("rdct").matrix, "JAM")
    assert (chk.cond_i, chk.cond_ii, chk.cond_iii, chk.orthogonal) == (
        True,
        True,
        True,
        True,
    )


def test_check_orthogonality_sdct_fails_first_condition():
    chk = check_orthogonality(catalog.load("sdct").matrix, "VI")
    assert not chk.cond_i
    assert chk.cond_ii and chk.cond_iii
    assert not chk.orthogonal


def test_check_orthogonality_exact_method_flags():
    # the exact blocks fail (ii) and (iii); the flag reports conditions only
    chk = check_orthogonality(catalog.load("rdct").matrix, "exact")
    assert chk.cond_i
    assert not chk.cond_ii and not chk.cond_iii
    assert not chk.orthogonal


def test_sufficiency_does_not_bind():
    # an exact seed doubled by the exact method is orthogonal even though
    # the checker's conditions fail: they are sufficient, not necessary
    chk = check_orthogonality(C8, "exact")
    assert not chk.orthogonal
    st = scale(C8, "exact")
    assert np.max(np.abs(st.c_hat @ st.c_hat.T - np.eye(16))) < 1e-10


@pytest.mark.parametrize("method", DYADIC_METHOD_IDS)
def test_orthogonality_flag_is_sufficient(method):
    for approx_id in ("rdct", "mrdct", "bas1"):
        t = catalog.load(approx_id).matrix
        chk = check_orthogonality(t, method)
        assert chk.orthogonal
        st = scale(t, method)
        assert np.max(np.abs(st.c_hat @ st.c_hat.T - np.eye(16))) < 1e-10


# ── index-built doubling against the five-factor product, N = 16...1024 ─────


def _reference_blocks(method: str, n: int) -> tuple[DyadicMatrix, DyadicMatrix]:
    """(B-hat, G-hat) as products of the exact structural factors."""
    ident = DyadicMatrix(np.eye(n, dtype=np.int64))
    ibar = structural_matrix(StructuralKind.IBAR, n)
    j = structural_matrix(StructuralKind.J, n)
    z = structural_matrix(StructuralKind.Z, n)
    minus = DyadicMatrix(-np.eye(n, dtype=np.int64))
    b_hat = {
        "JAM": ident, "IV": ident,
        "I": ibar, "V": ibar,
        "II": minus @ ibar @ j, "VI": minus @ ibar @ j,
        "III": minus @ ibar @ z @ j, "VII": minus @ ibar @ z @ j,
    }[method]
    return b_hat, (j if method in ("IV", "V", "VI", "VII") else ident)


def _five_factor_product(t: DyadicMatrix, method: str) -> DyadicMatrix:
    """P · bd(I, B-hat) · bd(t, t) · bd(I, G-hat) · Bf, one literal product."""
    n = t.rows
    b_hat, g_hat = _reference_blocks(method, n)
    ident = DyadicMatrix(np.eye(n, dtype=np.int64))
    return (
        structural_matrix(StructuralKind.PERFECT_SHUFFLE, n)
        @ DyadicMatrix.block_diag(ident, b_hat)
        @ DyadicMatrix.block_diag(t, t)
        @ DyadicMatrix.block_diag(ident, g_hat)
        @ butterfly(n)
    )


def _five_factor_product_real(t: np.ndarray, b_hat, g_hat) -> np.ndarray:
    """The same product in float64, for a float seed and a (B-hat, G-hat)
    pair.  For the dyadic blocks every entry of the result is a single
    signed, possibly halved, entry of t, so the float product is exact."""
    n = len(t)
    eye, bd = np.eye(n), scipy.linalg.block_diag
    return (
        structural_matrix(StructuralKind.PERFECT_SHUFFLE, n).to_real()
        @ bd(eye, as_real(b_hat))
        @ bd(t, t)
        @ bd(eye, as_real(g_hat))
        @ butterfly(n).to_real()
    )


def _same_representation(a: DyadicMatrix, b: DyadicMatrix) -> bool:
    return a.shift == b.shift and np.array_equal(a.numerators(), b.numerators())


@pytest.mark.parametrize("method", DYADIC_METHOD_IDS)
def test_method_blocks_match_structural_products(method):
    for half in (1, 2, 7, 64):
        for got, want in zip(method_blocks(method, half), _reference_blocks(method, half)):
            assert _same_representation(got, want)


_LARGE = settings(max_examples=6, deadline=None, database=None, derandomize=True)
# every level up to 256 points is checked against the literal dyadic
# product; beyond that its int64 matmuls take seconds, so the float64
# product of the same factors, exact here, is the reference
_LITERAL_MAX = 256


@_LARGE
@given(
    approx_id=st.sampled_from(catalog.APPROXIMATION_IDS),
    chain=st.integers(4, 7).flatmap(
        lambda levels: st.lists(
            st.sampled_from(DYADIC_METHOD_IDS), min_size=levels, max_size=levels
        )
    ),
)
def test_index_built_doubling_matches_five_factor_product(approx_id, chain):
    t = catalog.load(approx_id).matrix
    for method in chain:
        doubled = scale(t, method).dyadic
        if doubled.rows <= _LITERAL_MAX:
            assert _same_representation(doubled, _five_factor_product(t, method))
        else:
            want = _five_factor_product_real(t.to_real(), *_reference_blocks(method, t.rows))
            assert np.array_equal(doubled.to_real(), want)
        t = doubled
    # scale_to carries each level's matrix instead of rebuilding it
    assert _same_representation(scale_to(catalog.load(approx_id).matrix, t.rows, chain).dyadic, t)


@pytest.mark.parametrize("method", METHOD_IDS)
def test_float_doubling_matches_five_factor_product(method):
    # a float seed is doubled from its two halves; the literal product of
    # the five factors is the reference, exact for the dyadic methods
    for n in (1, 2, 8, 64, 256):
        c = transform_matrix(TransformKind.DCT2, n)
        want = _five_factor_product_real(c, *method_blocks(method, n))
        got = scale(c, method).dense
        if method == "exact":
            assert np.max(np.abs(got - want)) <= 1e-13, n
        else:
            assert np.array_equal(got, want), n


# ── one level builder: raw numerators per level, one adoption ─────────────


def _per_level(t: DyadicMatrix, chain) -> DyadicMatrix:
    """Each level's halves stacked by vstack/hstack and gathered by P, then
    taken by the copying constructor, which reduces and checks every level."""
    for mid in chain:
        lv = _doubling(mid, t.rows)
        num = t.numerators()
        top, low = num << lv.shift, lv.mult[:, None] * (num * lv.signs)[lv.index]
        halves = np.vstack([np.hstack([top, top[:, ::-1]]), np.hstack([low[:, ::-1], -low])])
        t = DyadicMatrix(halves[lv.shuffle], t.shift + lv.shift)
    return t


def test_level_builder_matches_per_level_matrices_to_1024():
    # every member x method, each at one of N = 16...1024 so that every
    # member and every method meets every size, plus a mixed chain per member
    rng = np.random.default_rng(27)
    for i, approx_id in enumerate(catalog.APPROXIMATION_IDS):
        seed = catalog.load(approx_id).matrix
        chains = [(mid,) * (1 + (i + j) % 7) for j, mid in enumerate(DYADIC_METHOD_IDS)]
        chains.append(tuple(rng.choice(DYADIC_METHOD_IDS, size=7).tolist()))
        for chain in chains:
            below = _per_level(seed, chain[:-1])
            want = _per_level(below, chain[-1:])
            for got in (scale_to(seed, want.rows, chain), scale(below, chain[-1])):
                assert _same_representation(got.dyadic, want), (approx_id, chain)
                assert np.array_equal(got.dense, want.to_real())


def test_chain_maps_match_per_level_matrices_for_every_seed_size():
    # one gather per chain: every one- and two-level chain and seeded longer
    # ones, from dyadic seeds of 1, 2, 8 and 16 points and from a factored
    # 16-point seed, against a matrix per level; the maps, shared per
    # (chain, seed size), are read-only and in the narrowest dtypes
    rng = np.random.default_rng(28)
    singles = [(mid,) for mid in DYADIC_METHOD_IDS]
    pairs = [a + b for a in singles for b in singles]

    def random_seed(n):
        num = rng.choice([-1, 1], (n, n)) * rng.integers(1, 10, (n, n))
        return DyadicMatrix(num, int(rng.integers(0, 4)))

    factored = scale(catalog.load("lodct").matrix, "VI").factored
    seeds = [(s, s) for s in (random_seed(1), random_seed(2), catalog.load("bas2").matrix, random_seed(16))]
    for seed, want_seed in seeds + [(factored, factored.dyadic())]:
        n0 = want_seed.rows
        longer = [tuple(rng.choice(DYADIC_METHOD_IDS, size=k).tolist()) for k in range(3, 8) if n0 << k <= 512]
        for chain in singles + pairs + longer:
            got = scale_to(seed, n0 << len(chain), chain).dyadic
            assert _same_representation(got, _per_level(want_seed, chain)), (n0, chain)
            maps = scaler._chain_maps(chain, n0)
            assert not maps.idx.flags.writeable and not maps.coef.flags.writeable
            assert maps.gain == int(np.abs(maps.coef).max())
            assert maps.idx.dtype == np.min_scalar_type(n0 * n0 - 1)
            assert maps.coef.dtype == np.min_scalar_type(-maps.gain - 1)
            assert maps.idx.itemsize == 1 and maps.coef.itemsize <= 2
    # the largest map a sweep to N = 1024 holds: uint8 index, int16 factors
    maps = scaler._chain_maps(("VII",) * 7, 8)
    assert maps.idx.shape == (1024, 1024) and maps.idx.nbytes + maps.coef.nbytes <= 3 << 20


def test_chain_turns_to_float_at_its_first_exact_level():
    # the raw numerators of the dyadic levels give the first 'exact' level
    # the float seed that the reduced matrix gives; float from there on
    seed = catalog.load("abdct").matrix
    for chain in (("exact", "VI"), ("III", "exact"), ("VII", "III", "exact", "II", "VII")):
        k = chain.index("exact")
        dense = _per_level(seed, chain[:k]).to_real()
        for mid in chain[k:]:
            dense = scale(dense, mid).dense
        st = scale_to(seed, 8 << len(chain), chain)
        assert st.dyadic is None and st.factored is None
        assert np.array_equal(st.dense, dense), chain


def _seed_near_the_cap(low_bit: int) -> DyadicMatrix:
    """8 x 8 at shift 0: small entries with lowest bit ``low_bit``, and a peak
    of 2**61 (two entries) or, for odd entries, -(2**61 + 1)."""
    num = np.random.default_rng(61).integers(-(1 << 20), 1 << 20, (8, 8)) * 2 + low_bit
    if low_bit:
        num[2, 4] = -((1 << 61) + 1)
    else:
        num[0, 0], num[3, 5] = 1 << 61, -(1 << 61)
    return DyadicMatrix(num)


def test_even_seed_at_2_61_is_reduced_at_each_doubling_level():
    # a III or VII level doubles every top entry: 2**62, one past the cap,
    # until the level's common factor 2 comes out; a matrix per level took
    # the same path and accepted every chain
    seed = _seed_near_the_cap(0)
    for chain in (("III",), ("VII", "III"), ("III", "VII", "III"), ("VII", "JAM", "III", "II")):
        got = scale_to(seed, 8 << len(chain), chain).dyadic
        assert _same_representation(got, _per_level(seed, chain)), chain
        assert int(np.abs(got.numerators()).max()) == 1 << 61


def test_chain_past_62_bits_raises_where_a_matrix_per_level_raises():
    # odd entries at shift 0 with a peak of 2**61 + 1: the methods of gain 1
    # keep it, and the first III or VII level doubles it past the cap with
    # odd entries left, so no common factor can come out
    seed = _seed_near_the_cap(1)
    singles = [(mid,) for mid in DYADIC_METHOD_IDS]
    for chain in singles + [a + b for a in singles for b in singles]:
        builds = [lambda: _per_level(seed, chain), lambda: scale_to(seed, 8 << len(chain), chain).dyadic]
        if len(chain) == 1:
            builds.append(lambda: scale(seed, chain[0]).dyadic)
        if {"III", "VII"} & set(chain):
            for build in builds:
                with pytest.raises(OverflowError, match="^dyadic numerator exceeds 62 bits$"):
                    build()
        else:
            want, *got = (build() for build in builds)
            assert all(_same_representation(g, want) for g in got), chain


# max-abs error of scale_to(C8, n, "exact").c_hat against C_n in float64;
# B_N is a dense ±1 triangle, so the error grows about N/5-fold per level
_EXACT_CHAIN_ERROR = {64: 3.9e-14, 128: 1.1e-12, 256: 5.1e-11, 512: 5.2e-9, 1024: 1.0e-6}


@pytest.mark.parametrize("n", sorted(_EXACT_CHAIN_ERROR))
def test_exact_chain_error_stays_pinned(n):
    c_n = transform_matrix(TransformKind.DCT2, n)
    assert np.max(np.abs(scale_to(C8, n, "exact").c_hat - c_n)) <= 10 * _EXACT_CHAIN_ERROR[n]
    # one level from the exact half-size seed stays near machine precision
    half = transform_matrix(TransformKind.DCT2, n // 2)
    assert np.max(np.abs(scale(half, "exact").c_hat - c_n)) < 2e-13


def test_scale_of_factored_seed_matches_scale_to(monkeypatch):
    # a factored seed's matrix comes from its plan, not from the literal
    # product of its factors
    def no_product(self):
        raise AssertionError("scale rebuilt the seed from its factors")

    monkeypatch.setattr(FactoredTransform, "dyadic", no_product)
    chains = (("abdct", ("III", "VI")), ("bas2", ("VII", "IV", "III", "VI", "I", "II")))
    for approx_id, chain in chains:
        entry = catalog.load(approx_id)
        base = (entry.baseline_adds, entry.baseline_shifts)
        size = 8 << len(chain)
        below = scale_to(entry.matrix, size // 2, chain[:-1], base_cost=base)
        via_factors = scale(below.factored, chain[-1])
        carried = scale_to(entry.matrix, size, chain, base_cost=base)
        assert _same_representation(via_factors.dyadic, carried.dyadic)
        assert via_factors.factored == carried.factored
        assert np.array_equal(via_factors.c_hat, carried.c_hat)


@_LARGE
@given(
    approx_id=st.sampled_from(catalog.APPROXIMATION_IDS),
    chain=st.lists(st.sampled_from(DYADIC_METHOD_IDS), min_size=7, max_size=7),
)
def test_cost_recurrence_to_1024(approx_id, chain):
    # cost(2N) = 2 cost(N) + 2N adds + the cost of the two mixing stages,
    # which the final rescaling makes free for every dyadic method
    entry = catalog.load(approx_id)
    base = (entry.baseline_adds, entry.baseline_shifts)
    adds, shifts = base
    for level in range(1, len(chain) + 1):
        size = 8 << level
        factored = scale_to(entry.matrix, size, chain[:level], base_cost=base).factored
        left, right = factored.factors[1], factored.factors[3]
        mixing = tuple(a + b for a, b in zip(left.cost(), right.cost()))
        assert mixing == (0, 0)
        adds, shifts = 2 * adds + size + mixing[0], 2 * shifts + mixing[1]
        assert factored.cost() == (adds, shifts)
    assert (adds, shifts) == (128 * base[0] + 7 * 1024, 128 * base[1])


@pytest.mark.parametrize("size", (128, 1024))
def test_c_hat_orthogonal_for_diagonal_gram_seeds(size):
    rng = np.random.default_rng(size)
    levels = int(np.log2(size // 8))
    members = sorted(catalog.DIAGONAL_GRAM_IDS)
    for approx_id in members if size == 128 else members[::3]:
        chain = tuple(rng.choice(DYADIC_METHOD_IDS, size=levels).tolist())
        c_hat = scale_to(catalog.load(approx_id).matrix, size, chain).c_hat
        assert np.max(np.abs(c_hat @ c_hat.T - np.eye(size))) <= 1e-10, (approx_id, chain)


@pytest.mark.parametrize("size", (128, 512, 1024))
def test_pair_collapse_at_large_sizes(size):
    # II and III (and VI and VII) differ by a power-of-two row scaling at
    # every level, which the final rescaling removes; mixed chains included
    rng = np.random.default_rng(size + 1)
    levels = int(np.log2(size // 8))
    swap = {"III": "II", "VII": "VI"}
    for approx_id in ("rdct", "sdct", "bas2"):
        chain = tuple(rng.choice(DYADIC_METHOD_IDS, size=levels).tolist())
        if not set(chain) & set(swap):
            chain = ("VII",) + chain[1:]
        t = catalog.load(approx_id).matrix
        a = scale_to(t, size, chain).c_hat
        b = scale_to(t, size, tuple(swap.get(m, m) for m in chain)).c_hat
        assert np.max(np.abs(a - b)) <= 1e-12, (approx_id, chain)
    for pair in (("II", "III"), ("VI", "VII")):
        a, b = (scale_to(catalog.load("lodct").matrix, size, m).c_hat for m in pair)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_orthogonalize_scales_rows_like_the_diagonal_product():
    # c_hat is computed as a row scaling; it must equal sigma @ dense exactly
    for approx_id in catalog.APPROXIMATION_IDS:
        t = catalog.load(approx_id).matrix
        for method in DYADIC_METHOD_IDS:
            for size in (16, 128):
                scaled = scale_to(t, size, method)
                assert np.array_equal(scaled.c_hat, scaled.sigma @ scaled.dense)


# ── the shared method-only part of a doubling ─────────────────────────────


def _shared_arrays(mid: str, half: int) -> list[np.ndarray]:
    """Every array ``_doubling`` hands out: its own and its gathers'."""
    lv = _doubling(mid, half)
    arrays = [lv.shuffle, lv.index, lv.mult, lv.signs]
    for f in lv.factors[:3]:
        g = f.payload
        arrays += [a for a in (g.index, g.mult, g._column, g._real) if a is not None]
    return arrays


@pytest.mark.parametrize("method", DYADIC_METHOD_IDS)
def test_shared_doubling_arrays_are_read_only(method):
    for half in (1, 4, 32):
        arrays = _shared_arrays(method, half)
        want = [a.copy() for a in arrays]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7
            with pytest.raises(ValueError, match="read-only"):
                a *= 3
        again = _shared_arrays(method, half)
        assert all(b is a for a, b in zip(arrays, again))
        assert all(np.array_equal(a, w) for a, w in zip(again, want))
    # a seed's doubling hands out the same gathers, as read-only
    factored = scale_to(catalog.load("rdct").matrix, 16, method).factored
    for f in factored.factors[:2]:
        with pytest.raises(ValueError, match="read-only"):
            f.payload.index[0] = 1


def _build(approx_id: str, size: int, method) -> tuple:
    entry = catalog.load(approx_id)
    st = scale_to(entry.matrix, size, method, base_cost=(entry.baseline_adds, entry.baseline_shifts))
    return st, (
        st.dyadic.numerators().tobytes(),
        st.dyadic.shift,
        st.c_hat.tobytes(),
        st.factored.cost(),
        st.factored.describe(),
        str(st.factored.plan),
    )


def test_shared_doublings_match_builds_from_a_cleared_cache():
    rng = np.random.default_rng(15)
    cases = [(a, n, m) for n in (16, 32, 64) for m in DYADIC_METHOD_IDS for a in catalog.APPROXIMATION_IDS]
    for size in (128, 256):
        cases += [("bas2", size, tuple(rng.choice(DYADIC_METHOD_IDS, size=size.bit_length() - 4)))]
    shared = {case: _build(*case) for case in cases}
    for case in cases:
        _doubling.cache_clear()
        assert _build(*case)[1] == shared[case][1], case
    # the members at one (method, N) share the doubling's four method-only
    # factors, whose gather costs are counted once and kept
    for n in (16, 32, 64):
        for m in DYADIC_METHOD_IDS:
            first, *rest = (shared[(a, n, m)][0].factored.factors for a in catalog.APPROXIMATION_IDS)
            for factors in rest:
                assert all(factors[k] is first[k] for k in (0, 1, 3, 4)), (n, m)
                assert factors[2] is not first[2]
            assert all("cost" in first[k].payload.__dict__ for k in (0, 1, 3))


def test_doubling_cache_holds_a_full_sweep():
    # 8 methods x 7 levels from 8 to 1024 points: the second pass is all hits
    t = catalog.load("rdct").matrix
    _doubling.cache_clear()
    for expected_misses in (7 * len(DYADIC_METHOD_IDS), 0):
        before = _doubling.cache_info().misses
        for method in DYADIC_METHOD_IDS:
            scale_to(t, 1024, method)
            info = _doubling.cache_info()
            assert info.currsize <= info.maxsize
        assert _doubling.cache_info().misses - before == expected_misses
