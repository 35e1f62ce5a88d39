"""Doubling maps that grow an N-point transform into a 2N-point one.

The exact doubling factorization carries a scalar sqrt(2)/2 and two dense
real mixing blocks.  The scaling methods here replace those blocks with
cheap sign/permutation matrices (or the identity), drop the scalar, and
repair row norms once at the end via diagonal orthogonalization.  Every
intermediate stage then stays dyadic, so the doubled transform inherits
the multiplierless character of its seed.

Method registry (B-hat, G-hat per half-size N):

    JAM  (I, I)        IV  (I, J)
    I    (Ibar, I)     V   (Ibar, J)
    II   (-Ibar J, I)  VI  (-Ibar J, J)
    III  (-Ibar Z J, I) VII (-Ibar Z J, J)
    exact (B_N, G_N)   -- reproduces the exact transform up to row scaling

with J the alternating-sign diagonal, Ibar the counter identity and Z the
identity with leading entry 1/2.

Every doubling is built from its two halves in O(N^2): with the butterfly
multiplied out, they are ``[T, T Ibar]`` and ``[B-hat T G-hat Ibar,
-B-hat T G-hat]``, Ibar a column reversal, and the perfect shuffle P
interleaves their rows, written in place through an (N, 2, 2N) view.  A
dyadic B-hat is a signed row gather and G-hat a column sign, applied to one
int64 numerator array over a common shift or to a float seed; 'exact' takes
B_N T G_N as one N x N float product.  ``_doubling`` reads the index,
multiplier and sign arrays from the gather triples of J, Ibar and Z in
``exact``, with no sign, reversal or halving arithmetic of its own; they are
the gather factors of ``P · bd(I, B-hat) · bd(T, T) · bd(I, G-hat) · Bf``,
whose bd(T, T) is two copies of the level below, so no gather is expanded
into an N x N matrix.  All factors but bd(T, T) depend on the method and N
only: ``_doubling`` builds those four and their arrays once per (method, N)
in a bounded cache, and every seed's doubling shares them, so they are
read-only.

Since B-hat and G-hat are signed permutations with power-of-two entries,
every entry of a dyadic chain's last level is +-2**k times one entry of the
seed, and which entry and which factor depend on the chain and the seed size
only.  ``_chain_maps`` runs the level recursion once on that index and factor,
in a bounded cache, and ``scale`` and ``scale_to`` share one builder,
``_scaled``, which makes the chain's levels up to its first 'exact' one in one
gather of the seed's numerators, adopted once as a DyadicMatrix, and scales
its float image's rows in place; ``scale`` of a factored seed takes the
seed's matrix from its compiled plan.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .catalog import _row_scale
from .exact import (
    counter_identity,
    counter_mixing,
    gather_matrix,
    half_leading_diagonal,
    perfect_shuffle,
    sign_diagonal,
    signed_cosine_diagonal,
)
from .fastpath import Factor, FactoredTransform
from .matkit import (
    NUMERATOR_BITS,
    DyadicMatrix,
    _integer,
    aligned_numerators,
    as_real,
    is_diagonal,
    is_generalized_permutation,
)

METHOD_IDS: tuple[str, ...] = ("JAM", "I", "II", "III", "IV", "V", "VI", "VII", "exact")
DYADIC_METHOD_IDS: tuple[str, ...] = METHOD_IDS[:-1]


def normalize_method(method: str) -> str:
    m = str(method).strip()
    for candidate in (m, m.upper(), m.lower()):
        if candidate in METHOD_IDS:
            return candidate
    raise ValueError(
        f"unknown scaling method {method!r}; choose from {', '.join(METHOD_IDS)}"
    )


# the method-only part of a dyadic doubling at half-size N: P's gather index, B-hat's and
# G-hat's arrays, and P, bd(I, B-hat), bd(I, G-hat), Bf
_Doubling = namedtuple("_Doubling", "shuffle index mult shift signs factors")


@lru_cache(maxsize=128)  # above 8 methods x 10 half-sizes 1...512, so a sweep never evicts
def _doubling(mid: str, half: int) -> _Doubling:
    """The method-only part of a dyadic doubling at half-size ``half``, built
    once per (method, half-size) and shared by every seed's doubling, so every
    array in it, the gathers' own included, is read-only.

    B-hat is the gather triple ``(index, mult, shift)`` and G-hat ``diag(signs)``,
    read from the J, Ibar and Z of ``exact``.  Along DYADIC_METHOD_IDS, B-hat
    runs through I, Ibar, -Ibar J, -Ibar Z J twice, and G-hat is I for the
    first four methods and J for the last four, as in the module registry.
    """
    g_is_j, b_kind = divmod(DYADIC_METHOD_IDS.index(mid), 4)
    rows, j, _ = sign_diagonal(half)
    _, z, z_shift = half_leading_diagonal(half)
    ones = np.ones(half, dtype=np.int64)
    # B-hat is I or Ibar D / 2**shift, D one of I, -J, -Z J: Ibar reads D's rows in reverse
    d, shift = ((ones, 0), (ones, 0), (-j, 0), (-z * j, z_shift))[b_kind]
    index = counter_identity(half)[0] if b_kind else rows
    mult = d[index]
    signs = j if g_is_j else ones
    shuffle = perfect_shuffle(half)
    for a in (shuffle, index, mult, signs):
        a.setflags(write=False)
    # the half-magnitude entry of methods III/VII (shift 1) is absorbed by the
    # final rescaling, so their mixing stage is declared shift-free
    mixing = Factor.gather(
        np.concatenate([rows, half + index]),
        np.concatenate([ones << shift, mult]),
        shift,
        declared_cost=(0, 0) if shift else None,
    )
    sign = Factor.gather(np.arange(2 * half), np.concatenate([ones, signs]))
    factors = (Factor.gather(shuffle), mixing, sign, Factor.butterfly(2 * half))
    return _Doubling(shuffle, index, mult, shift, signs, factors)


# a dyadic chain's levels as one gather from its seed: the last level's raw
# numerators are ``coef * seed_numerators.ravel()[idx]`` over the seed's shift
# plus ``shift``, and ``gain`` is the largest |coef|
_ChainMap = namedtuple("_ChainMap", "idx coef shift gain")


@lru_cache(maxsize=64)  # above the 36 chains of the benchmark's design sweep, so it never thrashes
def _chain_maps(chain: tuple[str, ...], n0: int) -> _ChainMap:
    """The gather of the dyadic ``chain`` from any ``n0``-point seed, built once
    per (chain, seed size) by running the level recursion on the index of each
    seed entry and its power-of-two factor, so it is shared and read-only.

    Both are built in the narrowest dtype that holds them.  A level doubles a
    factor at most, and only where its shift is 1, so ``|coef|`` is at most
    2**shift: int8 up to six such levels and int16 up to fourteen.  A seed of
    up to 16 points has a uint8 index, so its N-point map takes at most
    3 N**2 bytes: 3 MB at N = 1024, and 192 MB for a full cache of them.
    """
    levels = [_doubling(mid, n0 << k) for k, mid in enumerate(chain)]
    shift = sum(lv.shift for lv in levels)
    # signed and 1-based while stacked, so the abs undoes the negated lower-right block
    idx = np.arange(1, n0 * n0 + 1, dtype=np.min_scalar_type(-n0 * n0)).reshape(n0, n0)
    coef = np.ones((n0, n0), dtype=np.min_scalar_type(-(1 << shift) - 1))
    for lv in levels:
        low = (coef * lv.signs.astype(coef.dtype))[lv.index]
        low *= lv.mult.astype(coef.dtype)[:, None]
        coef = _stack_halves(coef << lv.shift, low)
        idx = np.abs(_stack_halves(idx, idx[lv.index]))
    idx -= 1
    idx = idx.astype(np.min_scalar_type(n0 * n0 - 1))
    for a in (idx, coef):
        a.setflags(write=False)
    return _ChainMap(idx, coef, shift, int(np.abs(coef).max()))


def _gathered(seed: DyadicMatrix, maps: _ChainMap) -> DyadicMatrix:
    """The last level of a dyadic chain from its seed, in one gather adopted
    once.  Where the seed's peak times the chain's gain reaches 2**62 the same
    product is formed in Python ints, then reduced and checked: each level keeps
    the one below in its top half, so its reduced peak never falls along a
    chain, and this raises OverflowError exactly where a checked matrix per
    level would."""
    num, shift, peak = aligned_numerators(seed, 1)
    flat, shift = num.ravel(), shift + maps.shift
    if peak * maps.gain >= 1 << NUMERATOR_BITS:
        return DyadicMatrix._from_ints(flat.astype(object)[maps.idx] * maps.coef.astype(object), shift)
    out = flat.take(maps.idx)  # faster than flat[idx] for an index narrower than intp
    out *= maps.coef
    return DyadicMatrix._owning(out, shift)


def method_blocks(method: str, half: int):
    """Parameter pair (B-hat, G-hat) at half-size ``half``.

    Dyadic methods return DyadicMatrix pairs; 'exact' returns the real
    mixing blocks of the exact factorization.
    """
    mid = normalize_method(method)
    half = _integer(half)
    if half < 1:
        raise ValueError("half-size must be at least 1")
    if mid == "exact":
        return counter_mixing(half), signed_cosine_diagonal(half)
    lv = _doubling(mid, half)
    return gather_matrix(lv.index, lv.mult, lv.shift), gather_matrix(np.arange(half), lv.signs)


@dataclass(frozen=True, eq=False)
class ScaledTransform:
    """Result of one or more doublings.

    ``c_hat`` is the orthogonalized transform that the quality metrics
    evaluate: row k of the raw low-complexity matrix T_2N (``dense``, before
    any row rescaling) times ``row_scale[k]``, so ``c_hat = sigma @ dense``.
    ``dyadic`` and ``factored`` are populated when the seed and every method
    in the chain are dyadic, and ``dense`` is then read from ``dyadic``; the
    'exact' method and float seeds keep their float64 T_2N in ``raw``.
    """

    method: str
    c_hat: np.ndarray
    row_scale: np.ndarray
    dyadic: DyadicMatrix | None = None
    factored: FactoredTransform | None = None
    raw: np.ndarray | None = None

    @property
    def dense(self) -> np.ndarray:
        """T_2N as float64, a fresh array on each read where it is dyadic."""
        return self.raw if self.dyadic is None else self.dyadic.to_real()

    @property
    def sigma(self) -> np.ndarray:
        """The diagonal row scaling, ``diag(row_scale)``, as a fresh N x N array."""
        return np.diag(self.row_scale)

    @property
    def size(self) -> int:
        return self.c_hat.shape[0]


@dataclass(frozen=True)
class OrthogonalityCheck:
    """Sufficient conditions for the doubled transform to be orthogonal."""

    cond_i: bool  # seed Gram t t^T is diagonal
    cond_ii: bool  # G-hat G-hat^T is a scalar multiple of I
    cond_iii: bool  # B-hat is a generalized permutation
    orthogonal: bool


class _Seed(NamedTuple):
    """A seed transform: factored and dyadic, or a float matrix."""

    factored: FactoredTransform | None  # None for a float seed
    dyadic: DyadicMatrix | None  # None for a float seed
    dense: np.ndarray | None  # None for a dyadic seed

    @property
    def size(self) -> int:
        return self.dense.shape[0] if self.dyadic is None else self.dyadic.rows


def _coerce_seed(t, base_cost) -> _Seed:
    if isinstance(t, FactoredTransform):
        # the plan's exact image of the identity, in place of the literal
        # O(N^3) product of the factors
        return _Seed(t, t.apply_exact(np.eye(t.size, dtype=np.int64)), None)
    if isinstance(t, DyadicMatrix):
        if t.rows != t.cols:
            raise ValueError("seed transform must be square")
        if t.rows < 1:
            raise ValueError("seed transform must be at least 1x1")
        return _Seed(FactoredTransform(t.rows, (Factor.leaf(t, base_cost),)), t, None)
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("seed transform must be a square matrix")
    if arr.shape[0] < 1:
        raise ValueError("seed transform must be at least 1x1")
    return _Seed(None, None, arr)


def _stack_halves(top: np.ndarray, low: np.ndarray) -> np.ndarray:
    """P [[top, top Ibar], [low Ibar, -low]] with low = B-hat T G-hat, in one
    fresh array of their dtype.  P interleaves the halves' rows, so the four
    blocks are written through an (n, 2, 2n) view: row 2i is top's row i and
    row 2i + 1 is low's."""
    n = top.shape[0]
    halves = np.empty((n, 2, 2 * n), dtype=top.dtype)
    halves[:, 0, :n], halves[:, 0, n:], halves[:, 1, :n] = top, top[:, ::-1], low[:, ::-1]
    np.negative(low, out=halves[:, 1, n:])
    return halves.reshape(2 * n, 2 * n)


def _double_real(t: np.ndarray, mid: str) -> np.ndarray:
    """One float doubling from its halves; B-hat T G-hat is a signed row
    gather of t for the dyadic methods and one N x N product for 'exact'."""
    n = t.shape[0]
    if mid == "exact":
        return _stack_halves(t, counter_mixing(n) @ t * np.diag(signed_cosine_diagonal(n)))
    lv = _doubling(mid, n)
    return _stack_halves(t, lv.mult[:, None] * (t * lv.signs)[lv.index] * 0.5**lv.shift)


def _scaled(seed: _Seed, chain: tuple[str, ...]) -> ScaledTransform:
    """The doublings of ``seed`` along ``chain``, orthogonalized at the end.

    The dyadic levels before the first 'exact' one are one gather from the
    seed (``_chain_maps``, ``_gathered``); the factored form is still built
    level by level.  A float seed, or the first 'exact' level, turns the chain
    to float64 for good.  ``c_hat`` is the float image of the result, its rows
    scaled in place.
    """
    factored, dyadic, dense = seed
    dyadic_levels = 0 if dyadic is None else (chain + ("exact",)).index("exact")
    if dyadic_levels:
        dyadic = _gathered(dyadic, _chain_maps(chain[:dyadic_levels], dyadic.rows))
        for mid in chain[:dyadic_levels]:
            n = factored.size
            shuffle, mixing, sign, bf = _doubling(mid, n).factors
            factored = FactoredTransform(2 * n, (shuffle, mixing, Factor.block_diag(factored, 2), sign, bf))
    if dyadic_levels < len(chain):
        if dyadic is not None:
            dense, dyadic, factored = dyadic.to_real(), None, None
        for mid in chain[dyadic_levels:]:
            dense = _double_real(dense, mid)
    c_hat = dense.copy() if dyadic is None else dyadic.to_real()
    row_scale = _row_scale(c_hat)
    c_hat *= row_scale[:, None]
    return ScaledTransform(chain[-1], c_hat, row_scale, dyadic, factored, dense)


def scale(t, method: str, *, base_cost: tuple[int, int] | None = None) -> ScaledTransform:
    """Double ``t`` once: T_2N = P · bd(I, B-hat) · bd(t, t) · bd(I, G-hat) · Bf.

    ``base_cost`` optionally declares the seed's published (adds, shifts)
    so the factored cost model uses fast-algorithm counts instead of a
    naive dense count.  Ignored when ``t`` is already a FactoredTransform,
    and for a float seed, which has no factored form.
    """
    return _scaled(_coerce_seed(t, base_cost), (normalize_method(method),))


def scale_to(
    t,
    target: int,
    method,
    *,
    base_cost: tuple[int, int] | None = None,
) -> ScaledTransform:
    """Double ``t`` repeatedly until it reaches ``target`` points.

    ``method`` is a single method id (same method at every level) or a
    sequence of ids, one per doubling.  Row-norm orthogonalization applies
    once, to the final size only; intermediate transforms stay raw (and
    dyadic, for dyadic seeds and methods), and each level's numerators
    seed the next without being rebuilt from its factors.

    Chained 'exact' loses about two float64 digits per level past 128 points
    (B_N is a dense ±1 triangle): from C_8, the max-abs error vs C_N is
    4e-14, 1e-12, 5e-11, 5e-9 and 1e-6 at N = 64, 128, 256, 512 and 1024.
    """
    seed = _coerce_seed(t, base_cost)
    n = seed.size
    if target < 2 * n:
        raise ValueError(f"target size {target} must be at least twice the seed size {n}")
    levels = (int(target) // n).bit_length() - 1
    if n << levels != target:
        raise ValueError(f"target size {target} is not the seed size times a power of two")

    if isinstance(method, str):
        chain = (normalize_method(method),) * levels
    else:
        chain = tuple(normalize_method(m) for m in method)
        if len(chain) != levels:
            raise ValueError(
                f"{levels} doublings needed to reach {target}, got {len(chain)} methods"
            )
    return _scaled(seed, chain)


def check_orthogonality(t, method: str) -> OrthogonalityCheck:
    """Evaluate the three sufficient conditions for orthogonal doubling.

    When all three hold, the orthogonalized doubled transform satisfies
    c_hat c_hat^T = I.  They are not necessary: the 'exact' method fails
    (ii) and (iii) yet doubles orthogonal seeds into orthogonal results.
    """
    seed = _coerce_seed(t, None)
    b_hat, g_hat = method_blocks(method, seed.size)

    if seed.dyadic is not None:
        cond_i = is_diagonal((seed.dyadic @ seed.dyadic.T).to_real(), tol=0.0)
    else:
        cond_i = is_diagonal(seed.dense @ seed.dense.T, tol=1e-10)

    gg = as_real(g_hat) @ as_real(g_hat).T
    cond_ii = is_diagonal(gg, tol=1e-12) and bool(
        np.allclose(np.diag(gg), gg[0, 0], rtol=0.0, atol=1e-12)
    )
    cond_iii = is_generalized_permutation(b_hat)
    return OrthogonalityCheck(
        cond_i=bool(cond_i),
        cond_ii=bool(cond_ii),
        cond_iii=bool(cond_iii),
        orthogonal=bool(cond_i and cond_ii and cond_iii),
    )
