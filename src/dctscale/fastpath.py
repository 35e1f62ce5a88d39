"""Factored transforms with exact addition/bit-shift accounting.

A scaled transform is a short product of structured factors, one kind per
structural idea of the doubling ``P · bd(I, B-hat) · bd(T, T) · bd(I, G-hat) · Bf``:

* a *gather* ``y[i] = mult[i] / 2**shift * x[index[i]]`` holds the perfect
  shuffle P, the mixing stage bd(I, B-hat) and the sign stage bd(I, G-hat)
  as O(N) index and multiplier arrays;
* a *butterfly* adds and subtracts the two halves;
* a *block-diag* is ``count`` identical copies of one factored block;
* a *leaf* is a dense dyadic seed block, such as a catalog 8x8 matrix.

Keeping the factors instead of the dense product gives two things: a
multiplierless application path that is bit-exact on integer input, and
an arithmetic-cost model where additions and shifts are counted per
factor.  Any factor may carry a ``declared_cost`` in place of its counted
one; a catalog leaf declares its published fast-algorithm count.

:func:`apply` runs ints, bools, dyadic rationals and DyadicMatrix input exactly;
each exact result is one :class:`DyadicMatrix`, int64 numerators over one
power-of-two shift shaped like the input, (N,) or (N, B), which can be
applied again.  The rest runs in float and comes back as a float64 array.
Both paths run a :class:`Plan` built on first use by one rewrite pass: one flat
list of numpy stages on the whole ``(..., N, B)`` array, each level's butterfly
running once over all its blocks.  The rows run in a *pair order*, picked once
by one gather in front of each run of butterflies, in which every butterfly
finds the two rows it adds and subtracts half a block apart, so that each
level is one add and one subtract over contiguous halves; as in Stockham's
autosort FFT, no stage has to reorder the rows.  In that order each run of up
to four consecutive levels is one matmul with a ±1 Hadamard matrix, one BLAS
call on float input where numpy would make a pass over the data per add and
per subtract.  The plan tracks where each row sits as a signed permutation:
the sign stages only change its signs, the leaf takes it into its columns, and
up to N = 128 the leaf writes its rows where the shuffles put them, ending the
plan.  The stages work on numerators: integer input stays exact (``growth``
raises OverflowError before int64 could wrap), and an integer batch runs on
the float64 stages where ``growth`` proves them exact; float input in float64.
One exact vector runs the same int64 stages flat, one numpy call each.
"""
from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .exact import butterfly, gather_matrix
from .matkit import (
    NUMERATOR_BITS,
    DyadicMatrix,
    _INT64,
    _as_int_array,
    _guard,
    _integer,
    _peak,
    aligned_numerators,
)

Cost = tuple[int, int]  # (additions, bit shifts)
_LEVELS = 4  # most butterfly levels run as one product: 2**levels multiply-adds a value


class FactorKind(Enum):
    GATHER = "gather"
    BUTTERFLY = "butterfly"
    BLOCK_DIAG = "block-diag"
    LEAF = "leaf"


def count_dense_dyadic(m: DyadicMatrix) -> Cost:
    """Naive dense cost of a dyadic matrix.

    adds = sum over rows of max(nonzeros - 1, 0); one shift per entry whose
    magnitude is neither 0 nor 1 (multiplying by +-2 or +-1/2 is a shift,
    0 and +-1 are free).  Counted with numpy on the numerator array: the
    adds are the nonzeros less the nonempty rows, the shifts the nonzeros
    less the unit entries.
    """
    mag = np.abs(m.numerators())
    nonzeros = np.count_nonzero(mag)
    adds = nonzeros - np.count_nonzero(mag.any(axis=1))
    # a unit entry has numerator +-2**shift; numerators stay below that
    # from NUMERATOR_BITS on, so there no entry is a unit
    units = 0
    if m.shift < NUMERATOR_BITS:
        units = np.count_nonzero(mag == 1 << m.shift)
    return int(adds), int(nonzeros - units)


def _add_costs(a: Cost, b: Cost) -> Cost:
    return (a[0] + b[0], a[1] + b[1])


@dataclass(frozen=True)
class Factor:
    """One structured stage of a factored transform.

    ``payload`` is the stage's data: a :class:`_Gather` for a gather, the
    repeated :class:`FactoredTransform` for a block-diag (the count is
    ``size // payload.size``), the :class:`DyadicMatrix` for a leaf, and
    None for a butterfly.
    """

    kind: FactorKind
    size: int
    payload: object = None
    declared_cost: Cost | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def gather(
        cls, index, mult=None, shift: int = 0, declared_cost: Cost | None = None
    ) -> "Factor":
        """``y[i] = mult[i] / 2**shift * x[index[i]]``; ``mult`` defaults to ones."""
        shift = _integer(shift)
        g = _Gather(_as_int_array(index), None if mult is None else _as_int_array(mult), shift)
        n = g.index.size
        if g.index.ndim != 1 or (n and not 0 <= g.index.min() <= g.index.max() < n):
            raise ValueError("gather index must be a vector of positions below its length")
        if mult is not None and np.shape(mult) != (n,):
            raise ValueError("gather needs one multiplier per output")
        if not 0 <= shift < NUMERATOR_BITS:
            raise ValueError(f"gather shift must lie in [0, {NUMERATOR_BITS})")
        return cls(FactorKind.GATHER, n, g, declared_cost)

    @classmethod
    def leaf(cls, m: DyadicMatrix, declared_cost: Cost | None = None) -> "Factor":
        if m.rows != m.cols:
            raise ValueError("leaf factor must be square")
        return cls(FactorKind.LEAF, m.rows, m, declared_cost)

    @classmethod
    def block_diag(cls, block: "FactoredTransform", count: int) -> "Factor":
        count = _integer(count)
        if count < 1:
            raise ValueError("block-diagonal factor needs at least one block")
        return cls(FactorKind.BLOCK_DIAG, count * block.size, block)

    @classmethod
    def butterfly(cls, size: int) -> "Factor":
        size = _integer(size)
        if size < 2 or size % 2:
            raise ValueError("butterfly size must be a positive even number")
        return cls(FactorKind.BUTTERFLY, size)

    # -- cost --------------------------------------------------------------

    def cost(self) -> Cost:
        """The declared (adds, shifts) where there is one, else the counted."""
        return self.counted_cost() if self.declared_cost is None else self.declared_cost

    def counted_cost(self) -> Cost:
        if self.kind is FactorKind.GATHER:
            return self.payload.cost
        if self.kind is FactorKind.BUTTERFLY:
            return (self.size, 0)
        if self.kind is FactorKind.BLOCK_DIAG:
            count = self.size // self.payload.size
            adds, shifts = self.payload.cost()
            return (count * adds, count * shifts)
        return count_dense_dyadic(self.payload)

    # -- dense view --------------------------------------------------------

    def dyadic(self) -> DyadicMatrix:
        if self.kind is FactorKind.GATHER:
            return gather_matrix(self.payload.index, self.payload.mult, self.payload.shift)
        if self.kind is FactorKind.BUTTERFLY:
            return butterfly(self.size // 2)
        if self.kind is FactorKind.BLOCK_DIAG:
            count = self.size // self.payload.size
            return reduce(DyadicMatrix.block_diag, [self.payload.dyadic()] * count)
        return self.payload

    # -- application -------------------------------------------------------

    def apply_exact(self, x) -> DyadicMatrix:
        return FactoredTransform(self.size, (self,)).apply_exact(x)

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        return FactoredTransform(self.size, (self,)).apply_real(x)

    def describe(self) -> dict:
        """Kind, size and cost, plus the structure: a gather's arrays, a
        block-diag's count and block, a leaf's entries.  A declared cost
        also reports the ``counted`` one it replaces."""
        adds, shifts = self.cost()
        info: dict = {"kind": self.kind.value, "size": self.size, "adds": adds, "shifts": shifts}
        if self.declared_cost is not None:
            info["counted"] = list(self.counted_cost())
        if self.kind is FactorKind.GATHER:
            g = self.payload
            info.update(index=g.index.tolist(), mult=g.multipliers().tolist(), shift=g.shift)
        elif self.kind is FactorKind.BLOCK_DIAG:
            info.update(count=self.size // self.payload.size, block=self.payload.describe())
        elif self.kind is FactorKind.LEAF:
            info["entries"] = [[str(e) for e in row] for row in self.payload.entries()]
        return info


@dataclass(frozen=True)
class FactoredTransform:
    """Ordered product of factors; ``factors[0]`` is the leftmost matrix."""

    size: int
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            if f.size != self.size:
                raise ValueError(
                    f"factor of size {f.size} inside a transform of size {self.size}"
                )

    def cost(self) -> Cost:
        return reduce(_add_costs, (f.cost() for f in self.factors), (0, 0))

    def dyadic(self) -> DyadicMatrix:
        """The factors' product from the right (:func:`_times`)."""
        return _times(self.factors[:-1], self.factors[-1].dyadic())

    @cached_property
    def plan(self) -> "Plan":
        """The compiled stages, built on first application and kept."""
        return Plan(self.size, [st for f in reversed(self.factors) for st in _compile(f)])

    def apply_exact(self, x) -> DyadicMatrix:
        return self.plan.apply_exact(x)

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        return self.plan.apply_real(x)

    def describe(self) -> dict:
        adds, shifts = self.cost()
        return {
            "size": self.size,
            "adds": adds,
            "shifts": shifts,
            "factors": [f.describe() for f in self.factors],
        }


def _times(factors: tuple, out: DyadicMatrix) -> DyadicMatrix:
    """The product of ``factors`` and ``out``, each factor acting on the rows of
    the running product in O(N²), where int64 holds its sums: a gather takes
    signed rows, a butterfly adds and subtracts mirrored rows, and a
    block-diag applies its block's factors to all its row blocks set side by
    side.  Results are adopted, as a gain check bounds them below 2**62 and
    rows set side by side stay canonical; a leaf, and a gather or butterfly
    that could pass 62 bits, take the dense product, which checks them."""
    for f in reversed(factors):
        num, g = out._num, f.payload
        gain = g.norm if f.kind is FactorKind.GATHER else 2
        if f.kind is FactorKind.BLOCK_DIAG:
            m, cols = g.size, num.shape[1]
            side = _times(g.factors, DyadicMatrix._owning(num.reshape(-1, m, cols).swapaxes(0, 1).reshape(m, -1), out.shift))
            out = DyadicMatrix._owning(side._num.reshape(m, -1, cols).swapaxes(0, 1).reshape(f.size, cols), side.shift)
        elif f.kind is FactorKind.LEAF or gain * _peak(num) >= 1 << NUMERATOR_BITS:
            out = f.dyadic() @ out
        elif f.kind is FactorKind.GATHER:
            out = DyadicMatrix._owning(g.multipliers()[:, None] * num[g.index], out.shift + g.shift)
        else:
            h = f.size // 2
            out = DyadicMatrix._owning(np.concatenate([num[:h] + num[: h - 1 : -1], num[h - 1 :: -1] - num[h:]]), out.shift)
    return out


# -- the application engine ------------------------------------------------


class _Gather:
    """``y[i] = mult[i] * x[index[i]]`` over ``2**shift``, and on float input times
    ``scale``.  A gather factor's payload and its plan stage are one object,
    which transforms may share (``scaler`` shares each doubling's gathers), so
    its arrays are read-only and its cost is counted once."""

    def __init__(self, index, mult=None, shift: int = 0, scale: float = 1.0):
        # ndarray.take copies a read-only index per call: the writable owner stays private
        self._take = np.require(index, np.intp, "W")
        self.index = self._take.view()
        self.unpermuted = bool(np.array_equal(self.index, np.arange(self.index.size)))
        mult = None if mult is None else np.asarray(mult, dtype=np.int64)
        self.mult = None if mult is None or np.all(mult == 1) else mult
        self._column = None if self.mult is None else self.mult[:, None]
        scaled = self.mult is not None or scale != 1
        self._real = self.multipliers()[:, None] * scale if scaled else None
        self.shift, self.scale = shift, scale
        self.norm = 1 if self.mult is None else int(np.abs(self.mult).max(initial=0))
        for a in (self.index, self.mult, self._column, self._real):
            if a is not None:
                a.setflags(write=False)

    def multipliers(self) -> np.ndarray:
        return np.ones(self.index.size, np.int64) if self.mult is None else self.mult

    @cached_property
    def permutes(self) -> bool:
        return bool(np.array_equal(np.sort(self.index), np.arange(self.index.size)))

    @cached_property
    def cost(self) -> Cost:
        """No adds; one shift per nonzero multiplier of magnitude other than 2**shift."""
        mag = np.abs(self.multipliers())
        return (0, int(np.count_nonzero((mag != 0) & (mag != 1 << self.shift))))

    def then(self, other: "_Gather") -> "_Gather":
        """One gather doing ``self`` first, then ``other``."""
        theirs = 1 if other.mult is None else other.mult
        mult = self.multipliers()[other.index] * theirs
        return _Gather(self.index[other.index], mult, self.shift + other.shift, self.scale * other.scale)

    def tiled(self, count: int) -> "_Gather":
        """The same gather on each of ``count`` consecutive blocks."""
        mult = None if self.mult is None else np.tile(self.mult, count)
        return _Gather(_tiled(self.index, count * self.index.size), mult, self.shift)

    def run(self, x: np.ndarray, cols: int) -> np.ndarray:
        x = x.reshape(-1, self.index.size, cols)
        column = self._real if x.dtype.kind == "f" else self._column
        if self.unpermuted:  # nothing to move; a fresh result all the same
            return np.positive(x) if column is None else np.multiply(x, column)
        # the method skips np.take's dispatch; "clip" skips the bounds check, done when built
        x = x.take(self._take, axis=1, mode="clip")
        return x if column is None else np.multiply(x, column, out=x)

    def vector(self, x: np.ndarray) -> np.ndarray:
        """``run`` on one int64 vector of the plan's size, flat."""
        if self.unpermuted:
            return np.positive(x) if self.mult is None else np.multiply(x, self.mult)
        x = x.take(self._take, mode="clip")
        return x if self.mult is None else np.multiply(x, self.mult, out=x)

    def __str__(self) -> str:
        n = self.index.size
        if self.mult is None:
            return f"gather {n}, shift {self.shift}"
        verb = "scale" if self.unpermuted else "signed gather"
        return f"{verb} {n}, multipliers {_set(self.mult)}, shift {self.shift}"


class _BlockStage:
    """A stage run on ``count`` equal blocks at once."""

    def tiled(self, count: int) -> "_BlockStage":
        tiled = copy.copy(self)  # the arrays are shared
        tiled.count *= count
        return tiled

    def _on(self) -> str:
        return f" on {self.count} blocks" if self.count > 1 else ""


class _Butterfly(_BlockStage):
    """``levels`` butterfly levels, the first on ``count`` blocks of ``2 * half``
    rows.  A level pairs rows ``i`` and ``2h - 1 - i`` of each of its blocks
    into their sum, kept in the top row, and difference.  Run in pair order,
    where those partners sit ``h`` rows apart, a level turns each block's top
    half ``t`` and bottom half ``b`` into ``[t + b, t - b]``, so the levels
    together are the ±1 Hadamard matrix of ``k = 2**levels`` rows, rows
    possibly reordered, acting on each first block cut into ``k`` slices of
    ``rows`` rows, and the stage runs as one matmul with that matrix: a BLAS
    call on float input, numpy's own loop on int64."""

    shift, slices = 0, None

    def __init__(self, count: int, half: int, levels: int = 1):
        self.count, self.half, self.levels, self.rows = count, half, levels, 2 * half >> levels
        self.k = self.norm = 1 << levels
        h = reduce(np.kron, [np.array([[1, 1], [1, -1]])] * levels, np.ones((1, 1), np.int64))
        self.hadamard, self.hadamard_real = h, h.astype(np.float64)

    def then(self, bf: "_Butterfly") -> "_Butterfly | None":
        """``self`` and then ``bf`` as one stage, where ``bf`` is the level below
        its last and the run stays short enough to gain from one product."""
        below = bf.count == self.count << self.levels and bf.half << self.levels == self.half
        return _Butterfly(self.count, self.half, self.levels + 1) if below and self.levels < _LEVELS else None

    def run(self, x: np.ndarray, cols: int) -> np.ndarray:
        x = x.reshape(-1, self.k, self.rows * cols)
        return np.matmul(self.hadamard_real if x.dtype.kind == "f" else self.hadamard, x)

    def vector(self, x: np.ndarray) -> np.ndarray:
        """``run`` on one int64 vector: the ``count`` first blocks stay apart."""
        return np.matmul(self.hadamard, x.reshape(-1, self.k, self.rows)).reshape(-1)

    def __str__(self) -> str:
        size = 2 * self.half
        tail = "" if self.slices is None else f", slices in order {self.slices.tolist()}"
        tail += f", shift {self.shift}" if self.shift else ""
        if self.levels == 1:
            return f"butterfly {size}{self._on()}: add and subtract contiguous halves{tail}"
        last = size >> (self.levels - 1)
        return f"butterflies {size} to {last}{self._on()}: one ±1 product of {self.k} rows{tail}"


class _Dense(_BlockStage):
    """A dense numerator product ``num @ x`` over ``2**shift`` on each block.  As
    run, a block may hold its own numerators: columns permuted and signed to
    read its rows in pair order, and, ending the plan, rows times the
    multipliers of the gather it took in; where it ``interleaves``, it writes
    row ``j`` of the block in place ``s`` to row ``j * count + s``, where that
    gather would put it."""

    def __init__(self, m: DyadicMatrix, count: int = 1):
        self.m, self.count, self.block = m, count, m.rows
        self.shift = m.shift
        self.norm = m.row_norm()
        self.num = m.numerators()
        self.num_real = self.num.astype(np.float64)
        self.paired, self.rows, self.interleaves = False, None, False

    def reading(self, layout: "_Layout") -> "_Dense":
        """This product on blocks stored in ``layout``, each holding one block."""
        m = self.m.rows
        cols = (layout.row % m).reshape(self.count, 1, m)
        signs = layout.sign.reshape(self.count, 1, m)
        st = copy.copy(self)
        st.num = self.num[np.arange(m)[:, None], cols] * signs
        st.num_real = self.num_real[np.arange(m)[:, None], cols] * signs
        st.paired = True
        return st

    def run(self, x: np.ndarray, cols: int) -> np.ndarray:
        x = x.reshape(-1, self.count, self.block, cols)
        num = self.num_real if x.dtype.kind == "f" else self.num
        if not self.interleaves:
            return np.matmul(num, x)
        out = np.empty((len(x), self.block, self.count, cols), x.dtype)
        np.matmul(num, x, out=out.swapaxes(1, 2))
        return out

    def vector(self, x: np.ndarray) -> np.ndarray:
        """``run`` on one int64 vector; interleaved rows take one transposed copy."""
        y = np.matmul(self.num, x.reshape(self.count, self.block, 1))
        return (y.reshape(self.count, self.block).T if self.interleaves else y).ravel()

    def __str__(self) -> str:
        cols = ", columns in pair order" if self.paired else ""
        rows = "" if self.rows is None else f", row multipliers {_set(self.rows)}"
        into = ", rows interleaved into place" if self.interleaves else ""
        return f"dense {self.m.rows}x{self.m.rows} product{self._on()}{cols}{rows}{into}, shift {self.shift}"


def _set(values: np.ndarray) -> str:
    return "{" + ", ".join(str(v) for v in sorted(set(values.tolist()))) + "}"


def _compile(f: Factor) -> list:
    """The stages of one factor in application order; a block-diag's are tiled."""
    if f.kind is FactorKind.GATHER:
        return [f.payload]
    if f.kind is FactorKind.BUTTERFLY:
        return [_Butterfly(1, f.size // 2)]
    if f.kind is FactorKind.BLOCK_DIAG:
        return [st.tiled(f.size // f.payload.size) for st in f.payload.plan.stages]
    return [_Dense(f.payload)]


def _push_gather(out: list, g: _Gather) -> None:
    """Append ``g`` to ``out``, merged into a gather that ends it; drop unscaled identities."""
    # fused multipliers are int64 products, so only small ones are merged
    if out and isinstance(out[-1], _Gather) and out[-1].norm * g.norm < 1 << NUMERATOR_BITS:
        g = out.pop().then(g)
    if not (g.unpermuted and g._real is None and not g.shift):
        out.append(g)


def _fused(stages: list) -> list:
    """Merge runs of gathers and drop identities."""
    out: list = []
    for st in stages:
        if isinstance(st, _Gather):
            _push_gather(out, st)
        else:
            out.append(st)
    return out


class _Layout:
    """Where the rows of the data are stored as a plan runs: storage row ``p``
    holds ``sign[p]`` times logical row ``row[p]``, a signed permutation."""

    def __init__(self, row: np.ndarray, sign: np.ndarray | None = None):
        self.row = row
        self.sign = np.ones(row.size, np.int64) if sign is None else sign

    def is_identity(self) -> bool:
        return bool(np.all(self.sign == 1)) and np.array_equal(self.row, np.arange(self.row.size))

    def gather_to(self, order: np.ndarray) -> _Gather:
        """The gather that stores logical row ``order[q]`` in row ``q``, sign +1."""
        where = np.empty_like(self.row)
        where[self.row] = np.arange(self.row.size)
        index = where[order]
        return _Gather(index, self.sign[index])

    def then(self, g: _Gather) -> "_Layout":
        """The layout once the signed permutation ``g`` has acted, no row moved."""
        row = np.argsort(g.index)[self.row]
        return _Layout(row, self.sign * g.multipliers()[row])

    def pairs(self, bf: _Butterfly) -> bool:
        """Whether each pair of the butterfly sits ``half`` rows apart in one block."""
        r = self.row.reshape(bf.count, 2, bf.half)
        block = 2 * bf.half
        top, bottom = r[:, 0], r[:, 1]
        partners = (top // block == bottom // block) & (top % block + bottom % block == block - 1)
        return bool(np.all(partners))

    def after(self, bf: _Butterfly) -> "_Layout":
        """The layout once ``bf`` has run: a pair's sum lands in its top row and its
        difference in the bottom one, swapped where the pair's two signs differ."""
        r = self.row.reshape(bf.count, 2, bf.half)
        s = self.sign.reshape(bf.count, 2, bf.half)
        low, high = r.min(axis=1), r.max(axis=1)
        same = s[:, 0] == s[:, 1]
        sum_sign = s[:, 0]
        diff_sign = np.where(r[:, 0] == low, sum_sign, -sum_sign)
        row = np.stack([np.where(same, low, high), np.where(same, high, low)], axis=1)
        sign = np.stack([np.where(same, sum_sign, diff_sign), np.where(same, diff_sign, sum_sign)], axis=1)
        return _Layout(row.ravel(), sign.ravel())

    def holds_blocks(self, size: int) -> bool:
        """Whether each storage block of ``size`` rows holds one logical block."""
        block = self.row.reshape(-1, size) // size
        return bool(np.all(block == block[:, :1]))

    def after_blocks(self, size: int) -> "_Layout":
        """The layout of a block product's output: its blocks where it read them."""
        first = self.row.reshape(-1, size)[:, :1] // size * size
        return _Layout((first + np.arange(size)).ravel())


def _pair_order(stages: tuple, size: int) -> np.ndarray:
    """The input order for the butterflies of ``stages``, the first one first.

    A block of ``2h`` rows is stored as ``inner ++ (2h - 1 - inner)``, which
    puts the first butterfly's partners ``h`` apart; ``inner`` is the order of
    the next butterfly's blocks tiled over ``h`` rows, or the identity where
    they do not tile it.  A sign stage only swaps a pair's sum and difference,
    and :class:`_Layout` checks every level.
    """
    halves = [st.half for st in stages if isinstance(st, _Butterfly)]
    order = np.arange(halves[-1])
    for h in reversed(halves):
        inner = _tiled(order, h) if h % order.size == 0 else np.arange(h)
        order = np.concatenate([inner, 2 * h - 1 - inner])
    return _tiled(order, size)


def _tiled(order: np.ndarray, size: int) -> np.ndarray:
    """``order`` on each of the consecutive blocks of ``size`` rows."""
    return (np.arange(size // order.size)[:, None] * order.size + order).ravel()


def _paired(stages: tuple, size: int, scale: float) -> list:
    """The stages as run: in pair order, and times ``scale`` on float input.

    A signed-permutation gather only changes the layout, and its shift goes
    to the end of the plan.  A butterfly whose pairs the layout does not hold
    half a block apart gets a gather to the pair order of the run it starts;
    a leaf takes the layout into its columns where each storage block holds
    one of its blocks; every other gather, and the end of the plan, take the
    layout into their index.  ``scale`` and the shifts kept back are one
    more gather, merged into the one that ends the plan, which goes into the
    leaf before it where it can (:func:`_end_at_leaf`).
    """
    out: list = []
    layout, shift = _Layout(np.arange(size)), 0

    def settle(order: np.ndarray) -> _Layout:
        _push_gather(out, layout.gather_to(order))
        return _Layout(order)

    for k, st in enumerate(stages):
        if isinstance(st, _Butterfly):
            if not layout.pairs(st):
                layout = settle(_pair_order(stages[k:], size))
            layout = layout.after(st)
            run = out[-1].then(st) if out and isinstance(out[-1], _Butterfly) else None
            if run:
                out[-1] = run
                continue
        elif isinstance(st, _Dense):
            if not layout.holds_blocks(st.m.rows):
                layout = settle(np.arange(size))
            if not layout.is_identity():
                st = st.reading(layout)
                layout = layout.after_blocks(st.m.rows)
        elif st.norm == 1 and st.permutes and np.all(st.multipliers() != 0):
            layout, shift = layout.then(st), shift + st.shift
            continue
        else:
            layout = settle(np.arange(size))
            _push_gather(out, st)
            continue
        out.append(st)
    settle(np.arange(size))
    _push_gather(out, _Gather(np.arange(size), shift=shift, scale=scale))
    _end_at_leaf(out)
    return out


def _end_at_leaf(out: list) -> None:
    """Fold the gather that ends ``out`` into the leaf before it, where it is a
    permutation with power-of-two multipliers: they and the float scale go
    into the leaf's rows, where float products stay exact and int64 ones
    within ``growth``.  Its shift and row order go in too, and it goes, where
    it moves no row or each output row ``j * count + s`` takes a row of one
    block, then stored in place ``s``; else it stays to move rows, with its
    shift.  A gather of only a shift and the float scale, a power of two,
    goes into a butterfly run before it the same way."""
    bf, leaf, g = ([None] * 3 + out)[-3:]
    if isinstance(leaf, _Butterfly) and isinstance(g, _Gather) and g.unpermuted and g.mult is None:
        st = out[-2] = copy.copy(leaf)
        st.shift, st.hadamard_real = leaf.shift + g.shift, leaf.hadamard_real * g.scale
        out.pop()
        return
    if not (isinstance(leaf, _Dense) and isinstance(g, _Gather) and g.permutes):
        return
    mag = np.abs(g.multipliers())
    if not np.all((mag > 0) & (mag & (mag - 1) == 0)):
        return
    count, m = leaf.count, leaf.block
    st = out[-2] = copy.copy(leaf)
    if g._real is not None:
        inverse = np.argsort(g.index).reshape(count, m, 1)  # storage row r goes to inverse[r]
        st.num, st.num_real = g.multipliers()[inverse] * leaf.num, g._real[inverse, 0] * leaf.num_real
        st.rows = g.multipliers()
    if g.unpermuted:
        st.shift += g.shift
        out.pop()
        return
    out[-1] = _Gather(g.index, None, g.shift)
    src = g.index.reshape(m, count).T  # output row j * count + s takes storage row src[s, j]
    blocks = src[:, 0] // m
    if np.any(src // m != blocks[:, None]):
        return
    if np.any(blocks != np.arange(count)):  # the butterfly run stores them, alike in each of its blocks
        slices = blocks[: bf.k] if isinstance(bf, _Butterfly) and bf.rows == m else None
        if slices is None or not np.array_equal(_tiled(slices, count), blocks):
            return
        bf = out[-3] = copy.copy(bf)
        bf.hadamard, bf.hadamard_real, bf.slices = bf.hadamard[slices], bf.hadamard_real[slices], slices
    rows = (blocks[:, None], src % m)
    st.num, st.num_real = (np.broadcast_to(a, (count, m, m))[rows] for a in (st.num, st.num_real))
    st.shift, st.interleaves = st.shift + g.shift, True
    out.pop()


class Plan:
    """A factored transform compiled into one flat list of numpy stages.

    Each stage acts on the whole ``(..., N, B)`` array, as ``count`` blocks
    inside a block-diag, and computes ``2**shift`` times its factor, so that
    integer input stays integer.  ``growth``, the product of the stages'
    largest row-L1 numerator norms, bounds ``max |output| / max |input|`` and
    every intermediate ratio.  The exact path proves with it that int64 cannot
    wrap, and that a batch whose peak times ``growth`` stays below 2**53 is
    exact on the float64 stages, which multiply by integers and by one power
    of two (``2**-shift``, in the last gather or the leaf it went into).

    ``stages`` are in the factors' row order; they are tiled into the plans
    of enclosing block-diags, and ``shift`` and ``growth`` are theirs.  The
    stages as run (:func:`_paired`) only move rows and flip signs to keep
    pair order, and the last gather may go into the leaf before it, so
    ``growth`` still bounds every stage: the plan ends at its leaf up to
    N = 128, and from N = 256 a last gather that only moves rows stays.
    """

    def __init__(self, size: int, stages: list):
        self.size = size
        self.stages = tuple(_fused(stages))
        self.shift = sum(st.shift for st in self.stages)
        self.growth = math.prod(max(1, st.norm) for st in self.stages)

    @cached_property
    def _executed(self) -> tuple:
        """The stages as run, built on first use; float input also takes 2**-shift."""
        return tuple(_paired(self.stages, self.size, 2.0**-self.shift))

    def run(self, x: np.ndarray) -> np.ndarray:
        """The stages, each in its fixed geometry, along axis -2 of ``x`` (only
        read) or down a vector: numerators of int input, values of float.
        Each stage returns a fresh array, so the result is never ``x``."""
        stages, shape = self._executed, x.shape
        if not stages or not x.size:
            return x.copy()
        cols = shape[-1] if len(shape) > 1 else 1
        for st in stages:
            x = st.run(x, cols)
        return x.reshape(shape)

    def apply_exact(self, x) -> DyadicMatrix:
        """Exact image of ints and dyadic rationals, or of a DyadicMatrix, as a
        DyadicMatrix shaped like the input: (N,) for a vector, (N, B) for a batch.

        One pass: one conversion, one peak (OverflowError where peak times
        ``growth`` reaches 2**62), one shape check, the stages (flat on a
        vector, float64 ones for a wider batch below 2**53) and one
        common-power-of-two reduction."""
        num, shift, peak = aligned_numerators(x, self.growth)
        _check_rows(num.shape, self.size)
        if num.ndim == 1:
            out = self._vector(num)
        elif num.shape[1] > 1 and peak * self.growth < 2**53:
            out = self.run(num.astype(np.float64))
            out = np.multiply(out, 2.0**self.shift, out=out).astype(np.int64)
        else:
            out = self.run(num)
        return DyadicMatrix._owning(out, shift + self.shift)

    def _apply_vector(self, x: np.ndarray) -> DyadicMatrix:
        """:meth:`apply_exact` of ``x``, a 1-D int, uint or bool array as
        :func:`apply` hands it over, without the conversion layers: the same
        peak guard, length check, flat stages and reduction."""
        _guard(_peak(x), self.growth)
        _check_rows(x.shape, self.size)
        x = x if x.dtype is _INT64 else x.astype(np.int64)
        return DyadicMatrix._owning(self._vector(x), self.shift)

    def _vector(self, x: np.ndarray) -> np.ndarray:
        """The stages down one int64 vector of the plan's size, each one flat
        numpy call; like :meth:`run`, the result is never ``x``."""
        stages = self._executed
        if not stages:
            return x.copy()
        for st in stages:
            x = st.vector(x)
        return x

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """Float image of a vector, or of axis -2 of an (..., N, B) array."""
        x = np.asarray(x)
        if x.dtype.kind == "c":
            raise TypeError("complex input: apply the transform to its real and imaginary parts")
        x = x.astype(np.float64, copy=False)
        if x.ndim < 1 or x.shape[0 if x.ndim == 1 else -2] != self.size:
            raise ValueError(f"expected {self.size} rows, got shape {x.shape}")
        return self.run(x)

    def lines(self) -> list[str]:
        head = f"plan N={self.size}, shift {self.shift}, growth {self.growth}:"
        return [head] + ["  " + str(st) for st in self._executed]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def apply(ft: FactoredTransform, x) -> DyadicMatrix | np.ndarray:
    """Apply the factored transform to a vector or to the columns of a batch.

    A DyadicMatrix, and integer, bool or rational values (Fractions) as lists
    or arrays, come back exact as one DyadicMatrix shaped like the input, (N,)
    or (N, B), so an exact result can be applied again; a denominator other
    than a power of two raises ValueError, exact images past 62 bits
    OverflowError, complex input TypeError.  The rest runs in float and
    comes back as a float64 array.
    """
    if isinstance(x, DyadicMatrix):
        return ft.apply_exact(x)
    seq = x if isinstance(x, (list, tuple, np.ndarray)) or not np.iterable(x) else list(x)
    values = np.asarray(seq)
    kind = values.dtype.kind
    if kind in "iub":
        if values.ndim == 1:
            return ft.plan._apply_vector(values)
        return ft.apply_exact(values)  # checks the shape
    if kind == "f" and not isinstance(seq, np.ndarray):
        values, kind = np.array(seq, dtype=object), "O"  # ints past int64 make numpy pick float64
    if kind == "O" and all(isinstance(v, numbers.Rational) for v in values.flat):
        return ft.apply_exact(values)
    _check_rows(values.shape, ft.size)
    return ft.apply_real(values.astype(float) if kind == "O" else values)


def _check_rows(shape: tuple, size: int) -> None:
    """ValueError unless ``shape`` is (size,) or (size, B)."""
    if len(shape) not in (1, 2) or shape[0] != size:
        raise ValueError(f"expected {size} rows: length {size}, shape ({size},) or ({size}, B), got {shape}")


def compose(a: FactoredTransform, b: FactoredTransform) -> FactoredTransform:
    """Product a·b as a factored transform; costs add exactly."""
    if a.size != b.size:
        raise ValueError("cannot compose transforms of different sizes")
    return FactoredTransform(a.size, a.factors + b.factors)


def to_json(ft: FactoredTransform) -> str:
    return json.dumps(ft.describe(), indent=2)
