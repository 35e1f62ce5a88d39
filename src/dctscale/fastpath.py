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

Application runs a :class:`Plan`, compiled on first use and cached: one flat
list of numpy stages on the whole ``(..., N, B)`` array, each level's butterfly
running once over all its blocks with the sign stage after it folded in.  The
stages work on numerators: integer input stays exact in int64 (the ``growth``
bound raises OverflowError before it could wrap), float input runs in float64.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .exact import butterfly
from .matkit import (
    NUMERATOR_BITS,
    DyadicMatrix,
    DyadicRational,
    aligned_numerators,
)

Cost = tuple[int, int]  # (additions, bit shifts)


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
        g = _Gather(index, mult, shift)
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
        if count < 1:
            raise ValueError("block-diagonal factor needs at least one block")
        return cls(FactorKind.BLOCK_DIAG, count * block.size, block)

    @classmethod
    def butterfly(cls, size: int) -> "Factor":
        if size < 2 or size % 2:
            raise ValueError("butterfly size must be a positive even number")
        return cls(FactorKind.BUTTERFLY, size)

    # -- cost --------------------------------------------------------------

    def cost(self) -> Cost:
        """The declared (adds, shifts) where there is one, else the counted."""
        return self.counted_cost() if self.declared_cost is None else self.declared_cost

    def counted_cost(self) -> Cost:
        if self.kind is FactorKind.GATHER:
            return self.payload.cost()
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
            return self.payload.dyadic()
        if self.kind is FactorKind.BUTTERFLY:
            return butterfly(self.size // 2)
        if self.kind is FactorKind.BLOCK_DIAG:
            count = self.size // self.payload.size
            return reduce(DyadicMatrix.block_diag, [self.payload.dyadic()] * count)
        return self.payload

    # -- application -------------------------------------------------------

    @cached_property
    def plan(self) -> "Plan":
        """This factor alone, compiled on first use."""
        return Plan(self.size, _compile(self))

    def apply_exact(self, x: list[DyadicRational]) -> list[DyadicRational]:
        return self.plan.apply_exact(x)

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        return self.plan.apply_real(x)

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
        out = self.factors[0].dyadic()
        for f in self.factors[1:]:
            out = out @ f.dyadic()
        return out

    def dense(self) -> np.ndarray:
        return self.dyadic().to_real()

    @cached_property
    def plan(self) -> "Plan":
        """The compiled stages, built on first application and kept."""
        return Plan(self.size, [st for f in reversed(self.factors) for st in _compile(f)])

    def apply_exact(self, x: list[DyadicRational]) -> list[DyadicRational]:
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


# -- the application engine ------------------------------------------------


class _Gather:
    """``y[i] = mult[i] * x[index[i]]`` over ``2**shift``, and on float input times
    ``scale``.  A gather factor's payload and its plan stage are one object."""

    def __init__(self, index, mult=None, shift: int = 0, scale: float = 1.0):
        self.index = np.asarray(index, dtype=np.intp)
        self.unpermuted = bool(np.array_equal(self.index, np.arange(self.index.size)))
        mult = None if mult is None else np.asarray(mult, dtype=np.int64)
        self.mult = None if mult is None or np.all(mult == 1) else mult
        self._column = None if self.mult is None else self.mult[:, None]
        scaled = self.mult is not None or scale != 1
        self._real = self.multipliers()[:, None] * scale if scaled else None
        self.shift = shift
        self.norm = 1 if self.mult is None else int(np.abs(self.mult).max(initial=0))

    def multipliers(self) -> np.ndarray:
        return np.ones(self.index.size, np.int64) if self.mult is None else self.mult

    def cost(self) -> Cost:
        """No adds; one shift per nonzero multiplier of magnitude other than 2**shift."""
        mag = np.abs(self.multipliers())
        return (0, int(np.count_nonzero((mag != 0) & (mag != 1 << self.shift))))

    def dyadic(self) -> DyadicMatrix:
        n = self.index.size
        num = np.zeros((n, n), dtype=np.int64)
        num[np.arange(n), self.index] = self.multipliers()
        return DyadicMatrix(num, self.shift)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Gather):
            return NotImplemented
        return (
            self.shift == other.shift
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.multipliers(), other.multipliers())
        )

    def __hash__(self):
        return hash((self.index.tobytes(), self.multipliers().tobytes(), self.shift))

    def then(self, other: "_Gather") -> "_Gather":
        """One gather doing ``self`` first, then ``other``."""
        theirs = 1 if other.mult is None else other.mult
        mult = self.multipliers()[other.index] * theirs
        return _Gather(self.index[other.index], mult, self.shift + other.shift)

    def tiled(self, count: int) -> "_Gather":
        """The same gather on each of ``count`` consecutive blocks."""
        n = self.index.size
        index = (np.arange(count)[:, None] * n + self.index).ravel()
        mult = None if self.mult is None else np.tile(self.mult, count)
        return _Gather(index, mult, self.shift)

    def run(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        column = self._real if x.dtype.kind == "f" else self._column
        if out is None and not self.unpermuted:
            x = out = x[..., self.index, :]
        elif not self.unpermuted:
            # "clip" skips the bounds check, done when built, and its copy of ``out``
            x = np.take(x, self.index, axis=-2, out=out, mode="clip")
        elif column is None:
            return np.positive(x, out=out)  # a bare shift only copies
        return x if column is None else np.multiply(x, column, out=out)

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
    """On each block, ``y = [x_top + reversed(x_bottom), reversed(x_top) -
    x_bottom]``.  A ``signed`` one also applies the sign stage bd(I, J) after
    it: its lower half is ``rev(top) - bottom`` on even rows, else negated."""

    shift = 0
    norm = 2

    def __init__(self, count: int, half: int, signed: bool = False):
        self.count, self.half, self.signed = count, half, signed
        # row indices, kept for one-column runs, where indexing costs as much
        # as the arithmetic: the top half, then all of the lower half, or its
        # even rows and its odd ones
        h = half
        self._top = np.s_[..., :h, :]
        self._lower = np.s_[..., h::2, :] if signed else np.s_[..., h:, :]
        self._odd = np.s_[..., h + 1 :: 2, :] if signed else None

    def folds(self, st) -> bool:
        """Whether ``st`` is the sign stage that this butterfly can apply too."""
        if self.signed or not isinstance(st, _Gather) or not st.unpermuted or st.shift:
            return False
        signs = np.concatenate([np.ones(self.half, np.int64), 1 - 2 * (np.arange(self.half) % 2)])
        return np.array_equal(st.multipliers(), np.tile(signs, self.count))

    def run(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        y = out = np.empty(x.shape, x.dtype) if out is None else out
        if self.count > 1:
            shape = x.shape[:-2] + (self.count, 2 * self.half, x.shape[-1])
            x, y = x.reshape(shape), out.reshape(shape)
        rev, top, lower, odd = x[..., ::-1, :], self._top, self._lower, self._odd
        np.add(x[top], rev[top], out=y[top])
        np.subtract(rev[lower], x[lower], out=y[lower])
        if odd is not None:
            np.subtract(x[odd], rev[odd], out=y[odd])
        return out

    def __str__(self) -> str:
        signs = ", odd lower rows negated" if self.signed else ""
        return f"butterfly {2 * self.half}{self._on()}: add and subtract the halves{signs}"


class _Dense(_BlockStage):
    """A dense numerator product ``num @ x`` over ``2**shift`` on each block,
    times the multipliers of ``rows``, the gather after it, on output rows."""

    def __init__(self, m: DyadicMatrix, count: int = 1, rows: _Gather | None = None):
        self.m, self.count, self.rows = m, count, rows
        self.shift = m.shift
        self.norm = m.row_norm()
        self.num = m.numerators()
        self.num_real = self.num.astype(np.float64)
        if rows is not None:  # leaf row r goes to the gather's output inverse[r]
            inverse = np.argsort(rows.index).reshape(count, -1, 1)
            self.num = rows.multipliers()[inverse] * self.num
            self.num_real = rows._real[inverse, 0] * self.num_real

    def run(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        shape = x.shape[:-2] + (self.count, self.m.rows, x.shape[-1])
        num = self.num_real if x.dtype.kind == "f" else self.num
        y = np.matmul(num, x.reshape(shape), out=None if out is None else out.reshape(shape))
        return y.reshape(x.shape)

    def __str__(self) -> str:
        rows = "" if self.rows is None else f", row multipliers {_set(self.rows.multipliers())}"
        return f"dense {self.m.rows}x{self.m.rows} product{self._on()}{rows}, shift {self.shift}"


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


def _fused(stages: list) -> list:
    """Merge runs of gathers, drop identities, fold sign gathers into butterflies."""
    out: list = []
    for st in stages:
        if isinstance(st, _Gather):
            last = out[-1] if out else None
            # fused multipliers are int64 products, so only small ones are merged
            if isinstance(last, _Gather) and last.norm * st.norm < 1 << NUMERATOR_BITS:
                st = out.pop().then(st)
            if st.unpermuted and st.mult is None and not st.shift:
                continue  # the identity
            if out and isinstance(out[-1], _Butterfly) and out[-1].folds(st):
                out[-1] = _Butterfly(out[-1].count, out[-1].half, signed=True)
                continue
        out.append(st)
    return out


def _leaf_folded(stages: tuple) -> tuple:
    """Move the multipliers of a permutation right after a leaf into the leaf's
    rows, where they are powers of two, so that float products stay exact; the
    gather then only moves rows.  An int64 product past 62 bits would need a
    growth that only an all-zero input passes."""
    out: list = []
    for st in stages:
        if isinstance(st, _Gather) and st._real is not None and out and isinstance(out[-1], _Dense):
            mag = np.abs(st.multipliers())
            powers = np.all((mag > 0) & (mag & (mag - 1) == 0))
            if powers and np.array_equal(np.sort(st.index), np.arange(st.index.size)):
                out[-1] = _Dense(out[-1].m, out[-1].count, st)
                if st.unpermuted:
                    continue
                st = _Gather(st.index, None, st.shift)
        out.append(st)
    return tuple(out)


class Plan:
    """A factored transform compiled into one flat list of numpy stages.

    Each stage acts on the whole ``(..., N, B)`` array, as ``count`` blocks
    inside a block-diag, and computes ``2**shift`` times its factor, so that
    integer input stays integer.  ``growth``, the product of the stages'
    largest row-L1 numerator norms, bounds ``max |output| / max |input|`` and
    every intermediate ratio: the exact path proves with it that int64 cannot wrap.
    """

    def __init__(self, size: int, stages: list):
        self.size = size
        self.stages = tuple(_fused(stages))
        self.shift = sum(st.shift for st in self.stages)
        self.growth = math.prod(max(1, st.norm) for st in self.stages)

    @cached_property
    def _executed(self) -> tuple:
        """The stages as run, built on first use; on float input they also
        multiply by 2**-shift, in the float multipliers of a last gather."""
        stages = self.stages
        if self.shift:
            # where no gather ends the stages, one is appended; on int input it only copies
            last = _Gather(np.arange(self.size))
            if isinstance(stages[-1], _Gather):
                stages, last = stages[:-1], stages[-1]
            stages += (_Gather(last.index, last.mult, last.shift, 2.0**-self.shift),)
        return _leaf_folded(stages)

    def run(self, x: np.ndarray) -> np.ndarray:
        """The stages along axis -2 of ``x`` (only read): numerators of int input,
        values of float.  Wider input ping-pongs between two arrays allocated
        here; one column is cheaper on each stage's own fresh output."""
        stages = self._executed
        if not stages:
            return x.copy()
        if x.shape[-1] == 1:
            for st in stages:
                x = st.run(x, None)
            return x
        buffers = (np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype))
        for i, st in enumerate(stages):
            x = st.run(x, buffers[i & 1])
        return x

    def apply_exact(self, x) -> list[DyadicRational]:
        """Exact image of one vector of ints or DyadicRationals."""
        if len(x) != self.size:
            raise ValueError(f"expected a vector of length {self.size}, got {len(x)}")
        vec, shift = aligned_numerators(x, self.growth)
        return DyadicRational.from_numerators(self.run(vec[:, None])[:, 0], shift + self.shift)

    def apply_batch(self, x: np.ndarray) -> DyadicMatrix:
        """Exact image of the columns of an (N, B) integer array."""
        return DyadicMatrix(self.run(aligned_numerators(x, self.growth)[0]), self.shift)

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """Float image of a vector, or of axis -2 of an (..., N, B) array."""
        x = np.asarray(x)
        if x.dtype.kind == "c":
            raise TypeError("complex input: apply the transform to its real and imaginary parts")
        x = x.astype(np.float64, copy=False)
        if x.ndim == 1:
            return self.apply_real(x[:, None])[:, 0]
        if x.ndim < 2 or x.shape[-2] != self.size:
            raise ValueError(f"expected {self.size} rows, got shape {x.shape}")
        return self.run(x)

    def lines(self) -> list[str]:
        head = f"plan N={self.size}, shift {self.shift}, growth {self.growth}:"
        return [head] + ["  " + str(st) for st in self._executed]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def apply(ft: FactoredTransform, x) -> list[DyadicRational] | DyadicMatrix | np.ndarray:
    """Apply the factored transform to a vector or to the columns of a batch.

    Integer or dyadic-rational vectors come back exact, as ``DyadicRational``s,
    and an (N, B) integer array as one ``DyadicMatrix``; exact images past 62
    bits raise OverflowError, complex input TypeError.  The rest runs in float.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind != "O":
        if x.ndim not in (1, 2) or x.shape[0] != ft.size:
            raise ValueError(f"expected shape ({ft.size},) or ({ft.size}, B), got {x.shape}")
        if x.dtype.kind not in "iu":
            return ft.apply_real(x)
        return ft.plan.apply_batch(x) if x.ndim == 2 else ft.apply_exact(x)
    # a list of ints becomes an integer array in one numpy pass
    values = np.asarray(x if isinstance(x, (list, tuple)) else list(x))
    if len(values) != ft.size:
        raise ValueError(f"expected a vector of length {ft.size}, got {len(values)}")
    kind = values.dtype.kind
    if kind == "O" and all(isinstance(v, (int, np.integer, DyadicRational)) for v in values):
        kind = "i"
    if values.ndim == 1 and kind in "iub":
        return ft.apply_exact(values)
    return ft.apply_real(values.astype(float) if kind == "O" else values)


def compose(a: FactoredTransform, b: FactoredTransform) -> FactoredTransform:
    """Product a·b as a factored transform; costs add exactly."""
    if a.size != b.size:
        raise ValueError("cannot compose transforms of different sizes")
    return FactoredTransform(a.size, a.factors + b.factors)


def to_json(ft: FactoredTransform) -> str:
    return json.dumps(ft.describe(), indent=2)
