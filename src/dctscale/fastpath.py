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

Application runs a :class:`Plan`, compiled from the factors on first use
and cached; building, scaling and costing never compile one.  Each stage
acts on axis -2 of an ``(..., N, B)`` array: a gather factor is itself a
plan stage, the butterfly is two slices added and subtracted, identical
blocks run at once on a reshaped view, and a leaf is one dense numerator
product over all its blocks.  The stages work on numerators, so the plan
computes ``2**shift`` times the transform for one cumulative ``shift``.
Its ``growth``, the product of the stages' largest row-L1 numerator
norms, bounds every intermediate value: integer input with
``max|x| * growth`` at or beyond 2**62 raises OverflowError before any
int64 arithmetic, so the exact path never wraps.  Float input runs the
same stages in float64 and is scaled by ``2**-shift`` once at the end.
"""
from __future__ import annotations

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
    check_growth,
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
#
# Every stage maps an (..., n, B) array to another along axis -2 and works on
# numerators: a stage with shift s computes 2**s times its factor's output.
# The exact path runs the stages in int64, the float path in float64.


class _Gather:
    """``y[i] = mult[i] * x[index[i]]`` over ``2**shift``: a permutation, or a
    generalized permutation with integer multipliers.  A gather factor's
    payload and its plan stage are the same object."""

    def __init__(self, index, mult=None, shift: int = 0):
        self.index = np.asarray(index, dtype=np.intp)
        self.unpermuted = bool(np.array_equal(self.index, np.arange(self.index.size)))
        mult = None if mult is None else np.asarray(mult, dtype=np.int64)
        self.mult = None if mult is None or np.all(mult == 1) else mult
        self._column = None if self.mult is None else self.mult[:, None]
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

    def is_identity(self) -> bool:
        return self.unpermuted and self.mult is None and self.shift == 0

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

    def run(self, x: np.ndarray) -> np.ndarray:
        if self.unpermuted:
            return x if self._column is None else x * self._column
        y = np.take(x, self.index, axis=-2)
        if self._column is not None:
            y *= self._column
        return y

    def lines(self) -> list[str]:
        n = self.index.size
        if self.mult is None:
            return [f"gather {n}, shift {self.shift}"]
        mults = ", ".join(str(m) for m in sorted(set(self.mult.tolist())))
        verb = "scale" if self.unpermuted else "signed gather"
        return [f"{verb} {n}, multipliers {{{mults}}}, shift {self.shift}"]


class _Butterfly:
    """``y = [x_top + reversed(x_bottom), reversed(x_top) - x_bottom]``."""

    shift = 0
    norm = 2

    def __init__(self, half: int):
        self.half = half

    def run(self, x: np.ndarray) -> np.ndarray:
        h = self.half
        rev = x[..., ::-1, :]
        out = np.empty_like(x)
        np.add(x[..., :h, :], rev[..., :h, :], out=out[..., :h, :])
        np.subtract(rev[..., h:, :], x[..., h:, :], out=out[..., h:, :])
        return out

    def lines(self) -> list[str]:
        return [f"butterfly {2 * self.half}: add and subtract the halves"]


class _Dense:
    """A dense numerator product ``num @ x`` over ``2**shift``."""

    def __init__(self, m: DyadicMatrix):
        self.num = m.numerators()
        self.num_real = self.num.astype(np.float64)
        self.shift = m.shift
        self.norm = m.row_norm()

    def run(self, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.num_real if x.dtype.kind == "f" else self.num, x)

    def lines(self) -> list[str]:
        n = self.num.shape[0]
        return [f"dense {n}x{n} product, shift {self.shift}"]


class _Blocks:
    """``count`` identical diagonal blocks, run at once on a reshaped view."""

    def __init__(self, count: int, plan: "Plan"):
        self.count = count
        self.plan = plan
        self.shift = plan.shift
        self.norm = plan.growth

    def run(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape
        split = shape[:-2] + (self.count, self.plan.size, shape[-1])
        return self.plan.run(x.reshape(split)).reshape(shape)

    def lines(self) -> list[str]:
        head = f"{self.count} identical blocks of {self.plan.size}, one reshaped view:"
        return [head] + ["  " + line for line in self.plan.lines()]


def _compile(f: Factor) -> list:
    """The stages of one factor, in application order."""
    if f.kind is FactorKind.GATHER:
        return [f.payload]
    if f.kind is FactorKind.BUTTERFLY:
        return [_Butterfly(f.size // 2)]
    if f.kind is FactorKind.BLOCK_DIAG:
        return _blocks(f.size // f.payload.size, f.payload.plan)
    return [_Dense(f.payload)]


def _blocks(count: int, plan: "Plan") -> list:
    """Identical blocks, with the block plan's leading and trailing gathers
    hoisted out and tiled, so that they fuse with the gathers around them."""
    stages = list(plan.stages)
    head = [stages.pop(0).tiled(count)] if stages and isinstance(stages[0], _Gather) else []
    tail = [stages.pop().tiled(count)] if stages and isinstance(stages[-1], _Gather) else []
    core = [_Blocks(count, Plan(plan.size, stages))] if stages else []
    return head + core + tail


def _fused(stages: list) -> list:
    """Merge runs of gathers into one and drop identity gathers."""
    out: list = []
    for st in stages:
        # fused multipliers are int64 products, so only small ones are merged
        if (
            isinstance(st, _Gather)
            and out
            and isinstance(out[-1], _Gather)
            and out[-1].norm * st.norm < 1 << NUMERATOR_BITS
        ):
            st = out.pop().then(st)
        out.append(st)
    return [st for st in out if not (isinstance(st, _Gather) and st.is_identity())]


class Plan:
    """A factored transform compiled into flat numpy stages.

    The stages compute ``2**shift`` times the transform, so every
    intermediate value is an integer on integer input.  ``growth`` is the
    product of the stages' largest row-L1 numerator norms: it bounds
    ``max |output| / max |input|`` and every intermediate ratio, which is
    what lets the exact path prove before it starts that int64 cannot wrap.
    """

    def __init__(self, size: int, stages: list):
        self.size = size
        self.stages = tuple(_fused(stages))
        self.shift = sum(st.shift for st in self.stages)
        self.growth = math.prod(max(1, st.norm) for st in self.stages)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Numerators of the stages applied along axis -2 of ``x``."""
        for st in self.stages:
            x = st.run(x)
        return x

    def apply_exact(self, x) -> list[DyadicRational]:
        """Exact image of one vector of ints or DyadicRationals."""
        if len(x) != self.size:
            raise ValueError(f"expected a vector of length {self.size}, got {len(x)}")
        nums, shift = aligned_numerators(x)
        check_growth(max(map(abs, nums), default=0), self.growth)
        out = self.run(np.array(nums, dtype=np.int64)[:, None])
        return DyadicRational.from_numerators(out[:, 0], shift + self.shift)

    def apply_batch(self, x: np.ndarray) -> DyadicMatrix:
        """Exact image of the columns of an (N, B) integer array."""
        peak = max(int(x.max()), -int(x.min())) if x.size else 0
        check_growth(peak, self.growth)
        return DyadicMatrix(self.run(np.ascontiguousarray(x, dtype=np.int64)), self.shift)

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """Float image of a vector, or of axis -2 of an (..., N, B) array."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.apply_real(x[:, None])[:, 0]
        if x.ndim < 2 or x.shape[-2] != self.size:
            raise ValueError(f"expected {self.size} rows, got shape {x.shape}")
        return self.run(x) * 2.0**-self.shift

    def lines(self) -> list[str]:
        head = f"plan N={self.size}, shift {self.shift}, growth {self.growth}:"
        return [head] + ["  " + line for st in self.stages for line in st.lines()]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def apply(ft: FactoredTransform, x) -> list[DyadicRational] | DyadicMatrix | np.ndarray:
    """Apply the factored transform to a vector or to the columns of a batch.

    Integer or dyadic-rational vectors run through the exact path and come
    back as ``DyadicRational`` values; an (N, B) integer array comes back
    as one ``DyadicMatrix``.  Anything else is evaluated in floating point.
    Exact inputs whose worst-case image could exceed 62 bits raise
    OverflowError.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind != "O":
        if x.ndim not in (1, 2) or x.shape[0] != ft.size:
            raise ValueError(f"expected shape ({ft.size},) or ({ft.size}, B), got {x.shape}")
        if x.dtype.kind not in "iu":
            return ft.apply_real(x)
        if x.ndim == 2:
            return ft.plan.apply_batch(x)
        x = x.tolist()
    values = list(x)
    if len(values) != ft.size:
        raise ValueError(f"expected a vector of length {ft.size}, got {len(values)}")
    if all(isinstance(v, (int, np.integer, DyadicRational)) for v in values):
        return ft.apply_exact(values)
    return ft.apply_real(np.asarray(values, dtype=float))


def compose(a: FactoredTransform, b: FactoredTransform) -> FactoredTransform:
    """Product a·b as a factored transform; costs add exactly."""
    if a.size != b.size:
        raise ValueError("cannot compose transforms of different sizes")
    return FactoredTransform(a.size, a.factors + b.factors)


def to_json(ft: FactoredTransform) -> str:
    return json.dumps(ft.describe(), indent=2)
