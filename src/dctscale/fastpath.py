"""Factored transforms with exact addition/bit-shift accounting.

A scaled transform is a short product of structured factors (permutation,
sparse dyadic, block-diagonal, diagonal, butterfly).  Keeping the factors
instead of the dense product gives two things: a multiplierless application
path that is bit-exact on integer input, and an arithmetic-cost model
where additions and shifts are counted per factor.  Catalog 8-point blocks
are opaque cost leaves: their cost comes from the published fast-algorithm
counts (``declared_base``).

Application runs a :class:`Plan`, compiled from the factors on first use
and cached; building, scaling and costing never compile one.  Each stage
acts on axis -2 of an ``(..., N, B)`` array: permutations and the sign and
half-magnitude mixing factors are (signed) gathers, the butterfly is two
slices added and subtracted, identical diagonal blocks run at once on a
reshaped view, and a catalog leaf is one dense 8x8 numerator product over
all its blocks.  The stages work on numerators, so the plan computes
``2**shift`` times the transform for one cumulative ``shift``.  Its
``growth``, the product of the stages' largest row-L1 numerator norms,
bounds every intermediate value: integer input with ``max|x| * growth``
at or beyond 2**62 raises OverflowError before any int64 arithmetic, so
the exact path never wraps.  Float input runs the same stages in float64
and is scaled by ``2**-shift`` once at the end.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .matkit import (
    NUMERATOR_BITS,
    DyadicMatrix,
    DyadicRational,
    Permutation,
    aligned_numerators,
    check_growth,
    is_generalized_permutation,
)

Cost = tuple[int, int]  # (additions, bit shifts)


class FactorKind(Enum):
    PERMUTATION = "permutation"
    DIAGONAL_DYADIC = "diagonal"
    BLOCK_DIAG = "block-diag"
    BUTTERFLY = "butterfly"
    SPARSE_DYADIC = "sparse"


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


def _identical(blocks: tuple["FactoredTransform", ...]) -> bool:
    """True when every diagonal block equals the first (as in a doubling)."""
    return all(b == blocks[0] for b in blocks[1:])


@dataclass(frozen=True)
class Factor:
    """One structured stage of a factored transform."""

    kind: FactorKind
    size: int
    payload: object = None
    declared_cost: Cost | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def permutation(cls, p: Permutation) -> "Factor":
        return cls(FactorKind.PERMUTATION, p.size, p)

    @classmethod
    def sparse(cls, m: DyadicMatrix, declared_cost: Cost | None = None) -> "Factor":
        if m.rows != m.cols:
            raise ValueError("sparse factor must be square")
        return cls(FactorKind.SPARSE_DYADIC, m.rows, m, declared_cost)

    @classmethod
    def diagonal(cls, m: DyadicMatrix) -> "Factor":
        if m.rows != m.cols:
            raise ValueError("diagonal factor must be square")
        num = m.numerators()
        if np.any(num != np.diag(np.diag(num))):
            raise ValueError("diagonal factor has off-diagonal entries")
        return cls(FactorKind.DIAGONAL_DYADIC, m.rows, m)

    @classmethod
    def block_diag(cls, blocks: tuple["FactoredTransform", ...]) -> "Factor":
        if not blocks:
            raise ValueError("block-diagonal factor needs at least one block")
        return cls(FactorKind.BLOCK_DIAG, sum(b.size for b in blocks), tuple(blocks))

    @classmethod
    def butterfly(cls, size: int) -> "Factor":
        if size < 2 or size % 2:
            raise ValueError("butterfly size must be a positive even number")
        return cls(FactorKind.BUTTERFLY, size)

    # -- cost --------------------------------------------------------------

    def cost(self) -> Cost:
        if self.declared_cost is not None:
            return self.declared_cost
        if self.kind is FactorKind.PERMUTATION:
            return (0, 0)
        if self.kind is FactorKind.BUTTERFLY:
            return (self.size, 0)
        if self.kind is FactorKind.BLOCK_DIAG:
            blocks = self.payload
            if _identical(blocks):
                adds, shifts = blocks[0].cost()
                return (len(blocks) * adds, len(blocks) * shifts)
            return reduce(_add_costs, (b.cost() for b in blocks), (0, 0))
        return count_dense_dyadic(self.payload)

    # -- dense views -------------------------------------------------------

    def dyadic(self) -> DyadicMatrix:
        if self.kind is FactorKind.PERMUTATION:
            return self.payload.to_dyadic()
        if self.kind is FactorKind.BUTTERFLY:
            half = self.size // 2
            eye = np.eye(half, dtype=np.int64)
            top = np.hstack([eye, np.fliplr(eye)])
            bottom = np.hstack([np.fliplr(eye), -eye])
            return DyadicMatrix(np.vstack([top, bottom]))
        if self.kind is FactorKind.BLOCK_DIAG:
            blocks = self.payload
            if _identical(blocks):
                mats = [blocks[0].dyadic()] * len(blocks)
            else:
                mats = [b.dyadic() for b in blocks]
            return reduce(DyadicMatrix.block_diag, mats)
        return self.payload

    def dense(self) -> np.ndarray:
        return self.dyadic().to_real()

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
        adds, shifts = self.cost()
        info: dict = {"kind": self.kind.value, "size": self.size, "adds": adds, "shifts": shifts}
        if self.kind is FactorKind.PERMUTATION:
            info["map"] = list(map(int, self.payload.map))
        elif self.kind is FactorKind.BLOCK_DIAG:
            info["blocks"] = [b.describe() for b in self.payload]
        elif self.kind is not FactorKind.BUTTERFLY:
            info["entries"] = [[str(e) for e in row] for row in self.payload.entries()]
        return info


@dataclass(frozen=True)
class FactoredTransform:
    """Ordered product of factors; ``factors[0]`` is the leftmost matrix.

    ``declared_base`` marks an opaque leaf: its cost is the published
    fast-algorithm count rather than the sum of naive factor costs.
    """

    size: int
    factors: tuple[Factor, ...]
    declared_base: Cost | None = None

    def __post_init__(self) -> None:
        for f in self.factors:
            if f.size != self.size:
                raise ValueError(
                    f"factor of size {f.size} inside a transform of size {self.size}"
                )

    def cost(self) -> Cost:
        if self.declared_base is not None:
            return self.declared_base
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
            "declared_base": list(self.declared_base) if self.declared_base else None,
            "factors": [f.describe() for f in self.factors],
        }


# -- the application engine ------------------------------------------------
#
# Every stage maps an (..., n, B) array to another along axis -2 and works on
# numerators: a stage with shift s computes 2**s times its factor's output.
# The exact path runs the stages in int64, the float path in float64.


class _Gather:
    """``y[i] = mult[i] * x[index[i]]``: a permutation, or a generalized
    permutation with integer multipliers over ``2**shift``."""

    def __init__(self, index, mult=None, shift: int = 0):
        self.index = np.asarray(index, dtype=np.intp)
        self.unpermuted = bool(np.array_equal(self.index, np.arange(self.index.size)))
        if mult is not None and np.all(mult == 1):
            mult = None
        self.mult = None if mult is None else np.asarray(mult, dtype=np.int64)
        self._column = None if mult is None else self.mult[:, None]
        self.shift = shift
        self.norm = 1 if mult is None else int(np.abs(self.mult).max(initial=0))

    def is_identity(self) -> bool:
        return self.unpermuted and self.mult is None and self.shift == 0

    def then(self, other: "_Gather") -> "_Gather":
        """One gather doing ``self`` first, then ``other``."""
        mine = np.ones(self.index.size, np.int64) if self.mult is None else self.mult
        theirs = 1 if other.mult is None else other.mult
        return _Gather(self.index[other.index], mine[other.index] * theirs, self.shift + other.shift)

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


class _Slices:
    """Distinct diagonal blocks, run slice by slice and aligned to one shift."""

    def __init__(self, plans: tuple["Plan", ...]):
        self.plans = plans
        self.shift = max(p.shift for p in plans)
        self.scales = [1 << (self.shift - p.shift) for p in plans]
        self.norm = max(p.growth * k for p, k in zip(plans, self.scales))

    def run(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        start = 0
        for plan, k in zip(self.plans, self.scales):
            stop = start + plan.size
            y = plan.run(x[..., start:stop, :])
            out[..., start:stop, :] = y * k if k != 1 else y
            start = stop
        return out

    def lines(self) -> list[str]:
        out = [f"{len(self.plans)} distinct blocks, slice by slice:"]
        for plan in self.plans:
            out.extend("  " + line for line in plan.lines())
        return out


def _compile(f: Factor) -> list:
    """The stages of one factor, in application order."""
    if f.kind is FactorKind.PERMUTATION:
        return [_Gather(f.payload.inverse().map)]
    if f.kind is FactorKind.BUTTERFLY:
        return [_Butterfly(f.size // 2)]
    if f.kind is FactorKind.BLOCK_DIAG:
        blocks = f.payload
        if len(blocks) == 1:
            return list(blocks[0].plan.stages)
        if _identical(blocks):
            return _blocks(len(blocks), blocks[0].plan)
        return [_Slices(tuple(b.plan for b in blocks))]
    if is_generalized_permutation(f.payload):
        num = f.payload.numerators()
        index = np.argmax(num != 0, axis=1)
        return [_Gather(index, num[np.arange(f.size), index], f.payload.shift)]
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


def cost(ft: FactoredTransform) -> Cost:
    return ft.cost()


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

    def as_factors(t: FactoredTransform) -> tuple[Factor, ...]:
        if t.declared_base is None:
            return t.factors
        # keep the opaque leaf's declared cost by wrapping it whole
        return (Factor.block_diag((t,)),)

    return FactoredTransform(a.size, as_factors(a) + as_factors(b))


def to_json(ft: FactoredTransform) -> str:
    return json.dumps(ft.describe(), indent=2)
