#!/usr/bin/env python3
"""Run the factored transform on data and count the arithmetic.

The fast path compiles the factors once into one flat list of stages and
never multiplies by the doubled transform's dense matrix.  One gather puts
the rows in a pair order, in which each level's butterfly is one add and
one subtract over contiguous halves of all its blocks at once; the
alternating sign stage of methods IV-VII only flips signs in that order.
Up to four levels together are one product with a +-1 Hadamard matrix,
run as one matmul on float input.  The catalog blocks are one batched
dense 8x8 product, which reads its columns in pair order, also takes in
the mixing stages' multipliers and writes its rows where the perfect
shuffles put them, so the plan ends at it (from N = 256 one gather still
moves the rows into place).  On integer input the plan runs in int64
numerators over one power-of-two shift and is exact.
"""
import numpy as np

from dctscale import catalog
from dctscale.fastpath import apply, to_json
from dctscale.scaler import scale_to


def main() -> None:
    rng = np.random.default_rng(7)

    entry = catalog.load("rdct")
    st = scale_to(
        entry.matrix, 32, "VI", base_cost=(entry.baseline_adds, entry.baseline_shifts)
    )
    ft = st.factored
    adds, shifts = ft.cost()
    print(f"32-point doubling of {entry.id}: {adds} additions, {shifts} shifts")
    print("(the exact 32-point DCT-II needs real multiplications instead)")
    print()

    x = rng.integers(-100, 100, size=32)
    exact = apply(ft, [int(v) for v in x])
    dense = st.dense @ x
    print("integer input, first 8 outputs (factored path, exact values):")
    print("  ", " ".join(str(v) for v in exact[:8]))
    print("dense product agrees entrywise:",
          bool(np.all([float(v) for v in exact] == dense)))
    print()

    y = rng.normal(size=32)
    fast = apply(ft, y)
    print("float input, worst deviation vs dense multiply:",
          float(np.max(np.abs(fast - st.dense @ y))))
    print()

    print("factor stack (outermost first):")
    for factor in ft.factors:
        a, s = factor.cost()
        print(f"  {factor.kind.value:<12} size={factor.size:<3d} adds={a:<4d} shifts={s}")
    print()
    print("compiled plan, in application order (first stage runs first):")
    for line in ft.plan.lines():
        print("  " + line)
    print()
    print("machine-readable description is one call away:")
    print("  to_json(ft) ->", len(to_json(ft)), "bytes")


if __name__ == "__main__":
    main()
