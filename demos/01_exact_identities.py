#!/usr/bin/env python3
"""Walk through the exact trigonometric transform identities numerically.

Every identity used by the doubling construction is checked at a few
sizes; the residuals should all sit at machine precision.
"""
import numpy as np

from dctscale.exact import (
    IDENTITY_NAMES,
    TransformKind,
    bit_reversal,
    butterfly,
    perfect_shuffle,
    transform_matrix,
    verify_identity,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

################################################## THE TRANSFORMS

c8 = transform_matrix(TransformKind.DCT2, 8)
print("8-point DCT-II, first two rows:")
print(c8[:2])
print("orthonormality residual:", np.max(np.abs(c8 @ c8.T - np.eye(8))))
print()

################################################## STRUCTURED PIECES

# permutations are gather indices: P @ x == x[index]
x = np.arange(8)
print("perfect shuffle of 8 indices:", x[perfect_shuffle(4)].tolist())
print("bit reversal of 8 indices:  ", x[bit_reversal(8)].tolist())

bf = butterfly(2)
print("butterfly acting on [1 2 3 4]:", [str(v) for v in bf.apply([1, 2, 3, 4])])
print()

################################################## IDENTITY RESIDUALS

print("=" * 56)
print(f"{'identity':<24} {'N=4':>9} {'N=8':>9} {'N=16':>9}")
print("-" * 56)
for name in IDENTITY_NAMES:
    residuals = [verify_identity(name, n) for n in (4, 8, 16)]
    print(f"{name:<24} " + " ".join(f"{r:9.2e}" for r in residuals))
print("=" * 56)
print("all residuals are raw max-abs errors; anything below 1e-10 is exact")
