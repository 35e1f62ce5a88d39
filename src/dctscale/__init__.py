"""Doubling low-complexity DCT approximations.

Exact trigonometric transforms and the structural identities that double
them; a catalog of published 8-point low-complexity approximations; cheap
doubling methods that scale any of them to 16/32/64 points; factored
multiplierless application with exact add/shift accounting; the standard
figure-of-merit suite; and reproduction of the reference result tables.
"""
from __future__ import annotations

from .analysis import (
    ErrorPoint,
    LinearFit,
    TableDocument,
    TABLE_IDS,
    break_point,
    catalog_error_points,
    evaluate,
    fit,
    reproduce_table,
)
from .catalog import (
    APPROXIMATION_IDS,
    ApproximationEntry,
    load,
    orthogonalize,
)
from .exact import (
    IDENTITY_NAMES,
    StructuralKind,
    TransformKind,
    structural_matrix,
    transform_matrix,
    verify_identity,
)
from .fastpath import Factor, FactoredTransform, FactorKind, count_dense_dyadic
from .matkit import (
    DyadicMatrix,
    frobenius_distance,
    is_diagonal,
    is_generalized_permutation,
)
from .metrics import (
    MetricReport,
    SignalModel,
    coding_gain,
    deviation_from_orthogonality,
    mse,
    total_error_energy,
    transform_efficiency,
)
from .scaler import (
    DYADIC_METHOD_IDS,
    METHOD_IDS,
    OrthogonalityCheck,
    ScaledTransform,
    check_orthogonality,
    method_blocks,
    scale,
    scale_to,
)

__version__ = "0.1.0"

__all__ = [
    "APPROXIMATION_IDS",
    "ApproximationEntry",
    "DYADIC_METHOD_IDS",
    "DyadicMatrix",
    "ErrorPoint",
    "Factor",
    "FactorKind",
    "FactoredTransform",
    "IDENTITY_NAMES",
    "LinearFit",
    "METHOD_IDS",
    "MetricReport",
    "OrthogonalityCheck",
    "ScaledTransform",
    "SignalModel",
    "StructuralKind",
    "TABLE_IDS",
    "TableDocument",
    "TransformKind",
    "break_point",
    "catalog_error_points",
    "check_orthogonality",
    "coding_gain",
    "count_dense_dyadic",
    "deviation_from_orthogonality",
    "evaluate",
    "fit",
    "frobenius_distance",
    "is_diagonal",
    "is_generalized_permutation",
    "load",
    "method_blocks",
    "mse",
    "orthogonalize",
    "reproduce_table",
    "scale",
    "scale_to",
    "structural_matrix",
    "total_error_energy",
    "transform_efficiency",
    "transform_matrix",
    "verify_identity",
]
