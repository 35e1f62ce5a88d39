"""Registry of published 8-point low-complexity DCT approximations.

Eight matrices ship as checksummed plain-text data files next to this
module; the signed DCT and the rounded DCT are generated from the exact
transform instead (sign and rounding oracles), which removes transcription
risk for those two.  Baseline addition/shift counts per 8-point block come
from the approximations' published fast algorithms.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..exact import TransformKind, transform_matrix
from ..matkit import DyadicMatrix, as_real, canonical, is_diagonal

_DATA_DIR = Path(__file__).resolve().parent

APPROXIMATION_IDS: tuple[str, ...] = (
    "bas1",
    "bas2",
    "bas3",
    "bas4",
    "rdct",
    "mrdct",
    "abdct",
    "sdct",
    "lodct",
    "imrdct",
)

# additions / shifts per 8-point block of the published fast algorithms
_BASELINES: dict[str, tuple[int, int]] = {
    "bas1": (16, 0),
    "bas2": (18, 2),
    "bas3": (18, 0),
    "bas4": (24, 0),
    "rdct": (22, 0),
    "mrdct": (14, 0),
    "abdct": (24, 6),
    "sdct": (24, 0),
    "lodct": (24, 2),
    "imrdct": (14, 0),
}

_SOURCES: dict[str, str] = {
    "bas1": "Bouguezel, Ahmad & Swamy, parametric transform with a = 0",
    "bas2": "Bouguezel, Ahmad & Swamy, parametric transform with a = 1/2",
    "bas3": "Bouguezel, Ahmad & Swamy, parametric transform with a = 1",
    "bas4": "Bouguezel, Ahmad & Swamy, Walsh-Hadamard-type member",
    "rdct": "Cintra & Bayer, rounded DCT (generated: round(2 C))",
    "mrdct": "Bayer & Cintra, modified rounded DCT",
    "abdct": "Oliveira et al., angle-based DCT approximation",
    "sdct": "Haweel, signed DCT (generated: sign(C))",
    "lodct": "Lengwehasatit & Ortega, classified fast approximation",
    "imrdct": "Potluri et al., improved modified rounded DCT",
}

#: Members whose Gram matrix T T^T is exactly diagonal (all but the signed DCT).
DIAGONAL_GRAM_IDS: frozenset[str] = frozenset(APPROXIMATION_IDS) - {"sdct"}


@dataclass(frozen=True)
class ApproximationEntry:
    id: str
    matrix: DyadicMatrix
    baseline_adds: int
    baseline_shifts: int
    source: str


def list_ids() -> tuple[str, ...]:
    return APPROXIMATION_IDS


def parse_matrix_text(text: str) -> DyadicMatrix:
    """Parse the data-file format: first value N, then N rows of N entries.

    Entries are integers or integer/2^k literals; '#' starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty matrix file")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"expected {n} entries per row, got {len(tokens)}")
        rows.append(tokens)
    return DyadicMatrix.from_entries(rows)


def _manifest() -> dict[str, str]:
    entries = {}
    for raw in (_DATA_DIR / "MANIFEST.sha256").read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        digest, name = line.split()
        entries[name] = digest
    return entries


def _read_checked(filename: str) -> str:
    blob = (_DATA_DIR / filename).read_bytes()
    expected = _manifest().get(filename)
    if expected is None:
        raise ValueError(f"{filename} missing from checksum manifest")
    actual = hashlib.sha256(blob).hexdigest()
    if actual != expected:
        raise ValueError(
            f"checksum mismatch for {filename}: expected {expected}, got {actual}"
        )
    return blob.decode("utf-8")


def _generate(approx_id: str) -> DyadicMatrix:
    c8 = transform_matrix(TransformKind.DCT2, 8)
    if approx_id == "sdct":
        return DyadicMatrix(np.sign(c8).astype(np.int64))
    if approx_id == "rdct":
        return DyadicMatrix(np.rint(2.0 * c8).astype(np.int64))
    raise ValueError(f"no generator for {approx_id!r}")


def _validate(entry: ApproximationEntry) -> None:
    m = entry.matrix
    if m.shape != (8, 8):
        raise ValueError(f"{entry.id}: expected an 8x8 matrix, got {m.shape}")
    num = m.numerators()
    # the low-complexity set {0, +-1, +-2, +-1/2}, on canonical entries
    nums, shifts = canonical(num, m.shift)
    allowed = np.where(shifts == 0, np.abs(nums) <= 2, (shifts == 1) & (np.abs(nums) == 1))
    if not allowed.all():
        i, j = np.argwhere(~allowed)[0]
        raise ValueError(
            f"{entry.id}: entry {m.entry(i, j)} outside the low-complexity set"
        )
    # diagonality of the Gram is the same on the numerators, which are exact
    gram_diagonal = is_diagonal(num @ num.T, tol=0.0)
    if gram_diagonal != (entry.id in DIAGONAL_GRAM_IDS):
        raise ValueError(f"{entry.id}: Gram diagonality flag mismatch")
    if entry.baseline_adds < 0 or entry.baseline_shifts < 0:
        raise ValueError(f"{entry.id}: negative declared cost")


def load(approx_id: str) -> ApproximationEntry:
    """Load one catalog member by id, verifying checksum and self-tests.

    The file is read and its checksum checked on every call; the parsed and
    validated entry is shared between calls on the same verified text.
    """
    if approx_id not in APPROXIMATION_IDS:
        raise ValueError(
            f"unknown approximation {approx_id!r}; "
            f"choose from {', '.join(APPROXIMATION_IDS)}"
        )
    text = None if approx_id in ("sdct", "rdct") else _read_checked(f"{approx_id}.txt")
    return _entry(approx_id, text)


@lru_cache(maxsize=len(APPROXIMATION_IDS))
def _entry(approx_id: str, text: str | None) -> ApproximationEntry:
    matrix = _generate(approx_id) if text is None else parse_matrix_text(text)
    adds, shifts = _BASELINES[approx_id]
    entry = ApproximationEntry(
        id=approx_id,
        matrix=matrix,
        baseline_adds=adds,
        baseline_shifts=shifts,
        source=_SOURCES[approx_id],
    )
    _validate(entry)
    return entry


def orthogonalize(t) -> tuple[np.ndarray, np.ndarray]:
    """Rescale rows to unit norm: returns (sigma, c_hat = sigma @ t).

    sigma is the inverse square root of the Gram diagonal,
    ``diag(1/sqrt([t t^T]_kk))``.  When the Gram is diagonal this makes
    c_hat exactly orthogonal; otherwise c_hat is the quasi-orthogonal
    rescaling used by all the figure-of-merit tables.  The result is
    invariant under positive scaling of ``t``.
    """
    mat = as_real(t)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("orthogonalize expects a square matrix")
    gram_diag = np.sum(mat * mat, axis=1)
    if np.any(gram_diag <= 0.0):
        raise ValueError("singular Gram matrix (zero row)")
    inv_norm = 1.0 / np.sqrt(gram_diag)
    # scaling the rows equals the diagonal product sigma @ mat entry for entry
    return np.diag(inv_norm), mat * inv_norm[:, None]
