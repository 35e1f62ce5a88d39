"""Catalog registry: data files, generated members, and orthogonalization.

The eight transcribed matrices are validated through their checksums and
self-tests; the two generated members are compared against their defining
oracles; the per-member seed errors are pinned to frozen four-decimal
values computed independently before this package existed.
"""
from __future__ import annotations

import os
import shutil
from fractions import Fraction

import numpy as np
import pytest

from dctscale import catalog
from dctscale.catalog import (
    APPROXIMATION_IDS,
    DIAGONAL_GRAM_IDS,
    ApproximationEntry,
    load,
    orthogonalize,
    parse_matrix_text,
)
from dctscale.exact import TransformKind, transform_matrix
from dctscale.matkit import DyadicMatrix, frobenius_distance, is_diagonal

# seed Frobenius errors ||orthogonalized member - C_8||_F, frozen to 4 decimals
SEED_ERRORS = {
    "bas1": 2.9242,
    "bas2": 2.8990,
    "bas3": 2.9242,
    "bas4": 1.2678,
    "rdct": 0.7558,
    "mrdct": 1.6602,
    "abdct": 0.6230,
    "sdct": 1.0274,
    "lodct": 0.5261,
    "imrdct": 1.8976,
}

BASELINES = {
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

ALLOWED = {0.0, 0.5, 1.0, 2.0}


def test_registry_ids():
    assert len(APPROXIMATION_IDS) == 10
    assert DIAGONAL_GRAM_IDS == frozenset(APPROXIMATION_IDS) - {"sdct"}


@pytest.mark.parametrize("approx_id", APPROXIMATION_IDS)
def test_load_entry(approx_id):
    entry = load(approx_id)
    assert isinstance(entry, ApproximationEntry)
    assert entry.id == approx_id
    assert entry.matrix.shape == (8, 8)
    assert (entry.baseline_adds, entry.baseline_shifts) == BASELINES[approx_id]
    assert entry.source
    mags = np.abs(entry.matrix.to_real())
    assert set(np.unique(mags)) <= ALLOWED, f"{approx_id} has non-catalog entries"


@pytest.mark.parametrize("approx_id", APPROXIMATION_IDS)
def test_gram_diagonality_matches_flag(approx_id):
    m = load(approx_id).matrix
    gram = (m @ m.T).to_real()
    assert is_diagonal(gram, tol=0.0) == (approx_id in DIAGONAL_GRAM_IDS)


def test_sdct_is_sign_of_exact():
    c8 = transform_matrix(TransformKind.DCT2, 8)
    sdct = load("sdct").matrix.to_real()
    assert np.array_equal(sdct, np.sign(c8))
    assert set(np.unique(sdct)) == {-1.0, 1.0}  # no exact zeros in C_8


def test_rdct_is_round_of_doubled_exact():
    c8 = transform_matrix(TransformKind.DCT2, 8)
    rdct = load("rdct").matrix.to_real()
    assert np.array_equal(rdct, np.rint(2.0 * c8))
    assert set(np.unique(rdct)) == {-1.0, 0.0, 1.0}


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown approximation"):
        load("dct9000")


def test_checksum_mismatch_detected(monkeypatch):
    good = catalog._manifest()
    bad = dict(good)
    bad["bas1.txt"] = "0" * 64
    monkeypatch.setattr(catalog, "_manifest", lambda: bad)
    with pytest.raises(ValueError, match="checksum mismatch"):
        load("bas1")
    monkeypatch.setattr(catalog, "_manifest", lambda: {})
    with pytest.raises(ValueError, match="missing from checksum manifest"):
        load("lodct")


def test_checksum_checked_on_every_load(monkeypatch):
    # the parsed entry is shared, but each load still reads and checks the file
    first = load("bas1")
    assert load("bas1") is first
    bad = dict(catalog._manifest())
    bad["bas1.txt"] = "0" * 64
    monkeypatch.setattr(catalog, "_manifest", lambda: bad)
    with pytest.raises(ValueError, match="checksum mismatch"):
        load("bas1")


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """The catalog reading a copy of its data files, which a test may edit."""
    for name in os.listdir(catalog._DATA_DIR):
        if name.endswith(".txt") or name == "MANIFEST.sha256":
            shutil.copy(os.path.join(catalog._DATA_DIR, name), tmp_path)
    monkeypatch.setattr(catalog, "_DATA_DIR", str(tmp_path))
    return tmp_path


def test_edit_on_disk_fails_the_next_load(data_copy):
    # the real read path, not a monkeypatched one: the bytes on disk are hashed each time
    first = load("bas1")
    assert load("bas1") is first
    path = data_copy / "bas1.txt"
    path.write_bytes(path.read_bytes() + b"# edited\n")
    with pytest.raises(ValueError, match="checksum mismatch for bas1.txt"):
        load("bas1")


def test_manifest_line_deleted_on_disk(data_copy):
    manifest = data_copy / "MANIFEST.sha256"
    lines = manifest.read_bytes().splitlines(keepends=True)
    manifest.write_bytes(b"".join(line for line in lines if not line.endswith(b"lodct.txt\n")))
    with pytest.raises(ValueError, match="lodct.txt missing from checksum manifest"):
        load("lodct")
    assert load("bas1").id == "bas1"


def test_crlf_manifest_still_parses(data_copy):
    manifest = data_copy / "MANIFEST.sha256"
    text = manifest.read_bytes()
    manifest.write_bytes(text.replace(b"\n", b"\r\n"))
    assert catalog._manifest() == dict(
        reversed(line.split()) for line in text.decode().splitlines() if line.strip()
    )
    for approx_id in APPROXIMATION_IDS:
        assert load(approx_id).id == approx_id


def test_manifest_is_parsed_once_per_text_and_handed_out_fresh(data_copy):
    # a caller may change its dict: the next call still reads the file
    first = catalog._manifest()
    first["bas1.txt"] = "0" * 64
    assert catalog._manifest()["bas1.txt"] != first["bas1.txt"]
    assert load("bas1").id == "bas1"
    # a file past one read chunk comes back whole
    blob = bytes(range(256)) * 1000 + b"tail"
    (data_copy / "big.bin").write_bytes(blob)
    assert catalog._read_bytes("big.bin") == blob


def test_changed_text_is_parsed_afresh(monkeypatch):
    # the shared entry is keyed on the verified text, not on the id alone
    first = load("bas1")
    text = catalog._read_checked("bas1.txt")
    negated = text.replace("0 0 1 0 0 -1 0 0", "0 0 -1 0 0 1 0 0")
    monkeypatch.setattr(catalog, "_read_checked", lambda filename: negated)
    num = first.matrix.numerators()
    num[3] *= -1
    assert load("bas1").matrix == DyadicMatrix(num)
    out_of_set = text.replace("0 0 1 0 0 -1 0 0", "0 0 3 0 0 -1 0 0")
    monkeypatch.setattr(catalog, "_read_checked", lambda filename: out_of_set)
    with pytest.raises(ValueError, match="outside the low-complexity set"):
        load("bas1")


def test_validate_rejects_entries_outside_the_low_complexity_set():
    rdct = load("rdct")

    def entry_with(value: str) -> ApproximationEntry:
        rows = [[str(e) for e in row] for row in rdct.matrix.entries()]
        rows[2][5] = value
        matrix = DyadicMatrix.from_entries(rows)
        return ApproximationEntry("rdct", matrix, 22, 0, rdct.source)

    for bad in ("3", "-4", "1/4", "-3/2", "5/8"):
        with pytest.raises(ValueError, match=f"rdct: entry {bad} outside the low-complexity set"):
            catalog._validate(entry_with(bad))
    # every allowed value passes the set check (a changed entry may still
    # break the Gram flag, which is checked after it)
    for ok in ("0", "1", "-1", "2", "-2", "1/2", "-1/2"):
        try:
            catalog._validate(entry_with(ok))
        except ValueError as exc:
            assert "Gram diagonality" in str(exc)


def test_validate_checks_the_gram_flag():
    sdct = load("sdct")
    with pytest.raises(ValueError, match="Gram diagonality flag mismatch"):
        catalog._validate(ApproximationEntry("rdct", sdct.matrix, 22, 0, sdct.source))


def test_generated_members_skip_data_files(monkeypatch):
    # sdct/rdct come from generators, so a poisoned manifest cannot hurt them
    monkeypatch.setattr(catalog, "_manifest", lambda: {})
    load("sdct")
    load("rdct")


# ── data-file parser ───────────────────────────────────────────────────────


def test_parse_matrix_text():
    text = "# demo\n2\n1 -1/2\n0 2  # trailing comment\n"
    m = parse_matrix_text(text)
    assert m.entry(0, 1) == Fraction(-1, 2)
    assert m.entry(1, 1) == Fraction(2)


def test_parse_matrix_text_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError, match="expected 2 rows"):
        parse_matrix_text("2\n1 1\n")
    with pytest.raises(ValueError, match="entries per row"):
        parse_matrix_text("2\n1 1\n1\n")


# ── orthogonalization ──────────────────────────────────────────────────────


def test_orthogonalize_scalar_matrix():
    sigma, c_hat = orthogonalize(3.0 * np.eye(4))
    assert sigma == pytest.approx(np.eye(4) / 3.0)
    assert c_hat == pytest.approx(np.eye(4))


def test_orthogonalize_rdct_is_orthogonal():
    _, c_hat = orthogonalize(load("rdct").matrix)
    assert np.max(np.abs(c_hat @ c_hat.T - np.eye(8))) < 1e-12


def test_orthogonalize_sdct_stays_quasi_orthogonal():
    _, c_hat = orthogonalize(load("sdct").matrix)
    gram = c_hat @ c_hat.T
    d = 1.0 - np.sum(np.diag(gram) ** 2) / np.sum(gram * gram)
    assert d == pytest.approx(0.20, abs=0.005)


def test_orthogonalize_scale_invariance():
    rng = np.random.default_rng(606)
    t = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
    _, base = orthogonalize(t)
    for alpha in (0.37, 2.0, 113.0):
        _, scaled = orthogonalize(alpha * t)
        assert np.max(np.abs(scaled - base)) < 1e-12


def test_orthogonalize_errors():
    with pytest.raises(ValueError, match="square"):
        orthogonalize(np.ones((2, 3)))
    bad = np.eye(3)
    bad[1, 1] = 0.0
    with pytest.raises(ValueError, match="singular"):
        orthogonalize(bad)


@pytest.mark.parametrize("approx_id", APPROXIMATION_IDS)
def test_frozen_seed_errors(approx_id):
    c8 = transform_matrix(TransformKind.DCT2, 8)
    _, c_hat = orthogonalize(load(approx_id).matrix)
    err = frobenius_distance(c_hat, c8)
    assert err == pytest.approx(SEED_ERRORS[approx_id], abs=1e-3)
