"""End-to-end command-line checks.

Every command's output is deterministic, so most assertions are exact
string matches; error paths must exit with status 2 and a one-line
``error: ...`` message on stderr.
"""
from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from dctscale.analysis import CSV_HEADER
from dctscale.cli import run
from dctscale.exact import StructuralKind, TransformKind, structural_matrix, transform_matrix
from dctscale.matkit import as_real
from dctscale.scaler import scale_to
from dctscale import catalog


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── top level ──────────────────────────────────────────────────────────────


def test_no_arguments_is_an_error(capsys):
    code, out, err = _run(capsys, [])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_help_exits_zero(capsys):
    code, out, err = _run(capsys, ["--help"])
    assert code == 0


def test_design_verbs_share_one_option_set(capsys):
    # scale, metrics and apply print the same help for --approx, --method and --size
    shared = {}
    for verb, own in (("scale", "--orthogonalize"), ("metrics", "--rho"), ("apply", "--input")):
        code, out, err = _run(capsys, [verb, "--help"])
        assert (code, err) == (0, "")
        options = " ".join(out.split("options:")[-1].split())
        found = re.search(f"--approx APPROX (.+) --method METHOD (.+) --size SIZE (.+?) {own}", options)
        assert found, verb
        shared[verb] = found.groups()
    assert shared["scale"] == shared["metrics"] == shared["apply"]


def test_unknown_verb(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 2
    assert err.startswith("error: ")


# ── gen ────────────────────────────────────────────────────────────────────


def test_gen_dct2_csv(capsys):
    code, out, err = _run(capsys, ["gen", "--kind", "dct2", "--size", "2"])
    assert code == 0 and err == ""
    assert out == (
        "0.707106781187,0.707106781187\n0.707106781187,-0.707106781187\n"
    )


def test_gen_shuffle_matrix(capsys):
    # --size is the half-size: the permutation acts on 4 points
    code, out, _ = _run(capsys, ["gen", "--kind", "shuffle", "--size", "2"])
    assert code == 0
    assert out == "1,0,0,0\n0,0,1,0\n0,1,0,0\n0,0,0,1\n"


def test_gen_json(capsys):
    code, out, _ = _run(
        capsys, ["gen", "--kind", "dct2", "--size", "4", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"kind", "size", "matrix"}
    assert doc["kind"] == "dct2" and doc["size"] == 4
    assert np.array(doc["matrix"]) == pytest.approx(
        transform_matrix(TransformKind.DCT2, 4)
    )


def test_gen_bitrev_requires_power_of_two(capsys):
    code, out, err = _run(capsys, ["gen", "--kind", "bitrev", "--size", "7"])
    assert code == 2
    assert out == ""
    assert err == "error: bit reversal needs a power-of-two size, got 7\n"


def test_gen_takes_every_transform_and_structural_kind(capsys):
    for kind in (*TransformKind, *StructuralKind):
        code, out, err = _run(capsys, ["gen", "--kind", kind.value, "--size", "4"])
        assert (code, err) == (0, ""), kind
        if isinstance(kind, TransformKind):
            want = transform_matrix(kind, 4)
        else:
            want = as_real(structural_matrix(kind, 4))
        got = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()])
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12), kind  # 12 digits


def test_gen_is_deterministic(capsys):
    first = _run(capsys, ["gen", "--kind", "G", "--size", "8"])
    second = _run(capsys, ["gen", "--kind", "G", "--size", "8"])
    assert first == second and first[0] == 0


# ── scale ──────────────────────────────────────────────────────────────────


def test_scale_exact_seed_reports_error(capsys):
    code, out, _ = _run(
        capsys, ["scale", "--approx", "exact", "--method", "VI", "--size", "16"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17
    assert lines[-1] == "frobenius error vs exact: 1.954"


def test_scale_orthogonalize_flag(capsys):
    code, raw, _ = _run(
        capsys, ["scale", "--approx", "rdct", "--method", "JAM", "--size", "16"]
    )
    code2, ortho, _ = _run(
        capsys,
        [
            "scale",
            "--approx",
            "rdct",
            "--method",
            "JAM",
            "--size",
            "16",
            "--orthogonalize",
        ],
    )
    assert code == 0 and code2 == 0
    assert raw != ortho
    # same error line either way: the error is always measured on c_hat
    assert raw.strip().splitlines()[-1] == ortho.strip().splitlines()[-1]
    got = np.array(
        [[float(v) for v in line.split(",")] for line in ortho.strip().splitlines()[:-1]]
    )
    want = scale_to(catalog.load("rdct").matrix, 16, "JAM").c_hat
    assert got == pytest.approx(want, abs=1e-11)


def test_scale_rejects_bad_size(capsys, tmp_path):
    for verb in ("scale", "metrics", "apply"):
        for size in ("12", "48", "2048", "8", "x"):
            argv = [verb, "--approx", "rdct", "--method", "VI", "--size", size]
            if verb == "apply":
                argv += ["--input", str(tmp_path / "unused.txt")]
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, "")
            assert err == (
                f"error: argument --size: invalid size '{size}': "
                "choose a power of two from 16 to 1024\n"
            )


def test_design_verbs_accept_power_of_two_sizes_to_1024(capsys, tmp_path):
    code, out, err = _run(
        capsys, ["metrics", "--approx", "rdct", "--method", "VI", "--size", "128"]
    )
    assert (code, err) == (0, "")
    assert out.startswith("approx=rdct method=VI size=128 ")
    code, out, _ = _run(
        capsys, ["scale", "--approx", "rdct", "--method", "VII", "--size", "128"]
    )
    assert code == 0 and len(out.splitlines()) == 129
    vectors = tmp_path / "v.txt"
    vectors.write_text(" ".join(["1"] * 128) + "\n")
    code, out, _ = _run(
        capsys,
        ["apply", "--approx", "rdct", "--method", "JAM", "--size", "128",
         "--input", str(vectors), "--int"],
    )
    assert code == 0 and len(out.split()) == 128


def test_scale_unknown_method(capsys):
    code, _, err = _run(
        capsys, ["scale", "--approx", "rdct", "--method", "IX", "--size", "16"]
    )
    assert code == 2
    assert "unknown scaling method" in err


# ── metrics ────────────────────────────────────────────────────────────────


def test_metrics_row_exact_text(capsys):
    code, out, _ = _run(
        capsys, ["metrics", "--approx", "rdct", "--method", "JAM", "--size", "16"]
    )
    assert code == 0
    assert out == (
        "approx=rdct method=JAM size=16 rho=0.95 d=0.00 eps=12.930 mse=0.12 "
        "cg=8.43 eta=72.23 frob=4.116 adds=60 shifts=0\n"
    )


def test_metrics_rejects_exact_method(capsys):
    code, _, err = _run(
        capsys, ["metrics", "--approx", "rdct", "--method", "exact", "--size", "16"]
    )
    assert code == 2
    assert "dyadic" in err


# ── apply ──────────────────────────────────────────────────────────────────


@pytest.fixture()
def vec16(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(" ".join(str(v) for v in range(1, 17)) + "\n")
    return str(path)


def test_apply_integer_path(capsys, vec16):
    code, out, _ = _run(
        capsys,
        [
            "apply",
            "--approx",
            "rdct",
            "--method",
            "JAM",
            "--size",
            "16",
            "--input",
            vec16,
            "--int",
        ],
    )
    assert code == 0
    assert out == "136 -64 0 30 0 0 0 6 0 0 0 6 0 0 0 -6\n"


def test_apply_integer_path_method_vii(capsys, vec16):
    code, out, _ = _run(
        capsys,
        [
            "apply",
            "--approx",
            "rdct",
            "--method",
            "VII",
            "--size",
            "16",
            "--input",
            vec16,
            "--int",
        ],
    )
    assert code == 0
    assert out == "136 -48 0 -16 0 -16 0 -16 0 -16 0 -16 0 -16 0 -4\n"


def test_apply_integer_path_prints_fractions(capsys, tmp_path):
    # the first and last unit vectors meet VII's halved entry: the last
    # outputs are 1/2 and -1/2, exact values printed as p/2^s
    path = tmp_path / "units.txt"
    path.write_text("1" + " 0" * 15 + "\n" + "0 " * 15 + "1\n")
    code, out, _ = _run(
        capsys,
        ["apply", "--approx", "rdct", "--method", "VII", "--size", "16", "--input", str(path), "--int"],
    )
    assert code == 0
    assert out == "1 0 1 0 1 1 1 1 1 1 1 1 0 1 0 1/2\n1 0 1 0 1 -1 1 -1 1 -1 1 -1 0 -1 0 -1/2\n"


def test_apply_float_path_matches_dense(capsys, tmp_path):
    path = tmp_path / "floats.txt"
    x = np.linspace(-1.0, 1.0, 16)
    path.write_text(" ".join(f"{v:.6f}" for v in x) + "\n")
    code, out, _ = _run(
        capsys,
        [
            "apply",
            "--approx",
            "sdct",
            "--method",
            "V",
            "--size",
            "16",
            "--input",
            str(path),
            "--int",
        ][:-1],
    )
    assert code == 0
    got = np.array([float(v) for v in out.split()])
    entry = catalog.load("sdct")
    dense = scale_to(entry.matrix, 16, "V").dense
    vec = np.array([float(f"{v:.6f}") for v in x])
    assert got == pytest.approx(dense @ vec, abs=1e-9)


def test_apply_multiple_vectors_and_blank_lines(capsys, tmp_path):
    path = tmp_path / "two.txt"
    path.write_text(
        " ".join("1" for _ in range(16))
        + "\n\n"
        + " ".join("2" for _ in range(16))
        + "\n"
    )
    code, out, _ = _run(
        capsys,
        [
            "apply",
            "--approx",
            "rdct",
            "--method",
            "JAM",
            "--size",
            "16",
            "--input",
            str(path),
            "--int",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    first = np.array([float(v) for v in lines[0].split()])
    second = np.array([float(v) for v in lines[1].split()])
    assert second == pytest.approx(2.0 * first)


def test_apply_errors(capsys, tmp_path, vec16):
    short = tmp_path / "short.txt"
    short.write_text("1 2 3\n")
    code, _, err = _run(
        capsys,
        ["apply", "--approx", "rdct", "--method", "JAM", "--size", "16",
         "--input", str(short), "--int"],
    )
    assert code == 2 and "expected 16 values, got 3" in err

    code, _, err = _run(
        capsys,
        ["apply", "--approx", "rdct", "--method", "JAM", "--size", "16",
         "--input", str(tmp_path / "missing.txt"), "--int"],
    )
    assert code == 2 and "input file not found" in err

    floats = tmp_path / "floats.txt"
    floats.write_text(" ".join("0.5" for _ in range(16)) + "\n")
    code, _, err = _run(
        capsys,
        ["apply", "--approx", "rdct", "--method", "JAM", "--size", "16",
         "--input", str(floats), "--int"],
    )
    assert code == 2 and "--int requires integer inputs" in err

    code, _, err = _run(
        capsys,
        ["apply", "--approx", "rdct", "--method", "exact", "--size", "16",
         "--input", vec16, "--int"],
    )
    assert code == 2 and "--int needs a dyadic method" in err


def test_apply_int_names_the_float_exact_seed(capsys, vec16):
    # II is dyadic: what has no factored form is the float 'exact' seed
    code, out, err = _run(
        capsys,
        ["apply", "--approx", "exact", "--method", "II", "--size", "16",
         "--input", vec16, "--int"],
    )
    assert (code, out) == (2, "")
    assert err == "error: --int needs a catalog seed: the float 'exact' seed has no factored form\n"
    # without --int the float seed applies
    assert _run(capsys, ["apply", "--approx", "exact", "--method", "II", "--size", "16",
                         "--input", vec16])[0] == 0


def test_apply_int_batch_refuses_bad_lines_and_overflow(capsys, tmp_path):
    argv = ["apply", "--approx", "rdct", "--method", "VI", "--size", "16", "--int", "--input"]
    good = " ".join(str(v) for v in range(16))
    cases = {
        "later line not an integer": (good + "\n" + "x " * 16, "--int requires integer inputs"),
        "past the 62-bit bound": (good + "\n" + " ".join([str(1 << 61)] * 16), "2**62"),
        "past 64 bits": (good + "\n" + " ".join([str(1 << 64)] * 16), "64-bit integers"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / "vectors.txt"
        path.write_text(text + "\n")
        code, out, err = _run(capsys, argv + [str(path)])
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, name


def test_apply_float_path_refuses_non_finite_values(capsys, tmp_path):
    # a line that is not finite, or whose image overflows float64, exits 2
    # with one line naming it; no numpy warning reaches stderr
    argv = ["apply", "--approx", "rdct", "--method", "VI", "--size", "16", "--input"]
    good = " ".join(str(v) for v in range(16))
    cases = {
        "1e400": ("1e400 " * 16, "line 3: inputs must be finite numbers"),
        "nan": ("1 " * 15 + "nan", "line 3: inputs must be finite numbers"),
        "inf": ("inf " + "0 " * 15, "line 3: inputs must be finite numbers"),
        "-inf": ("-inf " * 16, "line 3: inputs must be finite numbers"),
        "overflowing image": ("1.7e308 " * 16, "line 3: the transformed vector overflows float64"),
    }
    for name, (line, message) in cases.items():
        path = tmp_path / "vectors.txt"
        path.write_text(good + "\n\n" + line + "\n")
        code, out, err = _run(capsys, argv + [str(path)])
        assert (code, out) == (2, ""), name
        assert err == f"error: {message}\n", name


def test_apply_names_the_line_and_the_token_that_is_not_a_number(capsys, tmp_path):
    argv = ["apply", "--approx", "rdct", "--method", "VI", "--size", "16", "--input"]
    good = " ".join(str(v) for v in range(16))
    cases = (
        ("abc", [], "line 3: inputs must be numbers, got 'abc'"),
        ("abc", ["--int"], "line 3: --int requires integer inputs, got 'abc'"),
        ("2.5", ["--int"], "line 3: --int requires integer inputs, got '2.5'"),
    )
    for token, extra, message in cases:
        path = tmp_path / "vectors.txt"
        path.write_text(good + "\n\n" + "1 " * 7 + token + " 2" * 8 + "\n" + good + "\n")
        code, out, err = _run(capsys, argv + [str(path)] + extra)
        assert (code, out, err) == (2, "", f"error: {message}\n"), (token, extra)


def test_apply_tells_a_directory_from_a_missing_file(capsys, tmp_path):
    argv = ["apply", "--approx", "rdct", "--method", "VI", "--size", "16", "--input"]
    for given, message in (
        (tmp_path, f"input is a directory, not a file: {tmp_path}"),
        (tmp_path / "missing.txt", f"input file not found: {tmp_path / 'missing.txt'}"),
        (os.devnull, f"input is not a regular file: {os.devnull}"),
    ):
        for extra in ([], ["--int"]):
            code, out, err = _run(capsys, argv + [str(given)] + extra)
            assert (code, out, err) == (2, "", f"error: {message}\n")


# ── tables ─────────────────────────────────────────────────────────────────


def test_tables_break_point_markdown(capsys):
    code, out, _ = _run(capsys, ["tables", "--id", "break-point"])
    assert code == 0
    assert "## break-point" in out
    assert "Cells outside tolerance:" in out
    assert "- III/x_star:" in out and "- IV/x_star:" in out
    assert "- II/x_star:" not in out


def test_tables_metrics_sdct_markdown(capsys):
    code, out, _ = _run(capsys, ["tables", "--id", "metrics-sdct"])
    assert code == 0
    assert "All cells within tolerance." in out
    body_rows = [line for line in out.splitlines() if line.startswith("| ")][1:]
    assert len(body_rows) == 8
    for line in body_rows:
        assert "| 0.20 (" in line  # the d column, printed as 0.20 in every row


def test_tables_csv_format(capsys):
    code, out, _ = _run(
        capsys, ["tables", "--id", "scaling-families", "--format", "csv"]
    )
    assert code == 0
    assert out.startswith(CSV_HEADER + "\r\n")
    assert out.endswith("\r\n")
    assert len(out.strip().split("\r\n")) == 1 + 8 * 3


def test_tables_json_all(capsys):
    code, out, _ = _run(capsys, ["tables", "--id", "all", "--format", "json"])
    assert code == 0
    docs = json.loads(out)
    assert [d["table"] for d in docs] == [
        "scaling-families",
        "linear-regression",
        "break-point",
        "metrics-bas1",
        "metrics-bas2",
        "metrics-bas3",
        "metrics-bas4",
        "metrics-rdct",
        "metrics-mrdct",
        "metrics-abdct",
        "metrics-sdct",
        "metrics-lodct",
        "metrics-imrdct",
    ]
    flags = {d["table"]: d["all_ok"] for d in docs}
    assert flags["break-point"] is False
    assert all(ok for table, ok in flags.items() if table != "break-point")


def test_tables_out_file(capsys, tmp_path):
    target = tmp_path / "tables.md"
    code, out, _ = _run(
        capsys, ["tables", "--id", "scaling-families", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert "## scaling-families" in target.read_text()


def test_tables_unknown_id(capsys):
    code, _, err = _run(capsys, ["tables", "--id", "metrics-nope"])
    assert code == 2
    assert "unknown table" in err


# ── verify ─────────────────────────────────────────────────────────────────


def test_verify_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "--max-size", "16"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "all identities verified"
    assert "N=16" in out and "N=2" in out
    assert "IDENTITY CHECK FAILED" not in out


def test_verify_rejects_tiny_bound(capsys):
    code, _, err = _run(capsys, ["verify", "--max-size", "1"])
    assert code == 2
    assert "--max-size must be at least 2" in err
