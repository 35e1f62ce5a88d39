"""Command-line front end.

Verbs: ``gen`` (print exact/structural matrices), ``scale`` (double a seed
and report its error), ``metrics`` (one figure-of-merit row), ``apply``
(transform vectors from a file, optionally as one batch through the exact
integer path), ``tables`` (recompute the bundled reference tables with
deltas), and ``verify`` (residuals of all exact identities).

Output is deterministic: identical arguments produce byte-identical text.
All output for a command is assembled first and printed in one piece, so
failures never leave partial output behind.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, catalog, fastpath
from .exact import (
    IDENTITY_NAMES,
    StructuralKind,
    TransformKind,
    structural_matrix,
    transform_matrix,
    verify_identity,
)
from .matkit import as_real, canonical, dyadic_str, frobenius_distance
from .scaler import METHOD_IDS, normalize_method, scale, scale_to

RESIDUAL_BOUND = 1e-10
_TRANSFORM_KINDS = tuple(k.value for k in TransformKind)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep diagnostics to one line on stderr
        raise _CliError(message)


def _design_size(text: str) -> int:
    """A ``--size`` for scale/metrics/apply: a power of two from 16 to 1024."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 16 <= n <= 1024 or n & (n - 1):
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}: choose a power of two from 16 to 1024"
        )
    return n


def _matrix_csv(mat: np.ndarray) -> list[str]:
    return [",".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(mat)]


def _load_seed(approx: str, size: int, method: str):
    """Scaled transform for a catalog id (from 8 points) or 'exact' seed."""
    if approx == "exact":
        seed = transform_matrix(TransformKind.DCT2, size // 2)
        return scale(seed, method)
    entry = catalog.load(approx)
    return scale_to(
        entry.matrix,
        size,
        method,
        base_cost=(entry.baseline_adds, entry.baseline_shifts),
    )


def _cmd_gen(args) -> tuple[str, int]:
    if args.kind in _TRANSFORM_KINDS:
        mat = transform_matrix(TransformKind(args.kind), args.size)
    else:
        mat = as_real(structural_matrix(StructuralKind(args.kind), args.size))
    if args.format == "json":
        doc = {
            "kind": args.kind,
            "size": args.size,
            "matrix": [[float(v) for v in row] for row in mat],
        }
        return json.dumps(doc, indent=2) + "\n", 0
    return "\n".join(_matrix_csv(mat)) + "\n", 0


def _cmd_scale(args) -> tuple[str, int]:
    method = normalize_method(args.method)
    scaled = _load_seed(args.approx, args.size, method)
    exact = transform_matrix(TransformKind.DCT2, args.size)
    err = frobenius_distance(scaled.c_hat, exact)
    mat = scaled.c_hat if args.orthogonalize else scaled.dense
    lines = _matrix_csv(mat)
    lines.append(f"frobenius error vs exact: {err:.3f}")
    return "\n".join(lines) + "\n", 0


def _cmd_metrics(args) -> tuple[str, int]:
    method = normalize_method(args.method)
    report = analysis.evaluate(args.approx, method, size=args.size, rho=args.rho)
    line = (
        f"approx={args.approx} method={method} size={args.size} rho={args.rho:g} "
        f"d={report.d:.2f} eps={report.epsilon:.3f} mse={report.mse:.2f} "
        f"cg={report.cg:.2f} eta={report.eta:.2f} frob={report.frob:.3f} "
        f"adds={report.adds} shifts={report.shifts}"
    )
    return line + "\n", 0


def _numbers(lineno: int, tokens: list[str], convert, wanted: str) -> list:
    """``tokens`` through ``convert``; the first it refuses exits naming its line."""
    values = []
    for token in tokens:
        try:
            values.append(convert(token))
        except ValueError:
            raise _CliError(f"line {lineno}: {wanted}, got {token!r}") from None
    return values


def _read_vectors(path: Path, size: int) -> list[tuple[int, list[str]]]:
    """The (line number, tokens) of each non-blank line of ``path``."""
    if path.is_dir():
        raise _CliError(f"input is a directory, not a file: {path}")
    if not path.exists():
        raise _CliError(f"input file not found: {path}")
    if not path.is_file():
        raise _CliError(f"input is not a regular file: {path}")
    vectors = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != size:
            raise _CliError(
                f"line {lineno}: expected {size} values, got {len(tokens)}"
            )
        vectors.append((lineno, tokens))
    if not vectors:
        raise _CliError(f"no vectors found in {path}")
    return vectors


def _cmd_apply(args) -> tuple[str, int]:
    method = normalize_method(args.method)
    scaled = _load_seed(args.approx, args.size, method)
    vectors = _read_vectors(Path(args.input), args.size)
    lines = []
    if args.int:
        if scaled.factored is None:
            if method == "exact":
                raise _CliError("--int needs a dyadic method (JAM or I..VII)")
            raise _CliError("--int needs a catalog seed: the float 'exact' seed has no factored form")
        rows = [_numbers(lineno, tokens, int, "--int requires integer inputs") for lineno, tokens in vectors]
        try:
            batch = np.array(rows, dtype=np.int64).T
        except OverflowError:
            raise _CliError("--int inputs must fit in 64-bit integers") from None
        # one exact (N, B) product; column b is the image of vector b
        result = fastpath.apply(scaled.factored, batch)
        nums, shifts = canonical(result.numerators(), result.shift)
        for col_nums, col_shifts in zip(nums.T.tolist(), shifts.T.tolist()):
            lines.append(" ".join(map(dyadic_str, col_nums, col_shifts)))
    else:
        dense = scaled.dense
        for lineno, tokens in vectors:
            vec = np.array(_numbers(lineno, tokens, float, "inputs must be numbers"))
            if not np.all(np.isfinite(vec)):
                raise _CliError(f"line {lineno}: inputs must be finite numbers")
            with np.errstate(over="ignore", invalid="ignore"):
                result = dense @ vec
            if not np.all(np.isfinite(result)):
                raise _CliError(f"line {lineno}: the transformed vector overflows float64")
            lines.append(" ".join(f"{v:.10g}" for v in result))
    return "\n".join(lines) + "\n", 0


def _cmd_tables(args) -> tuple[str, int]:
    ids = analysis.TABLE_IDS if args.id == "all" else (args.id,)
    out = analysis.render([analysis.reproduce_table(i) for i in ids], args.format)
    if args.out:
        Path(args.out).write_text(out)
        return "", 0
    return out, 0


def _cmd_verify(args) -> tuple[str, int]:
    if args.max_size < 2:
        raise _CliError("--max-size must be at least 2")
    sizes = []
    n = 2
    while n <= args.max_size:
        sizes.append(n)
        n *= 2
    lines = []
    worst = 0.0
    for name in IDENTITY_NAMES:
        for size in sizes:
            residual = verify_identity(name, size)
            worst = max(worst, residual)
            lines.append(f"{name:<22} N={size:<4d} residual={residual:.3e}")
    lines.append(f"max residual: {worst:.3e}")
    ok = worst <= RESIDUAL_BOUND
    lines.append(
        "all identities verified" if ok else "IDENTITY CHECK FAILED"
    )
    return "\n".join(lines) + "\n", 0 if ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="dctscale", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="print an exact transform or structural matrix")
    p.add_argument(
        "--kind",
        required=True,
        choices=_TRANSFORM_KINDS + tuple(k.value for k in StructuralKind),
    )
    p.add_argument(
        "--size",
        required=True,
        type=int,
        help="matrix order (half-size for shuffle and butterfly; power of two for bitrev)",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_gen)

    # the one option set of the design verbs scale, metrics and apply
    design = _Parser(add_help=False)
    for flag, kind, text in (
        ("--approx", str, "catalog id, or 'exact' for scale and for apply without --int"),
        ("--method", str, f"{'|'.join(METHOD_IDS)}; metrics and apply --int take all but exact"),
        ("--size", _design_size, "a power of two from 16 to 1024"),
    ):
        design.add_argument(flag, required=True, type=kind, help=text)

    p = sub.add_parser("scale", parents=[design], help="double a seed transform and report its error")
    p.add_argument(
        "--orthogonalize",
        action="store_true",
        help="print the orthogonalized transform instead of the raw one",
    )
    p.set_defaults(handler=_cmd_scale)

    p = sub.add_parser("metrics", parents=[design], help="print one figure-of-merit row")
    p.add_argument("--rho", type=float, default=0.95)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("apply", parents=[design], help="transform vectors from a file")
    p.add_argument("--input", required=True, help="one whitespace-separated vector per line")
    p.add_argument(
        "--int",
        action="store_true",
        help="integer inputs; use the exact dyadic path and print exact values",
    )
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("tables", help="recompute reference tables with deltas")
    p.add_argument("--id", required=True, help="table id or 'all'")
    p.add_argument("--format", choices=analysis.TABLE_FORMATS, default="md")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(handler=_cmd_tables)

    p = sub.add_parser("verify", help="residuals of all exact identities")
    p.add_argument("--max-size", type=int, default=64)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out, code = args.handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out:
        sys.stdout.write(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
