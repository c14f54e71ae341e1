"""Command-line front end.

Commands:

* ``sample``      - emit a seeded random matrix (unitary / xu / circulant_xu / zu)
* ``decompose``   - decompose an XU matrix into weighted permutations
* ``scale``       - factor a unitary as e^(i*alpha) Z1 X Z2 with X in XU(n)
* ``verify``      - recheck a decomposition against a target matrix
* ``pitch-table`` - the pitch tables x(r,s), y(r,s) for a prime dimension
* ``transfer``    - the transfer matrix M[r,s] with its diagnostics
* ``selfcheck``   - run the built-in reference-value suite

Matrices, permutations, and decompositions travel as JSON (schemas in the
module docstrings of ``numerics`` and ``permsum``); numbers are emitted
with 17 significant digits so round-trips preserve every double. Exit
status: 0 on success, 1 for engine errors (non-XU input, convergence
failure, unsupported dimension), 2 for unparsable input, an unusable
option value or an ``--output`` file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import selfcheck as _selfcheck
from .birkhoff import METHODS, VERIFY_TOL, decompose_xu, verify
from .errors import (
    DimensionError,
    NotAPermutationError,
    UnsupportedDimensionError,
    XUBirkhoffError,
)
from .numerics import (
    DEFAULT_TOL,
    _matrix_doc,
    check_int,
    check_tol,
    dumps_json,
    line_sum_spread,
    line_sums,
    matrix_from_json,
    max_abs_diff,
)
from .permsum import _perm_sum_text, perm_sum_from_json
from .sampling import KINDS, SampleSpec, sample
from .scaling import ScalingOptions, zxz_scale
from .xu_group import is_prime, pitch, transfer_block_dims, transfer_matrix
from .permutations import detect_supercirculant


class ParseError(Exception):
    """Unreadable or schema-violating input, an unusable option value, or
    an output file that cannot be written (exit status 2)."""


def _load_json(path: str, parse):
    """``parse`` of the text of the JSON file ``path``: the one place where
    the CLI reads a file. A file that cannot be read, text that is not
    JSON and a document that ``parse`` refuses are bad input, named by
    path; ``json.JSONDecodeError`` is a ValueError, so it is caught
    first."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e
    except (ValueError, TypeError, KeyError, NotAPermutationError) as e:
        raise ParseError(f"{path}: {e}") from e


def _load_matrix(path: str) -> np.ndarray:
    return _load_json(path, lambda text: matrix_from_json(json.loads(text)))


def _emit(text: str, output: str | None) -> None:
    """Write the document ``text`` and a newline to the file ``output``, or
    to stdout when it is unset, without joining them into one more copy; a
    file that cannot be written is a usage error, as one that cannot be
    read is."""
    if not output:
        sys.stdout.write(text)
        sys.stdout.write("\n")
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as e:
        raise ParseError(f"cannot write {output}: {e}") from e


def _tol(args, default):
    """``--tol``, or ``default`` when it is not given. Checked before any
    work: NaN, an infinity, zero or a negative value is a usage error."""
    return default if args.tol is None else check_tol(args.tol, "--tol")


def _seed(args) -> int:
    """``--seed``, checked before any work as ``--tol`` is: a negative
    seed is a usage error that names the option."""
    return check_int(args.seed, 0, "--seed", ValueError)


def _positive_int(text: str) -> int:
    """argparse type of a dimension ``n``: an integer >= 1 by
    ``check_int``. Anything else is a usage error (exit 2) before any
    work."""
    try:
        return check_int(int(text), 1, "n")
    except (ValueError, DimensionError):
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        ) from None


def _cmd_sample(args) -> int:
    spec = SampleSpec(n=args.n, kind=args.kind, seed=args.seed)
    _emit(dumps_json(_matrix_doc(sample(spec))), args.output)
    return 0


def _cmd_decompose(args) -> int:
    # --tol gates the input's membership, DEFAULT_TOL unset. The report
    # checks at no less than VERIFY_TOL: the engines that scale carry the
    # scaling residual.
    tol = _tol(args, DEFAULT_TOL)
    seed = _seed(args)
    report_tol = max(tol, VERIFY_TOL)
    if args.p is not None and args.method != "xu3":
        raise ParseError(
            f"--p applies only to --method xu3, not --method {args.method}"
        )
    a = _load_matrix(args.matrix)
    opts = ScalingOptions(rng_seed=seed)
    p = complex(args.p) if args.p is not None else 1.0
    s = decompose_xu(a, method=args.method, p=p, opts=opts, tol=tol)
    report = verify(s, a, tol=report_tol)
    _emit(_perm_sum_text(s, report.to_json()), args.output)
    return 0


def _cmd_scale(args) -> int:
    tol = _tol(args, DEFAULT_TOL)
    seed = _seed(args)
    a = _load_matrix(args.matrix)
    fac = zxz_scale(a, ScalingOptions(tol=tol, rng_seed=seed))
    out = {
        "alpha": fac.alpha,
        "z1": fac.z1,
        "z2": fac.z2,
        "core": _matrix_doc(fac.core),
        "spread": fac.spread,
        "iterations": fac.iterations,
        "restarts": fac.restarts,
        "reconstruction_error": max_abs_diff(fac.reconstruct(), a),
    }
    _emit(dumps_json(out), args.output)
    return 0


def _cmd_verify(args) -> int:
    tol = _tol(args, VERIFY_TOL)
    # The text itself, which ``perm_sum_from_json`` reads through its
    # arrays when ``decompose`` wrote it.
    s = _load_json(args.decomposition, perm_sum_from_json)
    a = _load_matrix(args.matrix)
    report = verify(s, a, tol=tol)
    _emit(dumps_json(report.to_json()), args.output)
    return 0 if report.ok else 1


def _cmd_pitch_table(args) -> int:
    n = args.n
    # Checked here too, because n = 1 has no cell to run pitch on.
    if not is_prime(n):
        raise UnsupportedDimensionError(
            f"pitch tables need a prime dimension, got n={n}"
        )
    cells = [[pitch(n, r, s) for s in range(1, n)] for r in range(1, n)]
    xs = [[x for x, _ in row] for row in cells]
    ys = [[y for _, y in row] for row in cells]
    _emit(dumps_json({"n": n, "x": xs, "y": ys}), args.output)
    return 0


def _cmd_transfer(args) -> int:
    try:
        tm = transfer_matrix(args.n, args.r, args.s)
    except DimensionError as e:
        raise ParseError(str(e)) from e
    pitches = detect_supercirculant(tm.matrix)
    out = {
        "n": tm.n,
        "r": tm.r,
        "s": tm.s,
        "block_dims": list(transfer_block_dims(tm.n, tm.r, tm.s)),
        "pitches": list(pitches) if pitches is not None else None,
        "max_line_sum": line_sum_spread(*line_sums(tm.matrix), 0.0),
        "matrix": _matrix_doc(tm.matrix),
    }
    _emit(dumps_json(out), args.output)
    return 0


def _cmd_selfcheck(args) -> int:
    return _selfcheck.run(sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; ``main`` runs the command ``c`` by ``_cmd_c``
    (dashes as underscores)."""
    parser = argparse.ArgumentParser(
        prog="xubirkhoff",
        description="Decompose unit-line-sum unitaries into weighted "
        "permutation matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="emit a seeded random matrix")
    sp.add_argument("n", type=_positive_int, help="matrix dimension")
    sp.add_argument("--kind", choices=KINDS, default="xu")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", default=None)

    dp = sub.add_parser("decompose", help="decompose an XU matrix")
    dp.add_argument("matrix", help="path to matrix JSON")
    dp.add_argument("--method", choices=METHODS, default="auto")
    dp.add_argument("--tol", type=float, default=None)
    dp.add_argument("--seed", type=int, default=0, help="scaling restart seed")
    dp.add_argument(
        "--p",
        default=None,
        help="parameter of the six-weight XU(3) family, e.g. '0.5+0.5j'",
    )
    dp.add_argument("--output", default=None)

    cp = sub.add_parser("scale", help="ZXZ-factor a unitary matrix")
    cp.add_argument("matrix", help="path to matrix JSON")
    cp.add_argument("--tol", type=float, default=None)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--output", default=None)

    vp = sub.add_parser("verify", help="recheck a decomposition")
    vp.add_argument("decomposition", help="path to decomposition JSON")
    vp.add_argument("matrix", help="path to the target matrix JSON")
    vp.add_argument("--tol", type=float, default=None)
    vp.add_argument("--output", default=None)

    pp = sub.add_parser("pitch-table", help="pitch tables for a prime n")
    pp.add_argument("n", type=_positive_int)
    pp.add_argument("--output", default=None)

    tp = sub.add_parser("transfer", help="transfer matrix M[r,s]")
    tp.add_argument("n", type=_positive_int)
    tp.add_argument("r", type=int)
    tp.add_argument("s", type=int)
    tp.add_argument("--output", default=None)

    sub.add_parser("selfcheck", help="run the built-in reference checks")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The handler is looked up by name at each call, so that a replaced
    # ``_cmd_*`` function (a test double, a tracing wrapper) takes effect.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except XUBirkhoffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
