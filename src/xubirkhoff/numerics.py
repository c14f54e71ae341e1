"""Complex matrices, roots of unity, the Fourier matrix, and class predicates.

Conventions used throughout the package:

* matrices are dense square ``numpy`` arrays of ``complex128``;
* indices are 1-based in documentation and external formats, 0-based in code;
* a "line sum" is a row sum or a column sum;
* matrix equality is the maximum entrywise modulus of the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError

DEFAULT_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 array.

    Raises DimensionError for non-square input and ValueError for
    non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def root_of_unity(n: int, a: int) -> complex:
    """e^(i*2*pi*a/n), with the exponent reduced mod n before evaluation.

    Reduction keeps large exponents exact instead of accumulating argument
    error, and repeated multiplication is never used.
    """
    if n < 1:
        raise DimensionError(f"root order must be positive, got n={n}")
    return complex(np.exp(2j * math.pi * (a % n) / n))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix F with F[k,l] = w^(k*l)/sqrt(n).

    Exponents are reduced mod n entrywise (w the primitive n-th root of
    unity), so F is numerically symmetric and F^-1 = F.conj().
    """
    if n < 1:
        raise DimensionError(f"dimension must be positive, got n={n}")
    k = np.arange(n)
    return np.exp(2j * math.pi * (np.outer(k, k) % n) / n) / math.sqrt(n)


def line_sums(m) -> tuple[np.ndarray, np.ndarray]:
    """Return (row_sums, col_sums) of a square matrix."""
    a = as_complex_matrix(m)
    return a.sum(axis=1), a.sum(axis=0)


def max_abs_diff(a, b) -> float:
    """Maximum entrywise modulus of the difference of two matrices."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_complex_matrix(m)
    n = a.shape[0]
    return max_abs_diff(a.conj().T @ a, np.eye(n)) <= tol


def shift_relation_holds(a: np.ndarray, x: int, tol: float) -> bool:
    """True when A[k+1, l+x] = A[k, l] entrywise (indices mod n).

    x = 1 is the circulant relation, x = n-1 the anticirculant one.
    Row shift by one with column shift by x is equivalent to
    A[(k+1) % n] being A[k] rolled right by x.
    """
    n = a.shape[0]
    rolled = np.roll(a, shift=(1, x), axis=(0, 1))
    return max_abs_diff(rolled, a) <= tol


@dataclass(frozen=True)
class MatrixClass:
    """Outcome of the numeric class tests run by ``classify``.

    ``line_sum`` is present exactly when all 2n line sums agree with their
    mean within the tolerance; its value is that mean.
    """

    is_unitary: bool
    is_xu: bool
    is_zu: bool
    is_circulant: bool
    is_anticirculant: bool
    line_sum: Optional[complex] = None


def classify(m, tol: float = DEFAULT_TOL) -> MatrixClass:
    """Run all matrix-class predicates on ``m`` at tolerance ``tol``.

    XU(n) membership means unitary with all line sums equal to 1; ZU(n)
    means diagonal, unit-modulus entries, and entry (1,1) equal to 1.
    A 1x1 matrix is circulant and anticirculant by convention.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = as_complex_matrix(m)
    n = a.shape[0]

    unitary = is_unitary(a, tol)

    rows, cols = line_sums(a)
    sums = np.concatenate([rows, cols])
    mean = complex(sums.mean())
    constant = bool(np.abs(sums - mean).max() <= tol)
    ls = mean if constant else None

    xu = unitary and constant and abs(mean - 1.0) <= tol

    off_diag = a - np.diag(np.diag(a))
    zu = (
        float(np.abs(off_diag).max(initial=0.0)) <= tol
        and bool(np.abs(np.abs(np.diag(a)) - 1.0).max() <= tol)
        and abs(a[0, 0] - 1.0) <= tol
    )

    if n == 1:
        circ = anticirc = True
    else:
        circ = shift_relation_holds(a, 1, tol)
        anticirc = shift_relation_holds(a, n - 1, tol)

    return MatrixClass(
        is_unitary=unitary,
        is_xu=xu,
        is_zu=zu,
        is_circulant=circ,
        is_anticirculant=anticirc,
        line_sum=ls,
    )


# ---------------------------------------------------------------------------
# JSON interchange
#
# Matrix schema, used repo-wide:
#     {"dim": n, "entries": [[[re, im], ...n], ...n]}
# Numbers are emitted with 17 significant digits so that reading back what
# was written reproduces every double exactly.
# ---------------------------------------------------------------------------


def matrix_to_json(m) -> dict:
    """Convert a matrix to the shared JSON-ready schema."""
    a = as_complex_matrix(m)
    n = a.shape[0]
    entries = [
        [[float(a[k, l].real), float(a[k, l].imag)] for l in range(n)]
        for k in range(n)
    ]
    return {"dim": n, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the shared matrix schema back into a complex array."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must have 'dim' and 'entries' fields")
    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix 'dim' must be a positive integer, got {n!r}")
    entries = obj["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("matrix 'entries' must be an n x n grid")
    a = np.empty((n, n), dtype=complex)
    for k, row in enumerate(entries):
        for l, pair in enumerate(row):
            re, im = pair
            a[k, l] = complex(float(re), float(im))
    return as_complex_matrix(a)


def _format_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not math.isfinite(f):
        raise ValueError("cannot serialize non-finite number")
    return format(f, ".17g")


def dumps_json(value, indent: int = 0) -> str:
    """Serialize nested dict/list/number/str/bool/None with floats printed
    to 17 significant digits (lossless for doubles).

    The stdlib encoder prints shortest round-trip floats; the fixed 17-digit
    form is part of the output contract, hence this small emitter.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, (bool, int, float)):
        return _format_number(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [dumps_json(v, indent + 2) for v in value]
        if all(isinstance(v, (bool, int, float)) for v in value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}"{k}": {dumps_json(v, indent + 2)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")
