"""Complex matrices, roots of unity, the Fourier matrix, and class predicates.

Conventions used throughout the package:

* matrices are dense square ``numpy`` arrays of ``complex128``;
* indices are 1-based in documentation and external formats, 0-based in code;
* a "line sum" is a row sum or a column sum;
* matrix equality is the maximum entrywise modulus of the difference.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import DimensionError, MembershipError

DEFAULT_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 array.

    Raises DimensionError for non-square input and ValueError for
    non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def check_int(value, least: int | None, what: str, error=DimensionError) -> int:
    """``value`` as an int when it is an integer >= ``least`` (numpy
    integers included, bool not; any integer when ``least`` is None);
    anything else raises ``error`` naming ``what``. Sizes and indices
    raise DimensionError, seeds and counts ValueError."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Integral)
        or (least is not None and value < least)
    ):
        if least is None:
            kind = "an integer"
        else:
            kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise error(f"{what} must be {kind}, got {value!r}")
    return int(value)


def check_tol(value, what: str) -> float:
    """``value`` as a float when it is a positive finite number, not a bool;
    anything else raises ValueError naming ``what``. Every tolerance passes here."""
    number = isinstance(value, Real) and not isinstance(value, bool)
    if not (number and 0 < value < math.inf):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return float(value)


def root_of_unity(n: int, a: int) -> complex:
    """e^(i*2*pi*a/n), with the exponent reduced mod n before evaluation.

    Reduction keeps large exponents exact instead of accumulating argument
    error, and repeated multiplication is never used.
    """
    n = check_int(n, 1, "root order n")
    a = check_int(a, None, "root exponent a")
    return complex(np.exp(2j * math.pi * (a % n) / n))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary discrete Fourier matrix F with F[k,l] = w^(k*l)/sqrt(n).

    Exponents are reduced mod n entrywise (w the primitive n-th root of
    unity), so F is numerically symmetric and F^-1 = F.conj(). The matrix
    is cached per n and returned read-only; copy it to modify it.
    """
    # Checked before the cache, where 3.0 and True would find the entries
    # of 3 and 1.
    return _dft_matrix(check_int(n, 1, "dimension n"))


# Every table the package caches per n (this one, the tables of
# ``permutations``, ``birkhoff``'s first-row map, ``scaling``'s constants,
# the JSON writer's ``_int_table`` and ``_array_template``) keeps 64 sizes,
# and each array among them returns through ``_frozen``: all callers share
# it.
@lru_cache(maxsize=64)
def _dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return _frozen(np.exp(2j * math.pi * (np.outer(k, k) % n) / n) / math.sqrt(n))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only together with every array it views, so that no
    view of it, ``a.base`` included, writes to its data."""
    view = a
    while isinstance(view, np.ndarray):
        view.flags.writeable = False
        view = view.base
    return a


def line_sums(m) -> tuple[np.ndarray, np.ndarray]:
    """Return (row_sums, col_sums) of a square matrix."""
    a = as_complex_matrix(m)
    return a.sum(axis=1), a.sum(axis=0)


def line_sum_spread(rows, cols, value: complex = 1.0) -> float:
    """The largest |sum - value| over the row sums ``rows`` and the column
    sums ``cols``: the package's one measure of line sums."""
    largest = np.maximum.reduce
    return max(float(largest(np.abs(rows - value))), float(largest(np.abs(cols - value))))


def max_abs_diff(a, b) -> float:
    """Maximum entrywise modulus of the difference of two matrices."""
    return float(np.maximum.reduce(np.abs(np.asarray(a) - np.asarray(b)), None))


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    tol = check_tol(tol, "tol")
    return _unitarity_deviation(as_complex_matrix(m)) <= tol


def _unitarity_deviation(a: np.ndarray) -> float:
    """max |A^H A - I| entrywise, of a square complex array."""
    g = a.conj().T @ a
    g.flat[:: len(a) + 1] -= 1
    return float(np.maximum.reduce(np.abs(g), None))


def require_unitary(m, tol: float, what: str) -> np.ndarray:
    """Return ``m`` as a square complex array after checking that it is
    unitary at ``tol``; raise MembershipError naming ``what`` otherwise."""
    check_tol(tol, "tol")
    a = as_complex_matrix(m)
    if not _unitarity_deviation(a) <= tol:
        raise MembershipError(f"{what} is not unitary at tolerance {tol}")
    return a


def shift_relation_holds(a: np.ndarray, x: int, tol: float) -> bool:
    """True when A[k+1, l+x] = A[k, l] entrywise (indices mod n).

    x = 1 is the circulant relation, x = n-1 the anticirculant one.
    Row shift by one with column shift by x is equivalent to
    A[(k+1) % n] being A[k] rolled right by x.
    """
    tol = check_tol(tol, "tol")
    rolled = np.roll(a, shift=(1, x), axis=(0, 1))
    return max_abs_diff(rolled, a) <= tol


@dataclass(frozen=True)
class MatrixClass:
    """Outcome of the numeric class tests run by ``classify``.

    ``is_xu`` is ``require_xu``'s rule. ``line_sum`` is present exactly
    when all 2n line sums agree with their mean within the tolerance; its
    value is that mean.
    """

    is_unitary: bool
    is_xu: bool
    is_zu: bool
    is_circulant: bool
    is_anticirculant: bool
    line_sum: Optional[complex] = None


def classify(m, tol: float = DEFAULT_TOL) -> MatrixClass:
    """Run all matrix-class predicates on ``m`` at tolerance ``tol``.

    XU(n) membership means unitary with every line sum within ``tol`` of 1,
    the rule of ``xu_group.require_xu``; ZU(n) means diagonal, unit-modulus
    entries, and entry (1,1) equal to 1. Every flag is a Python bool; a 1x1
    matrix is circulant and anticirculant, as both shifts leave it in place.
    """
    tol = check_tol(tol, "tolerance")
    a = as_complex_matrix(m)
    n = a.shape[0]

    unitary = is_unitary(a, tol)

    rows, cols = line_sums(a)
    mean = complex(np.concatenate([rows, cols]).mean())
    ls = mean if line_sum_spread(rows, cols, mean) <= tol else None

    xu = unitary and line_sum_spread(rows, cols) <= tol

    off_diag = a - np.diag(np.diag(a))
    zu = (
        float(np.abs(off_diag).max(initial=0.0)) <= tol
        and float(np.abs(np.abs(np.diag(a)) - 1.0).max()) <= tol
        and float(abs(a[0, 0] - 1.0)) <= tol
    )

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
    doc = _matrix_doc(m)
    return {**doc, "entries": json_pairs(doc["entries"])}


def _matrix_doc(m) -> dict:
    """The matrix schema with its entries left as the complex array, which
    ``dumps_json`` writes as it writes ``matrix_to_json(m)``."""
    a = as_complex_matrix(m)
    return {"dim": a.shape[0], "entries": a}


def json_pairs(z) -> list:
    """A complex array (or number) as nested lists of ``[re, im]`` pairs of
    floats: the writing twin of ``json_complex``."""
    z = np.asarray(z)
    return np.stack([z.real, z.imag], -1).tolist()


def json_array(nested, shape: tuple, integers: bool, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as an int64 (``integers``) or float64
    array of ``shape``: the one reader of numbers for every schema.

    Raises ValueError naming the field ``what`` for anything but an int or
    a float among the numbers (a string, boolean, null, object or too deep
    a list), a float in an integer field, a wrong shape, a non-finite
    float, or an integer beyond int64. A scalar field (``shape`` ``()``)
    must be "an integer" or "a number", any other "integers" or "numbers".
    """
    leaves = [nested]
    try:
        for _ in shape:
            leaves = chain.from_iterable(leaves)
        kinds = set(map(type, leaves))
    except TypeError:
        raise ValueError(f"{what} must have shape {shape}") from None
    # float() would also read "2" and true, and bool is an int subclass.
    numbers = (int, np.integer) if integers else (int, float, np.integer, np.floating)
    for kind in kinds:
        if kind is bool or not issubclass(kind, numbers):
            if shape:
                word = "integers" if integers else "numbers"
            else:
                word = "an integer" if integers else "a number"
            raise ValueError(f"{what} must be {word}, got {kind.__name__}")
    dtype = np.dtype(np.int64 if integers else np.float64)
    try:
        a = np.array(nested, dtype=dtype)
    except ValueError:
        raise ValueError(f"{what} must have shape {shape}") from None
    except OverflowError:
        raise ValueError(f"{what} must fit in {dtype.name}") from None
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    if not integers and not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def json_complex(nested, shape: tuple, what: str) -> np.ndarray:
    """``json_array`` of ``[re, im]`` pairs as a complex array of ``shape``;
    every bit of each part survives, -0.0 included."""
    return json_array(nested, (*shape, 2), False, what).view(complex).reshape(shape)


def json_size(value, what: str) -> int:
    """A size field (``dim``, ``n``): a JSON integer of at least 1."""
    return check_int(int(json_array(value, (), True, what)), 1, what, ValueError)


def matrix_from_json(obj) -> np.ndarray:
    """Parse the shared matrix schema back into a complex array."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must have 'dim' and 'entries' fields")
    n = json_size(obj["dim"], "matrix 'dim'")
    return json_complex(obj["entries"], (n, n), "matrix entries")


def _format_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    f = float(v)
    if not math.isfinite(f):
        raise ValueError("cannot serialize non-finite number")
    text = format(f, ".17g")
    # "-0" would read back as the integer 0.
    return "-0.0" if text == "-0" else text


_NUMBERS = (bool, int, float)
_SPECS = {int: "%d", float: "%.17g"}
# Elements of a block formatted by one %, which bounds the size of a
# chunk's template and of its tuple of numbers.
_CHUNK = 64
_NEGATIVE_ZERO = re.compile(r"-0(?=[,\]])")
# A JSON string literal, as json.dumps(s, ensure_ascii=False) writes it.
_quote = json.JSONEncoder(ensure_ascii=False).encode


@lru_cache(maxsize=256)
def _line_template(spec: str, k: int) -> str:
    """``[spec, spec, ...]``: the %-template of a one-line list of k numbers."""
    return "[" + ", ".join([spec] * k) + "]"


def _checked(text: str) -> str:
    """%-formatted ``text`` with nan and inf refused and -0.0 written as
    ``-0.0``: every finite %.17g form is digits, '.', '-', '+' and 'e', and
    only -0.0 prints as "-0" before a separator, since exponents have two
    digits at least."""
    # The search for one character is the fast one.
    if "n" in text and ("nan" in text or "inf" in text):
        raise ValueError("cannot serialize non-finite number")
    return _NEGATIVE_ZERO.sub("-0.0", text)


def _dump_block(rows, template: str, indent: int) -> str:
    """``rows`` one element a line: each chunk of up to ``_CHUNK`` rows is
    one % of ``template`` repeated, over the values of the chunk's rows
    (numbers, or the text of a one-line list for a ``%s``)."""
    sep = ",\n" + " " * (indent + 2)
    chunks = []
    count = 0
    for start in range(0, len(rows), _CHUNK):
        part = rows[start : start + _CHUNK]
        if len(part) != count:
            count = len(part)
            chunk_template = sep.join([template] * count)
        chunks.append(_checked(chunk_template % tuple(chain.from_iterable(part))))
    return _block(chunks, indent, "[", "]")


@lru_cache(maxsize=64)
def _array_template(shape: tuple, indent: int) -> str:
    """The %-template of a complex array of ``shape`` at ``indent``: nested
    blocks of ``[re, im]`` lines, as ``dumps_json`` writes its pairs."""
    if not shape:
        return _line_template("%.17g", 2)
    if not shape[0]:
        return "[]"
    inner = _array_template(shape[1:], indent + 2)
    return _block([inner] * shape[0], indent, "[", "]")


def _dump_array(value: np.ndarray, indent: int) -> str:
    """``dumps_json(json_pairs(value))``, from the array. The parts of
    complex64 and complex128 are floats, as in ``json_pairs``; an array of
    any other dtype, or a 0-d one, raises TypeError."""
    if value.ndim == 0 or value.dtype.char not in "FD":
        raise TypeError(f"cannot serialize a {value.ndim}-d {value.dtype} array")
    if not len(value):
        return "[]"
    parts = np.ascontiguousarray(value, complex).view(float)
    rows = parts.reshape(len(value), -1).tolist()
    return _dump_block(rows, _array_template(value.shape[1:], indent + 2), indent)


@lru_cache(maxsize=64)
def _int_table(stop: int) -> np.ndarray:
    """``b", v"`` for each v in range(stop), as one bytes dtype, which pads
    every entry with NULs to the width of the longest."""
    return _frozen(np.array([b", %d" % v for v in range(stop)]))


def _int_lines(values: np.ndarray, stop: int, head: str, tail: str) -> str:
    """One line per row of ``values``, a (k, m) integer array with m >= 1
    and every entry in range(stop), joined by newlines: ``head``, the
    row's entries as ``dumps_json(row)`` writes them between its brackets,
    then ``tail``. ``head`` and ``tail`` are ASCII.

    One gather from ``_int_table(stop)`` writes every entry, NUL-padded,
    between the head and the tail of its row. The first entry of a row
    loses its ", ", and one ``bytes.translate`` drops the padding: a few
    array passes instead of a %d per entry."""
    k, m = values.shape
    table = _int_table(stop)
    width = m * table.dtype.itemsize
    head, tail = head.encode(), tail.encode() + b"\n"
    text = np.empty((k, len(head) + width + len(tail)), dtype=np.uint8)
    text[:, : len(head)] = np.frombuffer(head, np.uint8)
    entries = text[:, len(head) : len(head) + width]
    entries[:] = table[values].view(np.uint8).reshape(k, width)
    entries[:, :2] = 0
    text[:, len(head) + width :] = np.frombuffer(tail, np.uint8)
    return text.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _dump_list(value, indent: int) -> str:
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if len(kinds) == 1 and (spec := _SPECS.get(next(iter(kinds)))):
        return _checked(_line_template(spec, len(value)) % tuple(value))
    items = [_dump(v, indent + 2) for v in value]
    if all(isinstance(v, _NUMBERS) for v in value):
        return "[" + ", ".join(items) + "]"
    return _block(items, indent, "[", "]")


def _dump_dict(value, indent: int) -> str:
    if not value:
        return "{}"
    items = [f"{_quote(str(k))}: {_dump(v, indent + 2)}" for k, v in value.items()]
    return _block(items, indent, "{", "}")


def _block(items: list, indent: int, open_: str, close: str) -> str:
    """``items`` one to a line between ``open_`` and ``close``.

    The brackets go into the first and the last item, so that the join is
    the one copy of the items: a ``decompose`` document at n = 31 is about
    200 KB, and each further copy raises the command's peak memory.
    """
    pad = " " * (indent + 2)
    items[0] = f"{open_}\n{pad}{items[0]}"
    items[-1] = f"{items[-1]}\n{' ' * indent}{close}"
    return (",\n" + pad).join(items)


def _dump_any(value, indent: int) -> str:
    """Leaves, and subclasses of list, tuple and dict, by ``isinstance``."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, _NUMBERS):
        return _format_number(value)
    if isinstance(value, (list, tuple)):
        return _dump_list(value, indent)
    if isinstance(value, dict):
        return _dump_dict(value, indent)
    raise TypeError(f"cannot serialize {type(value).__name__}")


_CONTAINERS = {
    list: _dump_list,
    tuple: _dump_list,
    dict: _dump_dict,
    np.ndarray: _dump_array,
}


def _dump(value, indent: int) -> str:
    return _CONTAINERS.get(type(value), _dump_any)(value, indent)


def dumps_json(value, indent: int = 0) -> str:
    """Serialize nested dict/list/tuple/number/str/bool/None and complex
    arrays.

    The layout is fixed, and the tests pin it byte for byte:

    * a list or tuple whose elements are all numbers (bool, int or float)
      stays on one line, ``[a, b, c]``;
    * every element of any other non-empty list, and every member of a
      non-empty dict, goes on a line of its own, indented two spaces
      deeper than the line of the opening bracket; ``indent`` is the
      indent of that line;
    * floats are printed as ``%.17g`` (17 significant digits, lossless
      for doubles), except -0.0, which is printed as ``-0.0`` so that it
      reads back as a float with its sign; nan and inf raise ValueError;
    * strings and dict keys (read with ``str``) are escaped as
      ``json.dumps(s, ensure_ascii=False)`` escapes them.

    No trailing newline is added; the CLI writes one after the document.
    A complex ``np.ndarray`` of ndim >= 1 (complex64 or complex128) is
    written as its ``json_pairs`` are. Other types, ``np.int64`` and any
    other array among them, raise TypeError; float subclasses such as
    ``np.float64`` print as floats.

    The stdlib encoder prints shortest round-trip floats; the fixed 17-digit
    form is part of the output contract, hence this small emitter. A list
    made only of ``int``s or only of ``float``s is formatted with one
    %-template, any other list one element at a time: the reference path
    the tests compare against. A complex array is formatted from one
    cached template per shape and indent, one % per 64 elements of its
    first axis. ``permsum`` writes decomposition documents from a sum's
    arrays through the same templates and blocks, and the tests pin its
    text to this function's.
    """
    return _dump(value, indent)
