"""Weighted sums of permutation matrices, stored as arrays.

``WeightedPermSum`` is the result type of every decomposition of an XU
matrix: a weighted sum of permutation matrices with complex weights.
``ComplexPermSum`` carries terms that are complex permutation matrices: a
permutation together with one unit-modulus phase per row.

Layout. A sum of k terms of size n holds

* ``images``: a read-only ``(k, n)`` integer array (int8 for n <= 127)
  whose row j is the 0-based one-line image of term j, so that
  ``images[j, r] = sigma_j(r + 1) - 1``;
* ``weights``: a read-only ``(k,)`` complex128 array;
* ``phases`` (``ComplexPermSum`` only): a read-only ``(k, n)`` complex128
  array, the phase of each row of each term.

A ``WeightedPermSum`` keeps its rows in lexicographic order and has no
duplicate rows: equal permutations always merge by adding their weights,
in the order the terms arrived. A ``ComplexPermSum`` keeps its terms in
the order given and keeps duplicates, since two complex permutation
matrices on one permutation do not in general add up to a third; it lists
them in lexicographic order through ``items_sorted`` and in the JSON form.

Merging, ordering and the product of two sums (``product``) sort the
rows with one stable ``np.lexsort`` (``permutations._row_order``), for
every n; ``np.bincount`` then sums the weights of equal rows in the order
they arrived. ``product`` composes the rows of every pair of terms, groups
them as merging does, and forms the pair weights only afterwards, a block
at a time.

Engines build sums from arrays through one trusted constructor,
``_PermArrays._trusted``, which checks nothing: an engine's rows are valid
bijections by construction, and a ``WeightedPermSum``'s rows must already
be distinct and in lexicographic order. Arrays from outside the package
enter through ``from_arrays``, which validates them first. Every public
constructor, ``add`` and the ``terms`` setter refuse a weight or phase
that is not finite, as the JSON reader does. The
``Permutation``-object API (``items()``, ``s[p]``, ``p in s``, ``add``,
``terms``, ``items_sorted``) is for callers; its objects (1-based image
tuples) are built only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, NotAPermutationError, UnsupportedDimensionError
from .numerics import (
    _frozen,
    check_int,
    json_array,
    json_complex,
    json_pairs,
    json_size,
)
from .permutations import (
    Permutation,
    _group_rows,
    _image_dtype,
    _perms,
    _row_order,
    perm_to_matrix,
)

# The most entries one ``_add_groups`` call of ``_reconstruct`` adds. An
# all-cells index of an XU(8) sum would take 2.6 MB, and its entries as much
# again. At 2**16, the temporaries of one block at n = 31 (961 terms) come
# to about 1 MB, which glibc's malloc returns to the system after each call:
# 200 page faults, twice the time of two blocks at this bound.
_RECONSTRUCT_BLOCK = 1 << 14
# The most term pairs one ``product`` takes. A pair peaks at 76-91 bytes
# (n = 16 and 31), so this is 3.0-3.6 GB. The recursive engine bounds the
# pairs and cells of each of its folds by the same cap. Below n = 16, its
# largest full-support fold, level 15 of XU(15) (bound 6.9 M cells),
# pairs 458 640 rows into 2.47 M terms in 0.8 s at a 250 MB peak RSS.
_PRODUCT_MAX_PAIRS = 40_000_000


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` when all its entries are finite; ValueError naming ``what``
    otherwise."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def _validated(n: int, images, weights, phases=None):
    """Arrays from outside the package as ``(images, weights, phases)``,
    after checking that every image row is a bijection on 0..n-1, that
    there is one weight per row and, when given, one phase per entry, and
    that all of them are finite."""
    a = np.asarray(images)
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionError(f"images must have shape (k, {n}), got {a.shape}")
    if a.dtype.kind not in "iu":
        raise TypeError(f"image entries must be integers, got {a.dtype}")
    # Range first, so that narrowing cannot wrap; rows sort as int32
    # because numpy sorts short int8 rows an order of magnitude slower.
    in_range = a.size == 0 or (a.min() >= 0 and a.max() < n)
    identity = np.broadcast_to(np.arange(n), a.shape)
    if not in_range or not np.array_equal(np.sort(a.astype(np.int32), axis=1), identity):
        raise NotAPermutationError(f"an image row is not a bijection on 1..{n}")
    # Copies, so that the sum neither freezes nor shares the caller's arrays.
    w = np.array(weights, dtype=complex).reshape(-1)
    ph = None if phases is None else np.array(phases, dtype=complex)
    if len(w) != len(a) or (ph is not None and ph.shape != a.shape):
        shape = "" if ph is None else f", phases {ph.shape}"
        raise DimensionError(f"{len(a)} image rows, {len(w)} weights{shape}")
    _finite(w, "weights")
    if ph is not None:
        _finite(ph, "phases")
    return a.astype(_image_dtype(n)), w, ph


def _add_groups(
    out: np.ndarray, groups: np.ndarray, real: np.ndarray, imag: np.ndarray
) -> None:
    """Add the complex numbers ``real`` + i ``imag`` to ``out`` per group,
    in place: one ``np.bincount`` of the real parts, then one of the
    imaginary parts, each summing its group in input order from 0. A
    bincount sum is never -0.0, so adding it to zeros stores it bit for
    bit."""
    out.real += np.bincount(groups, real, len(out))
    out.imag += np.bincount(groups, imag, len(out))


def _sum_pair_groups(
    inverse: np.ndarray, wa: np.ndarray, wb: np.ndarray, k: int
) -> np.ndarray:
    """Per group g, the sum of wa[i] * wb[j] over the pairs (i, j) with
    ``inverse[i, j] == g``.

    The pair weights are formed a block of rows of ``inverse`` at a time,
    about k pairs per block, so that no array holds a weight for every
    pair. Each block adds its pairs in pair order, and the blocks add up
    in row order.
    """
    out = np.zeros(k, dtype=complex)
    rows = max(1, k // max(1, len(wb)))
    for start in range(0, len(wa), rows):
        w = np.multiply.outer(wa[start : start + rows], wb).reshape(-1)
        _add_groups(out, inverse[start : start + rows].reshape(-1), w.real, w.imag)
    return out


def _merge(images: np.ndarray, weights: np.ndarray):
    """Sorted distinct rows and their weights, each summed in input order."""
    rows, inverse = _group_rows(images)
    out = np.zeros(len(rows), dtype=complex)
    _add_groups(out, inverse, weights.real, weights.imag)
    return rows, out


def _reconstruct(
    n: int, images: np.ndarray, real: np.ndarray, imag: np.ndarray
) -> np.ndarray:
    """sum over terms j of the matrix with ``real[j, r]`` + i ``imag[j, r]``
    at (r, images[j, r]), added in term order. The float parts have shape
    (k, n), or (k,) for a plain sum, whose term j has its weight in every
    row.

    One ``_add_groups`` per block of matrix rows, over the intp cell index
    r * n + images[j, r] of the block, with at most ``_RECONSTRUCT_BLOCK``
    entries per block (and at least one row): all rows at once for a sum
    of n^2 terms up to n = 23, two blocks at n = 29 and 31, one row at a
    time for all of S_8. Each cell adds its entries in term order from
    0. A block of one row takes a plain sum's parts as they are, with no
    copy."""
    out = np.zeros((n, n), dtype=complex)
    rows = max(1, _RECONSTRUCT_BLOCK // max(1, len(images)))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        cells = images[:, lo:hi] + np.arange(0, (hi - lo) * n, n)
        _add_groups(
            out[lo:hi].reshape(-1),
            cells.reshape(-1),
            *(_block_entries(part, lo, hi) for part in (real, imag)),
        )
    return out


def _block_entries(part: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The entries of ``_reconstruct``'s float ``part`` in rows lo..hi-1,
    term by term, as one vector."""
    if part.ndim == 2:
        return part[:, lo:hi].reshape(-1)
    return part if hi - lo == 1 else np.repeat(part, hi - lo)


def check_pairs(n: int, terms_a: int, terms_b: int, what: str = "product") -> None:
    """Raise UnsupportedDimensionError, naming the pair count, when a
    product of sums of ``terms_a`` and ``terms_b`` terms at size n would
    take more than ``_PRODUCT_MAX_PAIRS`` pairs. ``what`` names the product
    in the message. ``product`` calls it before any work, and the
    recursive engine on its bounds before its first fold."""
    pairs = terms_a * terms_b
    if pairs > _PRODUCT_MAX_PAIRS:
        raise UnsupportedDimensionError(
            f"{what} of {terms_a} and {terms_b} terms at n = {n}: {pairs} "
            f"pairs, more than the {_PRODUCT_MAX_PAIRS} one product may take"
        )


def product(a: "WeightedPermSum", b: "WeightedPermSum") -> "WeightedPermSum":
    """The decomposition of A @ B from decompositions of A and B.

    Pairwise products of weights attach to pairwise compositions of
    permutations: term pairs (i, j), i over ``a`` and j over ``b`` in that
    nesting, compose to the permutation with image row
    ``b.images[j, a.images[i]]`` and weight w_i * w_j, and duplicates merge
    in that pair order. The weight sum multiplies, so sums of 1 stay 1.
    An operand that is not a WeightedPermSum, such as a ComplexPermSum
    whose phases the product would drop, raises TypeError. Sizes that
    differ raise DimensionError, and more than ``_PRODUCT_MAX_PAIRS`` pairs
    raise UnsupportedDimensionError before any work (``check_pairs``).

    The composed rows are grouped as ``_merge`` groups rows
    (``_group_rows``) and freed before any pair weight exists; the pair
    weights are then formed and summed a block of pairs at a time
    (``_sum_pair_groups``), which keeps the peak memory down.
    """
    for operand in (a, b):
        if not isinstance(operand, WeightedPermSum):
            raise TypeError(
                f"product takes WeightedPermSum operands, got {type(operand).__name__}"
            )
    n = a.n
    if b.n != n:
        raise DimensionError(f"product of sizes {n} and {b.n}")
    check_pairs(n, len(a), len(b))
    composed = b.images[:, a.images].transpose(1, 0, 2).reshape(-1, n)
    images, inverse = _group_rows(composed)
    del composed
    inverse = inverse.reshape(len(a), len(b))
    merged = _sum_pair_groups(inverse, a.weights, b.weights, len(images))
    return WeightedPermSum._trusted(n, images, merged)


class _PermArrays:
    """What both sum types share: size, engine label, the image, weight
    and (``ComplexPermSum`` only) phase arrays, how they are set, wrapped
    and pruned, and equality. Two sums are equal when type, size, engine
    and every stored array agree, so a plain and a complex sum never are;
    sums are mutable, hence unhashable."""

    _phases: np.ndarray | None = None

    def __init__(self, n: int, engine: str):
        self.n = check_int(n, 1, "dimension n")
        self.engine = engine

    @classmethod
    def _trusted(cls, n: int, images, weights, engine: str = "", phases=None):
        """Wrap arrays an engine built; nothing is checked. Image rows must
        be bijections on 0..n-1, and a ``WeightedPermSum``'s rows distinct
        and in lexicographic order."""
        out = cls.__new__(cls)
        _PermArrays.__init__(out, n, engine)
        out._set(images, weights, phases)
        return out

    def _set(self, images: np.ndarray, weights: np.ndarray, phases=None) -> None:
        self._images = _frozen(images.astype(_image_dtype(self.n), copy=False))
        self._weights = _frozen(weights)
        if phases is not None:
            self._phases = _frozen(phases)

    def pruned(self, eps: float):
        """A new sum without the terms of weight modulus <= eps. When it
        drops none, the new sum shares this one's read-only arrays instead
        of copying them; it is never ``self``, whose engine label callers
        may then set apart."""
        keep = np.abs(self._weights) > eps
        images, weights, phases = self._images, self._weights, self._phases
        if np.count_nonzero(keep) < len(keep):
            images, weights = images[keep], weights[keep]
            phases = None if phases is None else phases[keep]
        return type(self)._trusted(self.n, images, weights, self.engine, phases)

    @property
    def images(self) -> np.ndarray:
        """(k, n) 0-based one-line images, one row per term."""
        return self._images

    @property
    def weights(self) -> np.ndarray:
        """(k,) complex weights, one per image row."""
        return self._weights

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def term_count(self) -> int:
        return len(self._weights)

    def weight_sum(self) -> complex:
        return complex(self._weights.sum())

    def sq_moduli_sum(self) -> float:
        return float(np.vdot(self._weights, self._weights).real)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.engine) == (other.n, other.engine) and all(
            x is y or np.array_equal(x, y)
            for x, y in (
                (self._images, other._images),
                (self._weights, other._weights),
                (self._phases, other._phases),
            )
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, terms={self.term_count}, "
            f"engine={self.engine!r})"
        )


# The benchmark tracer wraps ``pruned`` and ``reconstruct`` where each
# class body holds them, so both bind the shared ``pruned`` by name; each
# defines its own ``reconstruct``, whose bodies differ.


class WeightedPermSum(_PermArrays):
    """A finite map from permutations of {1..n} to complex weights."""

    def __init__(
        self,
        n: int,
        terms: Iterable[tuple[Permutation, complex]] = (),
        engine: str = "",
    ):
        super().__init__(n, engine)
        terms = list(terms)
        for p, _ in terms:
            if p.n != n:
                raise DimensionError(f"term size {p.n} does not match sum size {n}")
        images = np.array([p.image for p, _ in terms], dtype=int).reshape(-1, n) - 1
        weights = np.array([complex(w) for _, w in terms], dtype=complex)
        self._set(*_merge(images, _finite(weights, "weights")))

    @classmethod
    def from_arrays(
        cls, n: int, images, weights, engine: str = ""
    ) -> "WeightedPermSum":
        """The sum of ``weights[j]`` times the permutation with 0-based
        image row ``images[j]``; rows in any order, duplicates merge."""
        a, w, _ = _validated(n, images, weights)
        return cls._trusted(n, *_merge(a, w), engine)

    def _row(self, p: Permutation) -> int | None:
        if p.n != self.n:
            return None
        hit = np.flatnonzero((self._images == np.subtract(p.image, 1)).all(axis=1))
        return int(hit[0]) if len(hit) else None

    def add(self, p: Permutation, w: complex) -> None:
        """Add ``w`` to the weight of ``p`` (O(k log k); for hand-built
        sums)."""
        if p.n != self.n:
            raise DimensionError(
                f"term size {p.n} does not match sum size {self.n}"
            )
        images = np.vstack([self._images, np.subtract(p.image, 1)])
        weights = _finite(np.append(self._weights, complex(w)), "weight")
        self._set(*_merge(images, weights))

    def items(self) -> list[tuple[Permutation, complex]]:
        """Terms sorted lexicographically by permutation image."""
        return list(zip(_perms(self._images), self._weights.tolist()))

    def __getitem__(self, p: Permutation) -> complex:
        j = self._row(p)
        return 0.0 if j is None else complex(self._weights[j])

    def __contains__(self, p: Permutation) -> bool:
        return self._row(p) is not None

    def reconstruct(self) -> np.ndarray:
        """The matrix sum(w * matrix(p)) over all terms."""
        w = self._weights
        real, imag = np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag)
        return _reconstruct(self.n, self._images, real, imag)

    pruned = _PermArrays.pruned


@dataclass(frozen=True)
class ComplexPermTerm:
    """One weighted complex permutation matrix.

    The matrix has its only nonzero entry of row k at column sigma(k) with
    value ``phases[k-1]``; all phases are unit modulus.
    """

    perm: Permutation
    phases: tuple[complex, ...]
    weight: complex

    def matrix(self) -> np.ndarray:
        return perm_to_matrix(self.perm) * np.array(self.phases)[:, None]


class ComplexPermSum(_PermArrays):
    """A weighted sum of complex permutation matrices.

    Terms keep the order they were given in; ``items_sorted`` and the JSON
    form list them in stable lexicographic order of their permutations,
    and two sums are equal only when every term agrees in order.
    """

    def __init__(
        self, n: int, terms: Iterable[ComplexPermTerm] = (), engine: str = ""
    ):
        super().__init__(n, engine)
        self.terms = terms

    @classmethod
    def from_arrays(
        cls, n: int, images, weights, phases, engine: str = ""
    ) -> "ComplexPermSum":
        """The sum of ``weights[j]`` times the complex permutation matrix
        with 0-based image row ``images[j]`` and row phases ``phases[j]``."""
        a, w, ph = _validated(n, images, weights, phases)
        return cls._trusted(n, a, w, engine, ph)

    @property
    def phases(self) -> np.ndarray:
        """(k, n) row phases, one row per term."""
        return self._phases

    @property
    def terms(self) -> list[ComplexPermTerm]:
        """The terms in stored order, as a new list on every read; assign a
        list to replace them."""
        return self._term_list(slice(None))

    @terms.setter
    def terms(self, terms: Iterable[ComplexPermTerm]) -> None:
        terms = list(terms)
        for t in terms:
            if t.perm.n != self.n or len(t.phases) != self.n:
                raise DimensionError(f"term size does not match sum size {self.n}")
        phases = np.array([t.phases for t in terms], dtype=complex)
        self._set(
            np.array([t.perm.image for t in terms], dtype=int).reshape(-1, self.n) - 1,
            _finite(np.array([t.weight for t in terms], dtype=complex), "weights"),
            _finite(phases.reshape(-1, self.n), "phases"),
        )

    def items_sorted(self) -> list[ComplexPermTerm]:
        """The terms in stable lexicographic order of their permutations."""
        return self._term_list(_row_order(self._images))

    def _term_list(self, rows) -> list[ComplexPermTerm]:
        return [
            ComplexPermTerm(p, tuple(ph), w)
            for p, ph, w in zip(
                _perms(self._images[rows]),
                self._phases[rows].tolist(),
                self._weights[rows].tolist(),
            )
        ]

    def reconstruct(self) -> np.ndarray:
        entries = self._weights[:, None] * self._phases
        return _reconstruct(self.n, self._images, entries.real, entries.imag)

    pruned = _PermArrays.pruned


# ---------------------------------------------------------------------------
# JSON interchange
#
# Decomposition schema:
#     {"n": n, "engine": name,
#      "terms": [{"perm": [...], "weight": [re, im],
#                 "phases": [[re, im], ...]   -- complex terms only
#                }, ...],
#      "report": {...}}   -- attached by the caller, not by these helpers
# ---------------------------------------------------------------------------


def perm_sum_to_json(s) -> dict:
    """Serialize a WeightedPermSum or ComplexPermSum (terms in lexicographic
    order, without a report)."""
    if not isinstance(s, _PermArrays):
        raise TypeError(f"cannot serialize {type(s).__name__}")
    # A WeightedPermSum is stored in lexicographic order already.
    rows = slice(None) if s._phases is None else _row_order(s.images)
    perms = (s.images[rows] + 1).tolist()
    weights = json_pairs(s.weights[rows])
    if s._phases is None:
        terms = [{"perm": p, "weight": w} for p, w in zip(perms, weights)]
    else:
        phases = json_pairs(s._phases[rows])
        terms = [
            {"perm": p, "phases": ph, "weight": w}
            for p, ph, w in zip(perms, phases, weights)
        ]
    return {"n": s.n, "engine": s.engine, "terms": terms}


def perm_sum_from_json(obj):
    """Parse the decomposition schema; returns a WeightedPermSum when no
    term carries phases, otherwise a ComplexPermSum.

    Malformed fields raise ValueError, TypeError or KeyError: ``terms``
    must be an array of objects and ``engine``, when present, a string.
    Numbers are read by ``numerics.json_array``, so ``n`` must be a
    positive integer, a ``perm`` n integers and every part a finite
    number. A ``perm`` that is not a bijection on 1..n raises
    NotAPermutationError.
    """
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise ValueError("decomposition JSON must have 'n' and 'terms' fields")
    n = json_size(obj["n"], "decomposition 'n'")
    engine = obj.get("engine", "")
    if not isinstance(engine, str):
        raise ValueError("decomposition 'engine' must be a string")
    raw = obj["terms"]
    if not isinstance(raw, list) or not all(isinstance(t, dict) for t in raw):
        raise ValueError("decomposition 'terms' must be an array of objects")
    k = len(raw)
    if not k:
        return WeightedPermSum(n, engine=engine)
    what = f"term 'perm' entries (bijections on 1..{n})"
    images = json_array([t["perm"] for t in raw], (k, n), True, what) - 1
    weights = json_complex([t["weight"] for t in raw], (k,), "term 'weight' parts")
    if any("phases" in t for t in raw):
        phases = json_complex([t["phases"] for t in raw], (k, n), "term 'phases' parts")
        return ComplexPermSum.from_arrays(n, images, weights, phases, engine)
    return WeightedPermSum.from_arrays(n, images, weights, engine)


__all__ = [
    "WeightedPermSum",
    "ComplexPermTerm",
    "ComplexPermSum",
    "perm_sum_to_json",
    "perm_sum_from_json",
    "product",
]
