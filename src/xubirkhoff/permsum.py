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

Merging encodes each row as the base-n integer key
``sum over r of images[j, r] * n**(n-1-r)``, whose numeric order is the
lexicographic order of the rows; a sort then groups the keys
(``_group``) and ``np.bincount`` sums the weights. The product of two sums
(``birkhoff.product``) builds these keys straight from the factors'
images, without forming the composed rows. For n >= 16 the key overflows
int64, and the rows are sorted with ``np.lexsort`` instead.

``Permutation`` objects (1-based image tuples) are built only when a
caller reads ``items()`` or ``terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import DimensionError, NotAPermutationError
from .numerics import check_json_numbers
from .permutations import Permutation, perm_to_json, perm_to_matrix

# Largest n whose base-n keys n**n - 1 fit in int64.
KEY_MAX_N = 15


def _image_dtype(n: int):
    return np.int8 if n <= 127 else np.int32


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _powers(n: int) -> np.ndarray:
    """Place values n**(n-1), ..., n, 1 of the base-n row key, in the
    narrowest of int32 and int64 that holds every key."""
    dtype = np.int32 if n**n <= np.iinfo(np.int32).max else np.int64
    return n ** np.arange(n - 1, -1, -1, dtype=dtype)


def _check_images(n: int, images) -> np.ndarray:
    """``images`` as a (k, n) array after checking that every row is a
    bijection on 0..n-1."""
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
    return a.astype(_image_dtype(n))


def _sum_groups(inverse: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Weights summed per group ``inverse``, each group in input order."""
    out = np.empty(k, dtype=complex)
    out.real = np.bincount(inverse, weights.real, k)
    out.imag = np.bincount(inverse, weights.imag, k)
    return out


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
        g = inverse[start : start + rows].reshape(-1)
        out.real += np.bincount(g, w.real, k)
        out.imag += np.bincount(g, w.imag, k)
    return out


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and, for each key, the index of its
    value among them: ``np.unique(keys, return_inverse=True)`` without its
    copy of the keys and its second index array, which set the peak
    memory of a large product."""
    order = np.argsort(keys)
    s = keys[order]
    starts = np.ones(len(s), dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    uniq = s[starts]
    del s
    dtype = np.int32 if len(keys) <= np.iinfo(np.int32).max else np.intp
    group = np.cumsum(starts, dtype=dtype)
    group -= 1
    inverse = np.empty_like(group)
    inverse[order] = group
    return uniq, inverse


def _decode(n: int, keys: np.ndarray) -> np.ndarray:
    """Image rows of base-n ``keys``."""
    return ((keys[:, None] // _powers(n)) % n).astype(_image_dtype(n))


def _merge_keys(n: int, keys: np.ndarray, weights: np.ndarray):
    """Sorted distinct rows (decoded from base-n ``keys``) and their summed
    weights."""
    uniq, inverse = _group(keys)
    return _decode(n, uniq), _sum_groups(inverse, weights, len(uniq))


def _merge_lexsort(images: np.ndarray, weights: np.ndarray):
    """Sorted distinct rows and their summed weights, for any n."""
    order = np.lexsort(images.T[::-1])
    rows = images[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    merged = _sum_groups(inverse, weights, int(starts.sum()))
    return rows[starts].astype(_image_dtype(images.shape[1])), merged


def _merge(n: int, images: np.ndarray, weights: np.ndarray):
    """Sort rows lexicographically and merge duplicates by adding weights."""
    if n <= KEY_MAX_N:
        powers = _powers(n)
        return _merge_keys(n, images.astype(powers.dtype) @ powers, weights)
    return _merge_lexsort(images, weights)


def _row_order(images: np.ndarray) -> np.ndarray:
    """Stable permutation of the rows that sorts them lexicographically."""
    n = images.shape[1]
    if n <= KEY_MAX_N:
        powers = _powers(n)
        return np.argsort(images.astype(powers.dtype) @ powers, kind="stable")
    return np.lexsort(images.T[::-1])


def _reconstruct(n: int, images: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """sum over terms j of the matrix with ``entries[j, r]`` at
    (r, images[j, r]), added in term order."""
    out = np.zeros((n, n), dtype=complex)
    rows = np.broadcast_to(np.arange(n), images.shape)
    np.add.at(out, (rows, images), entries)
    return out


def _perms(images: np.ndarray):
    """Permutation objects of the image rows, in row order. Tuples come
    straight from per-column lists, so no list per row is built."""
    return map(Permutation, zip(*[(col + 1).tolist() for col in images.T]))


def _product(a: "WeightedPermSum", b: "WeightedPermSum") -> "WeightedPermSum":
    """The sum whose matrix is ``a.reconstruct() @ b.reconstruct()``.

    Term pairs (i, j), i over ``a`` and j over ``b`` in that nesting,
    compose to the permutation with image row ``b.images[j, a.images[i]]``
    and weight w_i * w_j; duplicates merge in that pair order. For
    n <= KEY_MAX_N the composed rows are never formed: each pair's base-n
    key is accumulated digit by digit from gathers of ``b``'s images, cast
    once to the key dtype so that no step depends on numpy's promotion of
    small integers. To keep the peak memory down, the keys are grouped by
    ``_group`` and the pair weights are formed only afterwards, a block of
    pairs at a time (``_sum_pair_groups``).
    """
    n = a.n
    if b.n != n:
        raise DimensionError(f"product of sizes {n} and {b.n}")
    ia = a.images
    if n <= KEY_MAX_N:
        powers = _powers(n)
        ib = b.images.astype(powers.dtype)
        keys = np.zeros((len(ia), len(ib)), dtype=powers.dtype)
        digit = np.empty((len(ib), len(ia)), dtype=powers.dtype)
        for r, place in enumerate(powers):
            np.take(ib, ia[:, r], axis=1, out=digit)
            digit *= place
            keys.T[...] += digit
        del digit
        uniq, inverse = _group(keys.reshape(-1))
        del keys
        merged = _sum_pair_groups(
            inverse.reshape(len(ia), len(ib)), a.weights, b.weights, len(uniq)
        )
        del inverse
        images = _decode(n, uniq)
    else:
        weights = np.multiply.outer(a.weights, b.weights).reshape(-1)
        composed = b.images[:, ia].transpose(1, 0, 2).reshape(-1, n)
        images, merged = _merge_lexsort(composed, weights)
    return WeightedPermSum._sorted(n, images, merged, "")


class _PermArrays:
    """What both sum types share: size, engine label, images, weights."""

    def __init__(self, n: int, engine: str):
        if n < 1:
            raise DimensionError(f"dimension must be positive, got n={n}")
        self.n = n
        self.engine = engine
        self._images = _frozen(np.empty((0, n), dtype=_image_dtype(n)))
        self._weights = _frozen(np.empty(0, dtype=complex))

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

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, terms={self.term_count}, "
            f"engine={self.engine!r})"
        )


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
        if terms:
            for p, _ in terms:
                if p.n != n:
                    raise DimensionError(
                        f"term size {p.n} does not match sum size {n}"
                    )
            images = np.array([p.image for p, _ in terms]) - 1
            weights = np.array([complex(w) for _, w in terms], dtype=complex)
            self._set(*_merge(n, images, weights))

    @classmethod
    def from_arrays(
        cls, n: int, images, weights, engine: str = ""
    ) -> "WeightedPermSum":
        """The sum of ``weights[j]`` times the permutation with 0-based
        image row ``images[j]``; rows in any order, duplicates merge."""
        out = cls(n, engine=engine)
        a = _check_images(n, images)
        w = np.asarray(weights, dtype=complex).reshape(-1)
        if len(w) != len(a):
            raise DimensionError(f"{len(a)} image rows but {len(w)} weights")
        out._set(*_merge(n, a, w))
        return out

    @classmethod
    def _sorted(cls, n, images, weights, engine) -> "WeightedPermSum":
        """Wrap valid, distinct image rows that already are in
        lexicographic order; nothing is checked."""
        out = cls(n, engine=engine)
        out._set(images, weights)
        return out

    @classmethod
    def _distinct(cls, n, images, weights, engine) -> "WeightedPermSum":
        """Wrap valid, distinct image rows in any order: one sort, no
        check and no merge."""
        order = _row_order(images)
        return cls._sorted(n, images[order], weights[order], engine)

    def _set(self, images: np.ndarray, weights: np.ndarray) -> None:
        self._images = _frozen(images.astype(_image_dtype(self.n), copy=False))
        self._weights = _frozen(weights)

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
        weights = np.append(self._weights, complex(w))
        self._set(*_merge(self.n, images, weights))

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
        entries = np.broadcast_to(self._weights[:, None], self._images.shape)
        return _reconstruct(self.n, self._images, entries)

    def pruned(self, eps: float) -> "WeightedPermSum":
        """Copy without the terms of weight modulus <= eps."""
        keep = np.abs(self._weights) > eps
        return WeightedPermSum._sorted(
            self.n, self._images[keep], self._weights[keep], self.engine
        )

    def scaled(self, c: complex) -> "WeightedPermSum":
        return WeightedPermSum._sorted(
            self.n, self._images, c * self._weights, self.engine
        )


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
        n = self.perm.n
        m = np.zeros((n, n), dtype=complex)
        for k in range(n):
            m[k, self.perm.image[k] - 1] = self.phases[k]
        return m


class ComplexPermSum(_PermArrays):
    """A weighted sum of complex permutation matrices.

    Terms keep the order they were given in; ``items_sorted`` and the JSON
    form list them in stable lexicographic order of their permutations.
    Two sums are equal when size, engine and every term agree in order.
    """

    def __init__(
        self, n: int, terms: Iterable[ComplexPermTerm] = (), engine: str = ""
    ):
        super().__init__(n, engine)
        self._phases = _frozen(np.empty((0, n), dtype=complex))
        self.terms = terms

    @classmethod
    def from_arrays(
        cls, n: int, images, weights, phases, engine: str = ""
    ) -> "ComplexPermSum":
        """The sum of ``weights[j]`` times the complex permutation matrix
        with 0-based image row ``images[j]`` and row phases ``phases[j]``."""
        out = cls(n, engine=engine)
        a = _check_images(n, images)
        w = np.asarray(weights, dtype=complex).reshape(-1)
        ph = np.asarray(phases, dtype=complex)
        if len(w) != len(a) or ph.shape != a.shape:
            raise DimensionError(
                f"{len(a)} image rows, {len(w)} weights, phases {ph.shape}"
            )
        out._set(a, w, ph)
        return out

    def _set(self, images, weights, phases) -> None:
        self._images = _frozen(images.astype(_image_dtype(self.n), copy=False))
        self._weights = _frozen(weights)
        self._phases = _frozen(phases)

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
        self._set(
            np.array([t.perm.image for t in terms], dtype=int).reshape(-1, self.n) - 1,
            np.array([t.weight for t in terms], dtype=complex),
            np.array([t.phases for t in terms], dtype=complex).reshape(-1, self.n),
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

    def __eq__(self, other) -> bool:
        if type(other) is not ComplexPermSum:
            return NotImplemented
        return (self.n, self.engine) == (other.n, other.engine) and all(
            np.array_equal(x, y)
            for x, y in (
                (self._images, other._images),
                (self._weights, other._weights),
                (self._phases, other._phases),
            )
        )

    __hash__ = None

    def reconstruct(self) -> np.ndarray:
        entries = self._weights[:, None] * self._phases
        return _reconstruct(self.n, self._images, entries)

    def pruned(self, eps: float) -> "ComplexPermSum":
        keep = np.abs(self._weights) > eps
        out = ComplexPermSum(self.n, engine=self.engine)
        out._set(self._images[keep], self._weights[keep], self._phases[keep])
        return out


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


def _pairs(z: np.ndarray) -> list:
    """[re, im] pairs of a complex array, as nested lists of floats."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def perm_sum_to_json(s) -> dict:
    """Serialize a WeightedPermSum or ComplexPermSum (terms in lexicographic
    order, without a report)."""
    if isinstance(s, WeightedPermSum):
        terms = [
            {"perm": perm, "weight": w}
            for perm, w in zip((s.images + 1).tolist(), _pairs(s.weights))
        ]
    elif isinstance(s, ComplexPermSum):
        order = _row_order(s.images)
        terms = [
            {"perm": perm, "phases": ph, "weight": w}
            for perm, ph, w in zip(
                (s.images[order] + 1).tolist(),
                _pairs(s.phases[order]),
                _pairs(s.weights[order]),
            )
        ]
    else:
        raise TypeError(f"cannot serialize {type(s).__name__}")
    return {"n": s.n, "engine": s.engine, "terms": terms}


def _complex_column(pairs, what: str) -> np.ndarray:
    """[[re, im], ...] -> complex array, each part read with float()."""
    pairs = list(pairs)
    check_json_numbers(chain.from_iterable(pairs), what)
    return np.array([complex(float(a), float(b)) for a, b in pairs], dtype=complex)


def _check_json_ints(values, what: str) -> None:
    """Raise ValueError unless every value is an integer (not a bool)."""
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {kind.__name__}")


def perm_sum_from_json(obj):
    """Parse the decomposition schema; returns a WeightedPermSum when no
    term carries phases, otherwise a ComplexPermSum.

    Malformed fields raise ValueError, TypeError or KeyError: ``n`` and the
    ``perm`` entries must be integers, ``weight`` and ``phases`` parts
    numbers (a string or a boolean is rejected, not converted). A ``perm``
    that is not a bijection on 1..n raises NotAPermutationError.
    """
    if not isinstance(obj, dict) or "n" not in obj or "terms" not in obj:
        raise ValueError("decomposition JSON must have 'n' and 'terms' fields")
    n = obj["n"]
    _check_json_ints([n], "decomposition 'n'")
    engine = str(obj.get("engine", ""))
    raw = obj["terms"]
    perms = [t["perm"] for t in raw]
    if any(len(p) != n for p in perms):
        raise ValueError("term 'perm' length disagrees with 'n'")
    _check_json_ints(chain.from_iterable(perms), "term 'perm' entries")
    try:
        images = np.array(perms, dtype=np.int64).reshape(len(raw), n)
    except OverflowError as e:
        raise NotAPermutationError(f"a term 'perm' is not a bijection on 1..{n}") from e
    images -= 1
    weights = _complex_column((t["weight"] for t in raw), "term 'weight' parts")
    if any("phases" in t for t in raw):
        phases = [_complex_column(t["phases"], "term 'phases' parts") for t in raw]
        if any(len(ph) != n for ph in phases):
            raise ValueError("term phases must have length n")
        return ComplexPermSum.from_arrays(
            n, images, weights, np.array(phases).reshape(len(raw), n), engine
        )
    return WeightedPermSum.from_arrays(n, images, weights, engine)


__all__ = [
    "WeightedPermSum",
    "ComplexPermTerm",
    "ComplexPermSum",
    "perm_sum_to_json",
    "perm_sum_from_json",
    "perm_to_json",
    "perm_to_matrix",
]
