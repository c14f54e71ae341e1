"""Permutations, their 0/1 matrices, and the structured families used by
the decomposition engines: supercirculant matrices C[l,x], the cyclic shift
Q, the disjoint family D[j], and the flat matrix W_n.

Conventions:

* one-line notation, 1-based: ``image[k-1]`` is sigma(k);
* the matrix of a permutation has its unit entry in row k at column
  sigma(k), so that ``matrix(compose(p, q)) = matrix(p) @ matrix(q)``;
* "lexicographic" order on permutations is lexicographic order of the
  one-line image tuples.

Each family is built here once, as 0-based ``(k, n)`` image rows, the
layout of ``permsum``: ``lex_images`` (all of S_n), ``shift_images`` (the
cyclic shifts Q^k), ``d_images`` (D_1..D_n) and ``supercirculant_images``
(the C[l,x] of a prime). This is also the one module that orders and
groups image rows (``_row_order`` and ``_group_rows``, with which
``permsum`` sorts and merges too) and that builds the engines' tables
from the families: ``_prime_rows`` (the n^2 rows of the prime
construction), ``_coset_plan`` (the plan of one fold of the recursive
engine, over the rows ``_lifted`` makes), ``_agl_plan`` (that plan over
the rows of AGL(1,p) and all n shifts) and ``_circulant_index`` (the
circulant matrix of a fold). Every table but the per-call ``_coset_plan``
is cached for 64 sizes n, and is read-only down to its base.
The engines wrap these rows in sums, and ``shift_matrix`` and
``d_family`` read them as ``Permutation`` objects.
``lexicographic_permutations`` and ``supercirculant_perm`` build the same
permutations independently, one at a time, and ``lexicographic_index``
and ``compose`` rank and compose them; the tests check the rows against
these references.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionError, NotAPermutationError
from .numerics import (
    DEFAULT_TOL,
    _frozen,
    as_complex_matrix,
    check_int,
    check_tol,
    json_array,
    json_size,
    shift_relation_holds,
)


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on {1..n} in one-line notation.

    Ordering (and therefore sorting) compares image tuples
    lexicographically. The images must be integers by ``check_int``'s
    rule: numpy integers are stored as int, a bool or a float raises
    NotAPermutationError.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        image = self.image
        # A tuple of exact ints, as every constructor in the package
        # passes, needs no conversion.
        if type(image) is not tuple or not set(map(type, image)) <= {int}:
            image = tuple(
                check_int(k, None, "permutation image entry", NotAPermutationError)
                for k in image
            )
            object.__setattr__(self, "image", image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise NotAPermutationError(
                f"image {image} is not a bijection on 1..{len(image)}"
            )

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        """sigma(k) for 1 <= k <= n."""
        return self.image[k - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        n = check_int(n, 1, "dimension n")
        return Permutation(tuple(range(1, n + 1)))


def perm_to_matrix(p: Permutation) -> np.ndarray:
    """0/1 matrix of ``p``: unit entry at (k, sigma(k)); all line sums 1."""
    n = p.n
    m = np.zeros((n, n), dtype=complex)
    for k in range(n):
        m[k, p.image[k] - 1] = 1.0
    return m


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation whose matrix is matrix(p) @ matrix(q).

    Row k of the product has its unit at column q(p(k)).
    """
    if p.n != q.n:
        raise DimensionError(f"composing sizes {p.n} and {q.n}")
    return Permutation(tuple(q.image[p.image[k] - 1] for k in range(p.n)))


def lexicographic_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of {1..n} in lexicographic image order."""
    n = check_int(n, 1, "dimension n")
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation(image)


def lexicographic_index(p: Permutation) -> int:
    """1-based rank of ``p`` among all permutations of its size, in
    lexicographic image order (the P_j numbering used for fixed-size
    decomposition tables)."""
    rank = 0
    remaining = sorted(p.image)
    for k, v in enumerate(p.image):
        pos = remaining.index(v)
        rank += pos * math.factorial(p.n - 1 - k)
        remaining.pop(pos)
    return rank + 1


# How many sorted rows ``_group_rows`` compares with their predecessors at
# a time.
_GROUP_BLOCK = 1 << 12


def _image_dtype(n: int):
    """The dtype of 0-based image rows of size n, here and in ``permsum``."""
    return np.int8 if n <= 127 else np.int32


# Every caller shares one table per n, hence read-only down to its base
# (``numerics._frozen``), and in the image dtype of a sum, which wraps it
# without a copy.


@lru_cache(maxsize=64)
def lex_images(n: int) -> np.ndarray:
    """The (n!, n) read-only int8 image rows of S_n in lexicographic order,
    the order in which ``itertools.permutations(range(n))`` lists them,
    cached per n."""
    entries = itertools.chain.from_iterable(itertools.permutations(range(n)))
    rows = np.fromiter(entries, dtype=np.int8, count=math.factorial(n) * n)
    return _frozen(rows.reshape(-1, n))


@lru_cache(maxsize=64)
def shift_images(n: int) -> np.ndarray:
    """The (n, n) read-only image rows of the cyclic shifts Q^k,
    k = 0..n-1, cached per n: row k sends r to r + k mod n, so row 1 is Q.
    Row k starts with k, so the rows are in lexicographic order."""
    k = np.arange(n)
    return _frozen(((k[:, None] + k) % n).astype(_image_dtype(n)))


@lru_cache(maxsize=64)
def d_images(n: int) -> np.ndarray:
    """The (n, n) read-only image rows of D_1..D_n (``d_family``), in that
    order, cached per n.

    D_1 is the identity with its last two images swapped, and row k of
    D_j = Q^(j-1) D_1 is row k+j-1 of D_1: D_j is D_1 taken at the images
    of Q^(j-1)."""
    d1 = np.r_[: n - 2, n - 1, n - 2].astype(_image_dtype(n))
    return _frozen(d1[shift_images(n)])


@lru_cache(maxsize=64)
def supercirculant_images(p: int) -> np.ndarray:
    """The (p(p-1), p) read-only image rows of the supercirculants C[l,x]
    of prime ``p`` in lexicographic order (``supercirculant_perm``), cached
    per p. C[l,x] sends k to (l-1) + kx mod p, 0-based."""
    k = np.arange(p)
    rows = ((k[:, None, None] + k[1:, None] * k) % p).reshape(-1, p)
    rows = rows.astype(_image_dtype(p))
    return _frozen(rows[_row_order(rows)])


@lru_cache(maxsize=64)
def _prime_rows(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the prime construction at prime n >= 5, cached per n
    and read-only: its n^2 image rows (supercirculants and D family) in
    lexicographic order, the order that takes the weights of both parts,
    stacked in that order, to those rows, and the D rows on their own in
    lexicographic order.

    D_j starts with D_1(j-1) = d[0, j-1], so the row starting with v is
    row D_1^-1(v) = D_1(v): D_1 is an involution, and d[d[0]] is sorted.
    """
    d = d_images(n)
    d_rows = d[d[0]]
    images = np.vstack([supercirculant_images(n), d_rows])
    order = _row_order(images)
    return _frozen(images[order]), _frozen(order), _frozen(d_rows)


@lru_cache(maxsize=64)
def _circulant_index(n: int) -> np.ndarray:
    """The (n, n) read-only index table (b - a) mod n, cached per n:
    w[_circulant_index(n)] is the matrix of the circulant sum over k of
    w[k] c_k, whose entry [a, b] is w[b - a mod n]."""
    k = np.arange(n)
    return _frozen((k - k[:, None]) % n)


def _coset_plan(
    n: int, rows: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of one level of size n of the recursive engine over the
    distinct image rows ``rows`` of size n - 1 and the distinct shifts
    ``k``, with c_k the shift r -> r + k mod n (``shift_images``) and
    sigma_j row j of ``rows``.

    "Apply c_k, then 1 (+) sigma_j" sends 0 to a = (1 (+) sigma_j)(k), so
    it is "apply 1 (+) rho, then c_a" for exactly one rho, and distinct
    pairs (k, j) give distinct permutations. With rho_0, rho_1, ... the
    distinct rho in lexicographic order, the pair (k[i], j) has the cell
    g n + a of its own, where rho = rho_g. Then "apply 1 (+) rho_g, then c_b"
    is the permutation of cell g n + b.

    Returns ``cells``, the (len(rows), len(k)) cells of the pairs (k[i], j)
    at [j, i]; the image rows of every cell's permutation, distinct and in
    lexicographic order; and ``order``, the cell of each of those rows.
    """
    shifts = shift_images(n)
    pairs = _lifted(rows)[:, shifts[k]]
    a = pairs[..., :1]
    rho, group = _group_rows(((pairs - a) % n).reshape(-1, n))
    cells = group.reshape(a.shape[:2]) * n + a[..., 0]
    images = shifts[:, rho].transpose(1, 0, 2).reshape(-1, n)
    order = _row_order(images)
    return cells, images[order], order


@lru_cache(maxsize=64)
def _agl_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_coset_plan`` over the rows of AGL(1, n - 1)
    (``supercirculant_images``) for prime n - 1 and all n shifts, cached
    per n and read-only: the recursive engine's first level over a bottom
    block of prime size n - 1. A first level over the shifts ``k`` fills
    the columns ``cells[:, k]``: its rows are those of ``_coset_plan``
    over ``k`` and more, all in lexicographic order, and the cells that no
    pair reaches keep weight 0, which the fold's pruning drops."""
    plan = _coset_plan(n, supercirculant_images(n - 1), np.arange(n))
    return tuple(map(_frozen, plan))


def _lifted(images: np.ndarray) -> np.ndarray:
    """The image rows of 1 (+) sigma for the 0-based rows sigma: 0, then
    each image raised by one. Prepending the smallest image keeps the rows
    distinct and in order."""
    return np.hstack([np.zeros((len(images), 1), dtype=images.dtype), images + 1])


def _row_order(images: np.ndarray) -> np.ndarray:
    """Stable permutation of the rows that sorts them lexicographically."""
    return np.lexsort(images.T[::-1])


def _group_rows(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``images`` in lexicographic order and, for each
    row, the index of its value among them. Group starts are found by
    comparing neighbouring sorted rows, _GROUP_BLOCK rows at a time, so no
    sorted copy of all the rows is made; the index is int32 where it
    fits."""
    order = _row_order(images)
    starts = np.ones(len(order), dtype=bool)
    for lo in range(1, len(order), _GROUP_BLOCK):
        block = images[order[lo - 1 : lo + _GROUP_BLOCK]]
        starts[lo : lo + _GROUP_BLOCK] = (block[1:] != block[:-1]).any(axis=1)
    rows = images[order[starts]]
    dtype = np.int32 if len(order) <= np.iinfo(np.int32).max else np.intp
    group = np.cumsum(starts, dtype=dtype)
    group -= 1
    inverse = np.empty_like(group)
    inverse[order] = group
    return rows, inverse


def _perms(images: np.ndarray):
    """Permutation objects of 0-based image rows, in row order. Tuples come
    straight from per-column lists, so no list per row is built."""
    return map(Permutation, zip(*[(col + 1).tolist() for col in images.T]))


@dataclass(frozen=True)
class SupercirculantLabel:
    """Label (l, x) of the supercirculant permutation C[l,x]: the first row
    has its unit entry in column l, and each subsequent row shifts it right
    by the pitch x."""

    l: int
    x: int


def supercirculant_perm(n: int, label: SupercirculantLabel) -> Permutation:
    """The permutation C[l,x] with row k carrying its unit entry in column
    l + (k-1)*x, reduced into 1..n mod n.

    C[l,x] is a permutation if and only if gcd(x, n) = 1.
    """
    n = check_int(n, 2, "supercirculant dimension n")
    l, x = label.l, label.x
    if not (1 <= l <= n and 1 <= x <= n - 1):
        raise NotAPermutationError(f"label (l={l}, x={x}) out of range for n={n}")
    if math.gcd(x, n) != 1:
        raise NotAPermutationError(
            f"pitch x={x} shares a factor with n={n}; C[{l},{x}] has "
            "doubled and empty columns"
        )
    return Permutation(tuple((l - 1 + (k - 1) * x) % n + 1 for k in range(1, n + 1)))


def shift_matrix(n: int) -> Permutation:
    """The cyclic shift Q with unit entries at (k, k+1 mod n)."""
    n = check_int(n, 2, "cyclic shift dimension n")
    return next(_perms(shift_images(n)[1:2]))


def d_family(n: int) -> list[Permutation]:
    """The n permutations D_j = Q^(j-1) D_1, where D_1 is the identity with
    its last two rows swapped.

    Their matrices have pairwise disjoint support and sum to n * W_n.
    """
    n = check_int(n, 3, "D family dimension n")
    return list(_perms(d_images(n)))


def van_der_waerden(n: int) -> np.ndarray:
    """The n x n matrix with every entry exactly 1/n."""
    n = check_int(n, 1, "dimension n")
    return np.full((n, n), 1.0 / n, dtype=complex)


def detect_supercirculant(m, tol: float = DEFAULT_TOL) -> Optional[tuple[int, int]]:
    """Pitches (x, y) of a supercirculant matrix, or None.

    A matrix is supercirculant when A[k+1, l+x] = A[k, l] and
    A[k+y, l+1] = A[k, l] for some pitches 1 <= x, y <= n-1 (indices mod n);
    the pitches then satisfy x*y = 1 mod n. The scan returns the smallest
    x and y whose shift relations hold; if the pair fails x*y = 1 mod n
    (possible only for degenerate inputs), the matrix is not supercirculant.
    Constant matrices satisfy every relation and report (1, 1). For n = 1
    there are no valid pitches and the result is None.
    """
    tol = check_tol(tol, "tol")
    a = as_complex_matrix(m)
    n = a.shape[0]
    x = next(
        (c for c in range(1, n) if shift_relation_holds(a, c, tol)), None
    )
    if x is None:
        return None
    # The column relation A[k+y, l+1] = A[k, l] is the row relation of the
    # transpose with roles of the axes swapped.
    y = next(
        (c for c in range(1, n) if shift_relation_holds(a.T, c, tol)), None
    )
    if y is None or (x * y) % n != 1:
        return None
    return (x, y)


# ---------------------------------------------------------------------------
# JSON interchange: {"n": n, "image": [sigma(1), ..., sigma(n)]}
# ---------------------------------------------------------------------------


def perm_to_json(p: Permutation) -> dict:
    return {"n": p.n, "image": list(p.image)}


def perm_from_json(obj) -> Permutation:
    """Parse the schema above as strictly as ``numerics.json_array``; an
    image that is not a bijection raises NotAPermutationError."""
    if not isinstance(obj, dict) or "n" not in obj or "image" not in obj:
        raise ValueError("permutation JSON must have 'n' and 'image' fields")
    n = json_size(obj["n"], "permutation 'n'")
    what = f"permutation 'image' entries (a bijection on 1..{n})"
    return Permutation(tuple(json_array(obj["image"], (n,), True, what).tolist()))
