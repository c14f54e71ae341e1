"""Permutations, their 0/1 matrices, and the structured families used by
the decomposition engines: supercirculant matrices C[l,x], the cyclic shift
Q, the disjoint family D[j], and the flat matrix W_n.

Conventions:

* one-line notation, 1-based: ``image[k-1]`` is sigma(k);
* the matrix of a permutation has its unit entry in row k at column
  sigma(k), so that ``matrix(compose(p, q)) = matrix(p) @ matrix(q)``;
* "lexicographic" order on permutations is lexicographic order of the
  one-line image tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionError, NotAPermutationError
from .numerics import (
    as_complex_matrix,
    check_int,
    json_array,
    json_size,
    shift_relation_holds,
)


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection on {1..n} in one-line notation.

    Ordering (and therefore sorting) compares image tuples
    lexicographically.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise NotAPermutationError(
                f"image {self.image} is not a bijection on 1..{len(self.image)}"
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
    return Permutation(tuple(k % n + 1 for k in range(1, n + 1)))


def d_family(n: int) -> list[Permutation]:
    """The n permutations D_j = Q^(j-1) D_1, where D_1 is the identity with
    its last two rows swapped.

    Their matrices have pairwise disjoint support and sum to n * W_n.
    """
    n = check_int(n, 3, "D family dimension n")
    d1 = list(range(1, n + 1))
    d1[n - 2], d1[n - 1] = d1[n - 1], d1[n - 2]
    family = [Permutation(tuple(d1))]
    q = shift_matrix(n)
    for _ in range(n - 1):
        family.append(compose(q, family[-1]))
    return family


def van_der_waerden(n: int) -> np.ndarray:
    """The n x n matrix with every entry exactly 1/n."""
    n = check_int(n, 1, "dimension n")
    return np.full((n, n), 1.0 / n, dtype=complex)


def detect_supercirculant(m, tol: float = 1e-10) -> Optional[tuple[int, int]]:
    """Pitches (x, y) of a supercirculant matrix, or None.

    A matrix is supercirculant when A[k+1, l+x] = A[k, l] and
    A[k+y, l+1] = A[k, l] for some pitches 1 <= x, y <= n-1 (indices mod n);
    the pitches then satisfy x*y = 1 mod n. The scan returns the smallest
    x and y whose shift relations hold; if the pair fails x*y = 1 mod n
    (possible only for degenerate inputs), the matrix is not supercirculant.
    Constant matrices satisfy every relation and report (1, 1). For n = 1
    there are no valid pitches and the result is None.
    """
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
