"""Structure theory of XU(n), the unitary matrices with all line sums 1.

XU(n) is isomorphic to U(n-1): conjugating the direct sum 1 (+) U by the
Fourier matrix F produces an XU matrix, and every XU matrix arises this
way. This module implements that embedding and its inverse, the
decomposition of circulant XU matrices over the cyclic permutations, the
constant-line-sum test for unitary weighted sums, and the transfer
matrices M[r,s] with their pitch arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    MembershipError,
    UnsupportedDimensionError,
)
from .numerics import (
    DEFAULT_TOL,
    check_int,
    classify,
    dft_matrix,
    line_sum_spread,
    require_unitary,
    shift_relation_holds,
)
from .permsum import WeightedPermSum
from .permutations import shift_images


def require_xu(m, tol: float = DEFAULT_TOL, what: str = "input") -> np.ndarray:
    """Return ``m`` as an array after checking XU membership at ``tol``."""
    a = require_unitary(m, tol, what)
    # ``require_unitary`` has validated ``a``; ``line_sums`` would again.
    rows, cols = a.sum(axis=1), a.sum(axis=0)
    if line_sum_spread(rows, cols) > tol:
        sums = np.concatenate([rows, cols])
        worst = int(np.argmax(np.abs(sums - 1.0)))
        n = a.shape[0]
        kind = "row" if worst < n else "column"
        raise MembershipError(
            f"{what} is not XU at tolerance {tol}: {kind} {worst % n + 1} "
            f"sums to {complex(sums[worst])}"
        )
    return a


def embed_core(u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a unitary U of size n-1 as the XU(n) matrix F (1 (+) U) F^-1."""
    return fourier_embed(require_unitary(u, tol, "core"))


def fourier_embed(a: np.ndarray) -> np.ndarray:
    """``embed_core`` without the unitarity check, for cores an engine
    built itself."""
    n = a.shape[0] + 1
    f = dft_matrix(n)
    d = np.zeros((n, n), dtype=complex)
    d[0, 0] = 1.0
    d[1:, 1:] = a
    return f @ d @ f.conj().T


def extract_core(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Invert the embedding: the U of size n-1 with X = F (1 (+) U) F^-1,
    after checking XU membership at ``tol``, which bounds the off-block
    leakage by ``tol`` (``fourier_core``)."""
    return fourier_core(require_xu(x, tol))


def fourier_core(a: np.ndarray) -> np.ndarray:
    """``extract_core`` for a matrix already checked to be in XU(n).

    Engines that validated their input call this directly, so that one
    public call checks membership once. No block check follows, because
    membership bounds the off-block part of b = F* a F. The first column
    of F is constant, 1/sqrt(n), so the first column of b is F* r / sqrt(n),
    with r = a 1 the row sums. The rows k >= 1 of F* are orthogonal to the
    constant vector, so b[1:, 0] = F*[1:, :] (r - 1) / sqrt(n), whose norm
    is at most |r - 1| / sqrt(n), the root mean square of the row-sum
    deviations. The column sums bound b[0, 1:] in the same way, and
    b[0, 0] - 1 is the mean row-sum deviation. So a matrix whose line sums
    are all within tol of 1 leaks at most tol, up to rounding.
    """
    n = check_int(a.shape[0], 2, "extraction dimension n")
    f = dft_matrix(n)
    return (f.conj().T @ a @ f)[1:, 1:]


def circulant_xu_decompose(x, tol: float = DEFAULT_TOL) -> WeightedPermSum:
    """Write a circulant XU(n) matrix as a weighted sum of the n cyclic
    permutations.

    A circulant matrix is determined by its first row, and the circulant
    permutation with first-row unit in column l contributes exactly that
    entry: X = sum over l of X[1,l] * C[l,1]. The n weights sum to the
    line sum, 1. All n terms are kept, including zero weights.
    """
    a = require_xu(x, tol)
    if not shift_relation_holds(a, 1, tol):
        raise MembershipError(f"input is not circulant at tolerance {tol}")
    return circulant_sum(a[0])


def circulant_sum(w: np.ndarray) -> WeightedPermSum:
    """The sum of w[l] C[l,1] over the n cyclic shifts, zero weights kept,
    from the first row ``w`` of a circulant matrix, unchecked. C[l,1] is
    the shift Q^(l-1), row l-1 of ``shift_images``. Used by
    ``circulant_xu_decompose``."""
    n = len(w)
    return WeightedPermSum._trusted(n, shift_images(n), w.copy(), "circulant")


def constant_line_sum_check(
    s: WeightedPermSum, tol: float = DEFAULT_TOL
) -> Optional[complex]:
    """The constant line sum of a unitary weighted permutation sum.

    Any weighted sum of permutation matrices has every line sum equal to
    the weight sum; when the reconstructed matrix is additionally unitary,
    that common value has modulus 1 and the matrix is a global phase times
    an XU member. Returns the common line sum if the reconstruction is
    unitary and its 2n line sums agree within ``tol`` (``classify``'s
    ``line_sum``); None otherwise.
    """
    c = classify(s.reconstruct(), tol)
    return c.line_sum if c.is_unitary else None


@dataclass(frozen=True)
class TransferMatrix:
    """The matrix M[r,s] with entries w^((k-1)r - (l-1)s) that carries core
    entry U[r,s] into every position of the embedded XU matrix.

    All entries are unit modulus and all line sums are 0.
    """

    n: int
    r: int
    s: int
    matrix: np.ndarray


def _check_indices(n: int, r: int, s: int) -> tuple[int, int]:
    """``(r, s)`` as ints when both lie in 1..n-1."""
    r, s = check_int(r, 1, "transfer index r"), check_int(s, 1, "transfer index s")
    if max(r, s) > n - 1:
        raise DimensionError(
            f"transfer indices must lie in 1..{n - 1}, got r={r}, s={s}"
        )
    return r, s


def transfer_matrix(n: int, r: int, s: int) -> TransferMatrix:
    """Build M[r,s] for 1 <= r, s <= n-1."""
    n = check_int(n, 2, "transfer dimension n")
    r, s = _check_indices(n, r, s)
    k = np.arange(n)
    expo = (r * k[:, None] - s * k[None, :]) % n
    m = np.exp(2j * math.pi * expo / n)
    return TransferMatrix(n=n, r=r, s=s, matrix=m)


def is_prime(n: int) -> bool:
    """Trial-division primality, ample for desk-scale dimensions; False
    for integers below 2."""
    n = check_int(n, None, "dimension n")
    if n < 2:
        return False
    return all(n % d != 0 for d in range(2, int(math.isqrt(n)) + 1))


def pitch(n: int, r: int, s: int) -> tuple[int, int]:
    """The pitches (x, y) of the transfer matrix M[r,s] for prime n.

    They solve s*x = r mod n and r*y = s mod n, so x = r/s and y = s/r in
    modular arithmetic, with x*y = 1 mod n.
    """
    n = check_int(n, None, "dimension n")
    if not is_prime(n):
        raise UnsupportedDimensionError(
            f"pitch equations need a prime dimension, got n={n}"
        )
    r, s = _check_indices(n, r, s)
    x = (r * pow(s, -1, n)) % n
    y = (s * pow(r, -1, n)) % n
    return (x, y)


def transfer_block_dims(n: int, r: int, s: int) -> tuple[int, int]:
    """Size (b, c) of the repeating block of M[r,s]: b = n/gcd(n,r),
    c = n/gcd(n,s). For prime n this is always (n, n)."""
    n = check_int(n, 2, "transfer dimension n")
    r, s = _check_indices(n, r, s)
    return (n // math.gcd(n, r), n // math.gcd(n, s))
