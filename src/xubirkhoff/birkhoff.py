"""Decomposition engines for XU matrices and general unitaries.

Every engine writes its input as a weighted sum of permutation matrices
with weight sum 1:

* ``decompose_xu2``: the closed form for XU(2); the two squared moduli
  also sum to 1.
* ``decompose_xu3``: the one-parameter family for XU(3); the squared
  moduli sum to 1 exactly when the parameter p lies on the circle
  |p - 1/2| = 1/2.
* ``decompose_prime``: the supercirculant construction for prime n >= 5
  (dispatching to the closed forms below 5); exactly n^2 terms whose
  squared moduli sum to 1.
* ``decompose_xu4``: the explicit 24-weight table for XU(4), the one
  composite dimension with a known squared-moduli-1 construction.
* ``decompose_recursive``: works for every n by peeling one
  dimension at a time through the ZXZ factorization; makes no
  squared-moduli claim.
* ``decompose_unitary``: any unitary, as a weighted sum of complex
  permutation matrices (one unit-modulus phase per row).

``product`` combines decompositions multiplicatively and ``verify``
recomputes every claimed invariant from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnsupportedDimensionError
from .numerics import (
    DEFAULT_TOL,
    as_complex_matrix,
    line_sums,
    max_abs_diff,
    root_of_unity,
)
from .permsum import ComplexPermSum, WeightedPermSum, _product
from .permutations import Permutation, lexicographic_permutations
from .scaling import ScalingOptions, zxz_scale
from .xu_group import (
    circulant_sum,
    fourier_core,
    fourier_embed,
    is_prime,
    require_xu,
)

# Weights below this modulus are dropped between recursion steps; the
# removed mass is orders of magnitude under every verification tolerance.
PRUNE_EPS = 1e-14

RECURSIVE_TOL = 1e-8


def product(a: WeightedPermSum, b: WeightedPermSum) -> WeightedPermSum:
    """The decomposition of A @ B from decompositions of A and B.

    Pairwise products of weights attach to pairwise compositions of
    permutations; duplicates merge in pair order. The weight sum
    multiplies, so sums of 1 stay 1. Sizes that differ raise
    DimensionError.
    """
    return _product(a, b)


def decompose_xu2(x, tol: float = DEFAULT_TOL) -> WeightedPermSum:
    """The two-term closed form for XU(2).

    Every XU(2) matrix has diagonal entries (1+e^(i*alpha))/2 and
    off-diagonal entries (1-e^(i*alpha))/2, so the weights are m1 = X[1,1]
    on the identity and m2 = 1 - m1 on the swap. Computing m2 from m1
    makes the weight sum exactly 1 in floating point, and the squared
    moduli sum to 1 because m1 lies on the circle |m1 - 1/2| = 1/2.
    """
    a = require_xu(x, tol)
    if a.shape[0] != 2:
        raise DimensionError(f"expected a 2x2 matrix, got {a.shape[0]}")
    return _xu2(a)


def _xu2(a: np.ndarray) -> WeightedPermSum:
    m1 = complex(a[0, 0])
    m2 = 1.0 - m1
    return WeightedPermSum(
        2,
        [(Permutation((1, 2)), m1), (Permutation((2, 1)), m2)],
        engine="xu2",
    )


def decompose_xu3(x, p: complex = 1.0, tol: float = DEFAULT_TOL) -> WeightedPermSum:
    """The six-weight family for XU(3), parametrized by p.

    The flat matrix W3 (every entry 1/3) splits as p(P1+P4+P5)/3 +
    (1-p)(P2+P3+P6)/3 for any p, and the core entries distribute over the
    same six permutations. The weight sum is 1 for every p; the squared
    moduli sum to 1 + (2*p*conj(p) - p - conj(p))/3, which is 1 exactly on
    the circle |p - 1/2| = 1/2 (e.g. p = 0 and p = 1).
    """
    a = require_xu(x, tol)
    if a.shape[0] != 3:
        raise DimensionError(f"expected a 3x3 matrix, got {a.shape[0]}")
    u = fourier_core(a, tol)
    p = complex(p)
    q = 1.0 - p
    w = root_of_unity(3, 1)
    w2 = root_of_unity(3, 2)
    weights = [
        (p + u[0, 0] + u[1, 1]) / 3,
        (q + u[0, 1] + u[1, 0]) / 3,
        (q + w * u[0, 1] + w2 * u[1, 0]) / 3,
        (p + w2 * u[0, 0] + w * u[1, 1]) / 3,
        (p + w * u[0, 0] + w2 * u[1, 1]) / 3,
        (q + w2 * u[0, 1] + w * u[1, 0]) / 3,
    ]
    perms = list(lexicographic_permutations(3))
    return WeightedPermSum(3, zip(perms, weights), engine="xu3")


def decompose_prime_parts(
    x, tol: float = DEFAULT_TOL
) -> tuple[WeightedPermSum, WeightedPermSum]:
    """The two halves of the prime construction for n >= 5.

    The first part carries the n(n-1) supercirculant permutations C[l,x]
    with weights m[l,x] = (1/n) sum over s of w^(-(l-1)s) U[r,s], where
    U is the extracted core and r = s*x mod n; its weights sum to 0 and
    their squared moduli to (n-1)/n. The second part puts weight 1/n on
    each of the n disjoint permutations D_j; it reconstructs the flat
    matrix W_n, its weights sum to 1, and their squared moduli to 1/n.
    """
    a = require_xu(x, tol)
    n = a.shape[0]
    if not is_prime(n):
        raise UnsupportedDimensionError(
            f"the supercirculant construction needs prime n; n={n} is "
            "composite (only n=4 has a known squared-moduli-1 table)"
        )
    if n < 5:
        raise DimensionError(
            f"the generic construction starts at n=5; use the closed forms "
            f"for n={n}"
        )
    u = fourier_core(a, tol)
    s = np.arange(1, n)
    # g[s-1, x-1] = U[r, s] with r = s*x mod n (never 0 for prime n), and
    # e[l-1, s-1] = w^(-(l-1)s) with the exponent reduced mod n.
    g = u[np.outer(s, s) % n - 1, s[:, None] - 1]
    e = np.exp(2j * math.pi * (-np.outer(np.arange(n), s) % n) / n)
    m = e @ g / n
    # C[l,x] puts the unit of row k at column (l-1) + (k-1)x mod n, so its
    # image row starts l-1, l-1+x. Listing l, then the second image v != l-1
    # in increasing order (x = v-(l-1) mod n), lists the rows in
    # lexicographic order.
    k = np.arange(n)
    xs = (k[None, :] - k[:, None]) % n
    xs = xs[xs != 0].reshape(n, n - 1)
    images = (k[:, None, None] + xs[:, :, None] * k) % n
    c_part = WeightedPermSum._sorted(
        n, images.reshape(-1, n), m[k[:, None], xs - 1].reshape(-1), "prime-c"
    )
    # D_1 is the identity with its last two rows swapped, and row k of
    # D_j = Q^(j-1) D_1 (``d_family``) is row k+j-1 of D_1. D_j starts with
    # d1[j-1], so taking j-1 in the order d1 sorts the rows.
    d1 = np.arange(n)
    d1[[-2, -1]] = d1[[-1, -2]]
    d_part = WeightedPermSum._sorted(
        n, d1[(d1[:, None] + k) % n], np.full(n, 1.0 / n, dtype=complex), "prime-d"
    )
    return c_part, d_part


def decompose_prime(x, tol: float = DEFAULT_TOL) -> WeightedPermSum:
    """Decompose an XU(n) matrix for prime n with squared moduli summing
    to 1.

    Dispatches to the closed forms for n = 2 and n = 3 (with p = 1); for
    n >= 5 combines the supercirculant part and the flat part into exactly
    n^2 terms (the two permutation families are disjoint, so nothing
    merges). Composite n raises UnsupportedDimensionError: whether such a
    construction exists for composite n > 4 is an open question, and only
    the n = 4 table (``decompose_xu4``) is known. Each branch checks XU
    membership once.
    """
    a = as_complex_matrix(x)
    n = a.shape[0]
    if n == 2:
        out = decompose_xu2(a, tol)
    elif n == 3:
        out = decompose_xu3(a, p=1.0, tol=tol)
    else:
        c_part, d_part = decompose_prime_parts(a, tol)
        out = WeightedPermSum._distinct(
            n,
            np.vstack([c_part.images, d_part.images]),
            np.concatenate([c_part.weights, d_part.weights]),
            "",
        )
    out.engine = "prime"
    return out


def _xu4_weights(u: np.ndarray) -> list[complex]:
    """The 24 weights of the XU(4) table, in lexicographic permutation
    order, as functions of the 3x3 core U."""
    i = 1j
    m = [0j] * 25
    m[1] = (u[0, 0] + u[1, 1] + u[2, 2]) / 4
    m[2] = 0.25 + 0j
    m[3] = (
        u[0, 1] + u[1, 0] + u[1, 2] + u[2, 1]
        + i * (u[0, 1] - u[1, 0] + u[1, 2] - u[2, 1])
    ) / 8
    m[4] = (u[1, 0] + u[1, 2] + i * (u[1, 0] - u[1, 2])) / 8
    m[5] = (u[0, 1] + u[2, 1] - i * (u[0, 1] - u[2, 1])) / 8
    m[6] = (u[0, 2] + u[2, 0]) / 4
    m[7] = 0.25 + 0j
    m[8] = i * (u[0, 2] - u[2, 0]) / 4
    m[9] = (-u[0, 1] - u[2, 1] + i * (u[0, 1] - u[2, 1])) / 8
    m[10] = (-u[1, 1] - i * u[0, 0] + i * u[2, 2]) / 4
    m[11] = (
        -u[0, 1] + u[1, 0] + u[1, 2] - u[2, 1]
        - i * (u[0, 1] + u[1, 0] - u[1, 2] - u[2, 1])
    ) / 8
    m[12] = (-u[1, 0] - u[1, 2] - i * (u[1, 0] - u[1, 2])) / 8
    m[13] = m[12]
    m[14] = (
        u[0, 1] - u[1, 0] - u[1, 2] + u[2, 1]
        + i * (u[0, 1] + u[1, 0] - u[1, 2] - u[2, 1])
    ) / 8
    m[15] = (-u[0, 2] - u[2, 0]) / 4
    m[16] = m[5]
    m[17] = (-u[0, 0] + u[1, 1] - u[2, 2]) / 4
    m[18] = 0.25 + 0j
    m[19] = (-u[1, 1] + i * u[0, 0] - i * u[2, 2]) / 4
    m[20] = m[9]
    m[21] = m[4]
    m[22] = (
        -u[0, 1] - u[1, 0] - u[1, 2] - u[2, 1]
        - i * (u[0, 1] - u[1, 0] + u[1, 2] - u[2, 1])
    ) / 8
    m[23] = 0.25 + 0j
    m[24] = -i * (u[0, 2] - u[2, 0]) / 4
    return m[1:]


def decompose_xu4(x, tol: float = DEFAULT_TOL) -> WeightedPermSum:
    """The 24-term table for XU(4), the known composite case with squared
    moduli summing to 1.

    Evaluates fixed linear forms of the 3x3 core entries, one weight per
    permutation of {1..4} in lexicographic order. Four of the weights are
    the constant 1/4 regardless of the core.
    """
    a = require_xu(x, tol)
    if a.shape[0] != 4:
        raise DimensionError(f"expected a 4x4 matrix, got {a.shape[0]}")
    u = fourier_core(a, tol)
    perms = list(lexicographic_permutations(4))
    return WeightedPermSum(4, zip(perms, _xu4_weights(u)), engine="xu4")


def _lift(s: WeightedPermSum) -> WeightedPermSum:
    """Embed a sum on {1..n-1} as a sum on {1..n} fixing 1: each
    permutation p becomes 1 (+) p."""
    images = np.hstack([np.zeros((len(s), 1), dtype=int), s.images + 1])
    # Prepending the smallest image keeps the rows distinct and in order.
    return WeightedPermSum._sorted(s.n + 1, images, s.weights, s.engine)


def decompose_recursive(
    x, opts: ScalingOptions | None = None, tol: float = RECURSIVE_TOL
) -> WeightedPermSum:
    """Decompose any XU(n) by recursion on the dimension.

    One step: extract the core U of X, factor U = e^(i*alpha) Z1 y Z2 by
    scaling, and split X into three XU factors

        X = [F (1 (+) e^(i*alpha) Z1) F^-1] [F (1 (+) y) F^-1] [F (1 (+) Z2) F^-1].

    The outer factors conjugate diagonal matrices with leading entry 1,
    so they are circulant and decompose over the n cyclic permutations
    (weights = first row). The middle factor is block diagonal
    1 (+) ytilde with ytilde again XU of size n-1 - conjugating 1 (+) y by
    F leaves the first row and column at (1, 0, ..., 0) because the line
    sums of y are 1 - so a single recursion on ytilde suffices. Terms
    recombine with ``product``; the weight sum is a product of 1s.

    The default membership tolerance is looser than elsewhere (1e-8)
    because each level re-enters through a scaled core whose line sums
    carry the scaling residual. XU(1) = {[1]} is the single identity term.
    """
    opts = opts or ScalingOptions()
    a = require_xu(x, tol)
    out = _recurse(a, opts, tol)
    out.engine = "recursive"
    return out


def _recurse(a: np.ndarray, opts: ScalingOptions, tol: float) -> WeightedPermSum:
    # ``a`` is the checked input or a block this function built, so no
    # level re-checks membership; ``fourier_core`` still rejects a core
    # that does not split off.
    n = a.shape[0]
    if n == 1:
        return WeightedPermSum(1, [(Permutation.identity(1), 1.0)])
    if n == 2:
        return _xu2(a)
    u = fourier_core(a, tol)
    fac = zxz_scale(u, opts)
    x1 = fourier_embed(np.diag(np.exp(1j * fac.alpha) * fac.z1))
    x2 = fourier_embed(np.diag(fac.z2))
    middle = fourier_embed(fac.core)
    ytilde = middle[1:, 1:]
    s1 = circulant_sum(x1).pruned(PRUNE_EPS)
    s2 = circulant_sum(x2).pruned(PRUNE_EPS)
    sy = _lift(_recurse(ytilde, opts, tol))
    return product(product(s1, sy).pruned(PRUNE_EPS), s2).pruned(PRUNE_EPS)


def decompose_xu(
    x,
    method: str = "auto",
    p: complex = 1.0,
    opts: ScalingOptions | None = None,
    tol: float | None = None,
) -> WeightedPermSum:
    """Front door for XU decompositions.

    method 'auto' picks the engine with the squared-moduli-1 guarantee
    when one exists (prime n or n = 4) and falls back to the recursive
    engine for n = 1 and composite n > 4. Explicit methods: 'xu2', 'xu3', 'xu4',
    'prime', 'recursive'.
    """
    a = as_complex_matrix(x)
    if method == "auto":
        method = _auto_method(a.shape[0])
    if tol is None:
        tol = RECURSIVE_TOL if method == "recursive" else DEFAULT_TOL
    return _run_engine(method, a, tol, opts, p)


def _auto_method(n: int) -> str:
    """The engine ``auto`` picks for XU(n)."""
    if n == 4:
        return "xu4"
    return "prime" if is_prime(n) else "recursive"


def _run_engine(
    method: str,
    a: np.ndarray,
    tol: float,
    opts: ScalingOptions | None,
    p: complex = 1.0,
) -> WeightedPermSum:
    # Engines are looked up by name at call time, so that a replaced module
    # attribute (such as the benchmark tracer's wrappers) is the one run.
    if method == "xu2":
        return decompose_xu2(a, tol)
    if method == "xu3":
        return decompose_xu3(a, p=p, tol=tol)
    if method == "xu4":
        return decompose_xu4(a, tol)
    if method == "prime":
        return decompose_prime(a, tol)
    if method == "recursive":
        return decompose_recursive(a, opts, tol)
    raise ValueError(f"unknown method {method!r}")


def decompose_unitary(
    u, opts: ScalingOptions | None = None, tol: float = RECURSIVE_TOL
) -> ComplexPermSum:
    """Write any unitary as a weighted sum of complex permutation matrices.

    Scale U = e^(i*alpha) Z1 X Z2, decompose the XU core X = sum of
    m_j P_j, and absorb the diagonals into each term: Z1 P_j Z2 is the
    complex permutation with row-k phase z1[k] * z2[sigma(k)], and its
    weight is e^(i*alpha) m_j. A core within the scaling tolerance of the
    identity skips the engine and yields the single term Z1 Z2.
    """
    opts = opts or ScalingOptions()
    a = as_complex_matrix(u)
    n = a.shape[0]
    fac = zxz_scale(a, opts)
    if max_abs_diff(fac.core, np.eye(n)) <= opts.tol:
        inner = WeightedPermSum(
            n, [(Permutation.identity(n), 1.0)], engine="identity"
        )
    else:
        inner = _run_engine(_auto_method(n), fac.core, tol, opts)
    phase = complex(np.exp(1j * fac.alpha))
    kept = inner.pruned(PRUNE_EPS)
    return ComplexPermSum.from_arrays(
        n,
        kept.images,
        phase * kept.weights,
        fac.z1[None, :] * fac.z2[kept.images],
        engine=f"zxz+{inner.engine}",
    )


@dataclass(frozen=True)
class VerificationReport:
    """Invariants of a decomposition, recomputed from its terms.

    ``weight_sum_ok`` compares the weight sum to 1 for plain permutation
    sums and the weight-sum modulus to 1 for complex ones (the global
    phase sits in the weights there). ``line_sums_ok`` checks that all 2n
    line sums of the reconstruction equal the weight sum, the signature of
    a permutation sum. ``sq_moduli_ok`` is informational for engines that
    make no squared-moduli claim.
    """

    reconstruction_error: float
    weight_sum: complex
    sq_moduli_sum: float
    term_count: int
    line_sum_deviation: float
    tol: float
    reconstruction_ok: bool
    weight_sum_ok: bool
    sq_moduli_ok: bool
    line_sums_ok: bool

    def to_json(self) -> dict:
        return {
            "reconstruction_error": self.reconstruction_error,
            "weight_sum": [self.weight_sum.real, self.weight_sum.imag],
            "sq_moduli_sum": self.sq_moduli_sum,
            "term_count": self.term_count,
            "line_sum_deviation": self.line_sum_deviation,
            "tol": self.tol,
            "passed": {
                "reconstruction": self.reconstruction_ok,
                "weight_sum": self.weight_sum_ok,
                "sq_moduli": self.sq_moduli_ok,
                "line_sums": self.line_sums_ok,
            },
        }


def verify(s, target, tol: float = 1e-9) -> VerificationReport:
    """Recompute a decomposition's invariants against a target matrix.

    Accepts a WeightedPermSum or a ComplexPermSum. Nothing is copied from
    the engine that produced ``s``; every number comes from the terms.
    """
    a = as_complex_matrix(target)
    recon = s.reconstruct()
    if recon.shape != a.shape:
        raise DimensionError(
            f"decomposition size {recon.shape[0]} vs target {a.shape[0]}"
        )
    err = max_abs_diff(recon, a)
    wsum = s.weight_sum()
    sq = s.sq_moduli_sum()
    rows, cols = line_sums(recon)
    sums = np.concatenate([rows, cols])
    ls_dev = float(np.abs(sums - wsum).max())
    complex_terms = isinstance(s, ComplexPermSum)
    wsum_dev = abs(abs(wsum) - 1.0) if complex_terms else abs(wsum - 1.0)
    return VerificationReport(
        reconstruction_error=err,
        weight_sum=wsum,
        sq_moduli_sum=sq,
        term_count=s.term_count,
        line_sum_deviation=ls_dev,
        tol=tol,
        reconstruction_ok=err <= tol,
        weight_sum_ok=wsum_dev <= tol,
        sq_moduli_ok=abs(sq - 1.0) <= tol,
        line_sums_ok=ls_dev <= tol,
    )
