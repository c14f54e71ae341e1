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
  dimension at a time through the ZXZ factorization, down to the first
  block of size 1 or prime p, the input at prime n, whose weights over
  AGL(1,p) need no scaling (``_agl``, which ``xu3`` reads too); the
  squared moduli sum to 1 up to the scaling and pruning residuals
  (its weights form a unitary element of the group algebra, see its
  docstring). It scales the levels top down, then folds them bottom up,
  each level in one coset fold over sums: every product of a cyclic
  shift and a permutation fixing 0 is, exactly once, a permutation
  fixing 0 followed by a cyclic shift. An input whose folds could exceed
  ``product``'s pair cap is refused before the first of them.
* ``decompose_unitary``: any unitary, as a weighted sum of complex
  permutation matrices (one unit-modulus phase per row).

``product`` (re-exported from ``permsum``) combines decompositions
multiplicatively and ``verify`` recomputes every claimed invariant from
scratch.

The engines keep the arithmetic. Every image-row table they read is
built, ordered and cached in ``permutations``: ``lex_images`` for the
tables over all of S_n (n = 2, 3, 4), ``supercirculant_images`` and
``_prime_rows`` for the prime construction and the recursive engine's
bottom block, and ``_coset_plan``, ``_agl_plan`` and ``_circulant_index``
for the recursive engine's folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, UnsupportedDimensionError
from .numerics import (
    DEFAULT_TOL,
    _frozen,
    as_complex_matrix,
    check_tol,
    dft_matrix,
    json_pairs,
    line_sum_spread,
    max_abs_diff,
)
from .permsum import ComplexPermSum, WeightedPermSum, check_pairs, product
from .permutations import (
    _agl_plan,
    _circulant_index,
    _coset_plan,
    _prime_rows,
    lex_images,
    supercirculant_images,
)
from .scaling import _DEFAULT_OPTIONS, ScalingOptions, _input_tol, zxz_scale
from .xu_group import fourier_core, fourier_embed, is_prime, require_xu

# Weights below this modulus are dropped between recursion steps; the
# removed mass is orders of magnitude under every verification tolerance.
PRUNE_EPS = 1e-14

# The most cells a cached first-level plan of the recursive engine
# (``permutations._agl_plan``) may hold, bounded before it is built by
# n * nnz(w1) * p(p - 1) over a bottom block of prime size p = n - 1. At
# full support that admits every first level up to n = 14 (25 900 cells,
# 0.58 MB of tables); n = 18 builds 77 796 cells and n = 32 890 944
# (36 MB), per call.
_PLAN_CACHE_CELLS = 1 << 16

# ``verify``'s default tolerance: the engines that scale carry their residual.
VERIFY_TOL = 1e-9

# The signs of the permutations of S_3 in lexicographic order (``lex_images``).
_SIGN3 = np.array([1, -1, -1, 1, 1, -1])


def _lexicographic(n: int, weights, engine: str = "") -> WeightedPermSum:
    """``weights[j]`` on the j-th permutation of {1..n} in lexicographic
    order (``lex_images``)."""
    # Adding 0j makes each -0.0 part +0.0, which the JSON form prints as 0.
    weights = np.array(weights, dtype=complex) + 0j
    return WeightedPermSum._trusted(n, lex_images(n), weights, engine)


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
    m1 = complex(a[0, 0])
    return _lexicographic(2, [m1, 1.0 - m1], "xu2")


def decompose_xu3(x, p: complex = 1.0, tol: float = DEFAULT_TOL) -> WeightedPermSum:
    """The six-weight family for XU(3), parametrized by p.

    The weights over AGL(1,3) = S_3 (``_agl``, ``decompose_recursive``),
    plus (p-1)/3 times the sign of each permutation. The weight sum is 1
    for every p; the squared moduli sum to 1 + (2*p*conj(p) - p -
    conj(p))/3, which is 1 exactly on the circle |p - 1/2| = 1/2 (e.g.
    p = 0 and p = 1).
    """
    p = complex(p)
    if not np.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    a = require_xu(x, tol)
    if a.shape[0] != 3:
        raise DimensionError(f"expected a 3x3 matrix, got {a.shape[0]}")
    return _lexicographic(3, _agl(a)[1] + (p - 1) / 3 * _SIGN3, "xu3")


def decompose_prime_parts(
    x, tol: float = DEFAULT_TOL
) -> tuple[WeightedPermSum, WeightedPermSum]:
    """The two halves of the prime construction for n >= 5.

    The first part carries the n(n-1) supercirculant permutations C[l,x]
    with weights m[l,x] = (1/n) sum over s of w^(-(l-1)s) U[sx, s], where
    U is the core of X = F (1 (+) U) F^-1; its weights sum to 0 and their
    squared moduli to (n-1)/n. They are read off X as (<C, X> - 1)/n, with
    <C, X> = sum over k of X[k, C(k)]. With 0-based indices, C(k) = (l-1) + kx:

        <C, W_n> = 1 for the flat matrix W_n, and X - W_n = F (0 (+) U) F^-1,
        so <C, X> - 1 = (1/n) sum over r, s of U[r,s] w^(-(l-1)s) sum over k
        of w^(k(r - sx)), and the last sum is n if r = sx mod n, else 0.

    The second part puts weight 1/n on each of the n disjoint permutations
    D_j; it reconstructs W_n, its weights sum to 1, and their squared
    moduli to 1/n.
    """
    a = require_xu(x, tol)
    n = a.shape[0]
    if not is_prime(n):
        composite = "composite (only n=4 has a known squared-moduli-1 table)"
        raise UnsupportedDimensionError(
            f"the supercirculant construction needs prime n; n={n} is "
            f"{composite if n > 1 else 'not prime'}"
        )
    if n < 5:
        raise DimensionError(
            f"the generic construction starts at n=5; use the closed forms "
            f"for n={n}"
        )
    images = supercirculant_images(n)
    m = (a.ravel()[images + n * np.arange(n)].sum(axis=1) - 1) / n
    c_part = WeightedPermSum._trusted(n, images, m, "prime-c")
    d_part = WeightedPermSum._trusted(
        n, _prime_rows(n)[2], np.full(n, 1.0 / n, dtype=complex), "prime-d"
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
        images, order, _ = _prime_rows(n)
        weights = np.concatenate([c_part.weights, d_part.weights])[order]
        out = WeightedPermSum._trusted(n, images, weights)
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
    return _lexicographic(4, _xu4_weights(fourier_core(a)), "xu4")


def decompose_recursive(
    x, opts: ScalingOptions | None = None, tol: float = DEFAULT_TOL
) -> WeightedPermSum:
    """Decompose any XU(n) by recursion on the dimension.

    One step: extract the core U of X, factor U = e^(i*alpha) Z1 y Z2 by
    scaling, and split X into three XU factors

        X = [F (1 (+) e^(i*alpha) Z1) F^-1] [F (1 (+) y) F^-1] [F (1 (+) Z2) F^-1].

    The outer factors conjugate diagonal matrices with leading entry 1,
    so they are circulant and decompose over the n cyclic shifts c_k
    (weights = first row). The middle factor is block diagonal
    1 (+) ytilde with ytilde again XU of size n-1 - conjugating 1 (+) y by
    F leaves the first row and column at (1, 0, ..., 0) because the line
    sums of y are 1 - so a single recursion on ytilde suffices.

    The engine makes two passes over the levels. The first scales them
    top down (``_levels``): level n scales its core and reads w1 and w2
    off Z1 and Z2 in one product. It hands level n-1 the core of ytilde,
    G^H y G for a cached isometry G, without forming the middle factor.
    One rule stops it: the first block of size 1 or prime p, the input
    itself or the first ytilde of prime size, which only its level embeds,
    is the bottom block, and nothing below it is scaled. The second pass
    folds the levels bottom up, starting from the bottom block's weights
    over the affine group AGL(1,p) (``_bottom``).

    The bottom block Y needs no scaling. The supercirculants C[l,x],
    k -> (l-1) + kx mod p (``supercirculant_images``), form the sharply
    2-transitive group H = AGL(1,p): exactly one h in H sends a given
    pair of distinct points to a given pair of distinct points. With
    D = Y - I and g_h = sum_k D[k, h(k)], one gather-sum, the weights

        m_h = [h = e] + g_h / p

    give sum_h m_h P_h = Y, sum m = 1 and sum |m|^2 = 1, exactly:

    * D has zero line sums, so the sum of D[k, l] over k != a, l != b is
      D[a, b]. The entry (a, b) of sum_h g_h P_h sums g_h over the p - 1
      h with h(a) = b: their terms at k = a give (p - 1) D[a, b], and
      their other terms meet each D[k, l], k != a, l != b, once, adding
      D[a, b]. So sum_h g_h P_h = p D, and sum_h m_h P_h = I + D = Y;
    * h(k) = l holds for p - 1 of the h, so sum_h g_h = (p - 1) sum D = 0;
    * in sum_h |g_h|^2 the products D[k, l] conj(D[k, l]) come p - 1
      times and, as above, the products over k != k' add up to ||D||^2,
      so sum_h |g_h|^2 = p ||D||^2. Y is unitary, so ||D||^2 = -2 Re g_e,
      and sum |m|^2 = 1 + 2 Re g_e / p + ||D||^2 / p = 1.

    At p = 2 and p = 3, H is all of S_p. A Y that is a permutation matrix
    up to entries of modulus <= PRUNE_EPS, as is every XU(1), is kept as
    that one permutation, weight 1: over H its weights would spread over up
    to p(p - 1) terms.

    Each level folds its three sums, C(w1) (1 (+) s) C(w2), in one coset
    fold, where C(w) is the sum of w[k] c_k over the cyclic shifts c_k and
    s the sum of v_j sigma_j below. Every product "apply c_k, then
    1 (+) sigma_j" of a shift in the support of w1 and a row of s is
    exactly one "apply 1 (+) rho, then c_a", with a its image of 0, and
    distinct pairs (k, j) give distinct products. A further shift c_l
    only moves a to a + l mod n. So, with the distinct rho numbered g in
    lexicographic order, each pair puts w1[k] v_j in a cell (g, a) of its
    own, and the (R, n) cells times the circulant matrix of w2 are the
    weights of "apply 1 (+) rho_g, then c_b". The fold keeps those of
    modulus over PRUNE_EPS, in the lexicographic order of their rows, with
    no merging. The cells, the rows and their order are the level's plan
    (``_coset_plan``); it depends on the rows below and the support of w1
    only. So the plan of a first level over the rows of AGL(1,p) is
    cached per (n, support) (``_agl_plan``) while n nnz(w1)
    p(p - 1) is at most _PLAN_CACHE_CELLS, up to n = 14 at full support;
    the bottom weights of modulus <= PRUNE_EPS are zeroed there, not
    dropped, to keep its rows. Every other plan depends on the input, and
    is built per call. An input with few terms (a permutation matrix, a
    circulant) stays cheap at every n: an input that is the bottom block
    drops its weights of modulus <= PRUNE_EPS, as a fold does.
    Before the first fold, the bottom block's row count bounds the pairs
    and cells of every level (``_refuse_oversized``), and a bound over
    ``permsum``'s cap of 40 M pairs raises UnsupportedDimensionError after
    the scaling, before any fold runs. Full-support XU(12) and XU(14)
    decompose over the bottom blocks XU(11) and XU(13); the smallest
    composite n refused at full support is 16, whose level 16 may pair 16
    shifts with 6 879 600 terms. The weight sum is a product of 1s.

    The squared moduli sum to 1 as well. Read the weights as the element
    m = sum_p m_p p of the group algebra C[S_n], with m* = sum_p
    conj(m_p) p^-1; m is unitary when m* m = e, whose coefficient at e is
    sum_p |m_p|^2 = 1. Four steps give it:

    * the bottom block's weights are a unitary element of C[H] (or one
      permutation, weight 1, which is unitary in C[S_p]). C[H] is
      the direct sum of the matrix algebras of H's irreducible
      representations, so it is enough that m maps to a unitary in each.
      The permutation representation of the 2-transitive H is the trivial
      one plus one irreducible V, the vectors of zero sum; D acts on V
      only, so g_h is a matrix coefficient of V, and by Schur
      orthogonality sum_h g_h h maps to 0 in every irreducible
      representation but V, and to (|H| / (p - 1)) D = p D on V. So m maps
      to the identity outside V and to Y on V;
    * a circulant unitary's first row is a unitary element of the cyclic
      group algebra (the Fourier transform diagonalizes both);
    * lifting an element of C[S_(n-1)] to C[S_n] through 1 (+) sigma is
      an algebra homomorphism, so it keeps unitarity, as does the
      inclusion of C[H] in C[S_p];
    * products of unitary elements are unitary, and the coset fold, like
      ``product``, computes the group-algebra product.

    Numerically the sum is 1 up to the scaling residual and the mass
    pruned under PRUNE_EPS.

    ``tol`` gates the membership of ``x`` only. Every block below it is
    one the engine built, XU to within ``opts.tol`` by scaling, and is not
    checked again.
    """
    opts = opts or _DEFAULT_OPTIONS
    a = require_xu(x, tol)
    levels, block = _levels(a, opts)
    images, weights = _bottom(block)
    _refuse_oversized(levels, len(images))
    for level, (w1, w2) in enumerate(reversed(levels)):
        n = len(w1)
        k = np.flatnonzero(w1)
        pairs = len(images) * len(k)
        if level == 0 and len(images) > 1 and n * pairs <= _PLAN_CACHE_CELLS:
            cells, rows, order = _agl_plan(n, tuple(k.tolist()))
        else:
            cells, rows, order = _coset_plan(n, images, k)
        q = np.zeros(len(order), dtype=complex)
        q[cells] = np.multiply.outer(_pruned(weights), w1[k])
        q = (q.reshape(-1, n) @ w2[_circulant_index(n)]).reshape(-1)[order]
        keep = np.abs(q) > PRUNE_EPS
        images, weights = (rows, q) if keep.all() else (rows[keep], q[keep])
    out = WeightedPermSum._trusted(a.shape[0], images, weights, "recursive")
    return out if levels else out.pruned(PRUNE_EPS)


def _levels(a: np.ndarray, opts: ScalingOptions):
    """The scaled levels of XU(n) member ``a``, top down, and the bottom
    block, the first block of size 1 or prime (``decompose_recursive``):
    ``a`` itself, with no levels, or an XU(p) ytilde. Each level, of size
    n, n - 1, ..., scales its core y, of size one less, and gives
    (w1, w2), the pruned first rows of its two circulant factors
    (``_first_rows``). A level whose y has composite size hands the next
    level its core, G^H y G (``_next_core``), without forming the middle
    factor's block ytilde; the first whose y has prime size embeds it."""
    levels = []
    if len(a) == 1 or is_prime(len(a)):
        return levels, a
    core = fourier_core(a)
    while True:
        fac = zxz_scale(core, opts)
        m = len(core) + 1
        d = np.ones((2, m), dtype=complex)
        d[0, 1:] = np.exp(1j * fac.alpha) * fac.z1
        d[1, 1:] = fac.z2
        levels.append(_pruned(_first_rows(d)))
        if is_prime(m - 1):
            return levels, fourier_embed(fac.core)[1:, 1:]
        core = _next_core(fac.core)


def _bottom(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image rows, in lexicographic order, and the weights of the
    bottom block, an XU(p) matrix Y with p prime or p = 1: its weights
    over AGL(1,p) (``_agl``). A Y with only p entries of modulus over
    PRUNE_EPS is a permutation matrix up to the others, since its line
    sums are 1: it is one term of weight 1, as is every XU(1) block."""
    p = len(block)
    big = np.abs(block) > PRUNE_EPS
    if np.count_nonzero(big) == p:
        images, weights = big.argmax(axis=1)[None], np.ones(1)
    else:
        images, weights = _agl(block)
    # Adding 0j makes each -0.0 part +0.0, which the JSON form prints as 0.
    return images, weights + 0j


def _agl(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows h of AGL(1,p) (``supercirculant_images``), the identity
    first, and the weights [h = e] + (1/p) sum_k (Y - I)[k, h(k)] of the
    XU(p) matrix Y, p prime, over them (``decompose_recursive``)."""
    p = len(y)
    images = supercirculant_images(p)
    weights = (y - np.eye(p)).ravel()[images + p * np.arange(p)].sum(axis=1) / p
    weights[0] += 1
    return images, weights


@lru_cache(maxsize=64)
def _level_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only matrices that carry a recursion level of size n:
    conj(F_n) / sqrt(n), which gives ``_first_rows``, and G^H and G for
    the isometry G = F_n[1:, 1:]^H F_(n-1)[:, 1:] of ``_next_core``.

    G^H G = I: the rows 1.. of F_n are orthonormal, so
    F_n[1:, 1:] F_n[1:, 1:]^H = I - J / n with J all ones, and the columns
    1.. of F_(n-1) are orthogonal to the constant vector.
    """
    f = dft_matrix(n)
    rows = f.conj() / math.sqrt(n)
    g = f[1:, 1:].conj().T @ dft_matrix(n - 1)[:, 1:]
    return _frozen(rows), _frozen(g.conj().T.copy()), _frozen(g)


def _first_rows(d: np.ndarray) -> np.ndarray:
    """The first rows of the circulants F (1 (+) diag(d_i[1:])) F^-1, one
    per row d_i of ``d``, whose first entries are 1: the first row of F is
    constant, 1 / sqrt(n), so each is conj(F) d_i / sqrt(n), in one
    product (F is symmetric)."""
    return d @ _level_maps(d.shape[-1])[0]


def _next_core(y: np.ndarray) -> np.ndarray:
    """The core of the XU block ytilde of the middle factor
    F (1 (+) y) F^-1 = 1 (+) ytilde of a level of size n, from the scaled
    core y of size n - 1: G^H y G (``_level_maps``). It is
    ``fourier_core(fourier_embed(y)[1:, 1:])`` in exact arithmetic, one
    product each way instead of two: F (1 (+) y) F^-1 is J / n plus
    F[:, 1:] y F[:, 1:]^H, and the block J / n of ytilde vanishes in the
    core because the columns 1.. of F_(n-1) sum to zero."""
    gh, g = _level_maps(len(y) + 1)[1:]
    return gh @ y @ g


def _refuse_oversized(levels, terms: int) -> None:
    """Raise UnsupportedDimensionError (``check_pairs``) before the first
    fold if a level could pair or build more than ``permsum`` lets one
    ``product`` take.

    ``levels`` lists the levels top down and ``terms`` counts the rows of
    the bottom block. A level of size m pairs the nnz(w1) shifts of w1 with
    the T rows below, nnz(w1) * T pairs, whose permutations "apply
    1 (+) rho, then c_a" have at most G = min((m-1)!, nnz(w1) * T) distinct
    rho. It builds the m cells of each, G * m, and at most nnz(w1) * T *
    nnz(w2) of them can be nonzero. Pruning only lowers the true counts.
    """
    for w1, w2 in reversed(levels):
        m = len(w1)
        k1, k2 = np.count_nonzero(w1), np.count_nonzero(w2)
        what = f"recursive level {m} may need a product"
        check_pairs(m, k1, terms, what)
        groups = min(math.factorial(m - 1), k1 * terms)
        check_pairs(m, groups, m, what)
        terms = min(groups * m, k1 * terms * k2)


def _pruned(w: np.ndarray) -> np.ndarray:
    """``w`` with the entries of modulus <= PRUNE_EPS set to zero, in place."""
    w[np.abs(w) <= PRUNE_EPS] = 0
    return w


# Method name -> engine call ``(a, p, opts, tol)``. The engines are looked
# up as module attributes at call time, so that a replaced attribute (such
# as the benchmark tracer's wrappers) is the one run.
_ENGINES = {
    "xu2": lambda a, p, opts, tol: decompose_xu2(a, tol),
    "xu3": lambda a, p, opts, tol: decompose_xu3(a, p, tol),
    "xu4": lambda a, p, opts, tol: decompose_xu4(a, tol),
    "prime": lambda a, p, opts, tol: decompose_prime(a, tol),
    "recursive": lambda a, p, opts, tol: decompose_recursive(a, opts, tol),
}

# The names ``decompose_xu`` accepts.
METHODS = ("auto", *_ENGINES)


def decompose_xu(
    x,
    method: str = "auto",
    p: complex = 1.0,
    opts: ScalingOptions | None = None,
    tol: float = DEFAULT_TOL,
) -> WeightedPermSum:
    """Front door for XU decompositions.

    ``method`` is one of ``METHODS``. 'auto' picks the engine with the
    squared-moduli-1 guarantee when one exists (prime n or n = 4) and falls
    back to the recursive engine for n = 1 and composite n > 4; any other
    name runs that engine. ``p`` reaches only 'xu3' and ``opts`` only
    'recursive'. ``tol`` is the membership tolerance of ``x``, the same
    for every engine. An unknown method raises ValueError.
    """
    a = as_complex_matrix(x)
    if method == "auto":
        method = _auto_method(a.shape[0])
    if method not in _ENGINES:
        raise ValueError(f"unknown method {method!r}")
    return _ENGINES[method](a, p, opts, tol)


def _auto_method(n: int) -> str:
    """The engine ``auto`` picks for XU(n)."""
    if n == 4:
        return "xu4"
    return "prime" if is_prime(n) else "recursive"


def decompose_unitary(u, opts: ScalingOptions | None = None) -> ComplexPermSum:
    """Write any unitary as a weighted sum of complex permutation matrices.

    Scale U = e^(i*alpha) Z1 X Z2, decompose the XU core X = sum of
    m_j P_j, and absorb the diagonals into each term: Z1 P_j Z2 is the
    complex permutation with row-k phase z1[k] * z2[sigma(k)], and its
    weight is e^(i*alpha) m_j. A core within the scaling tolerance of the
    identity skips the engine and yields the single term Z1 Z2.

    The engine takes the core at ``_input_tol(opts)``, the larger of the
    unitarity ``zxz_scale`` checked on the input and the spread it reached.
    """
    opts = opts or _DEFAULT_OPTIONS
    a = as_complex_matrix(u)
    n = a.shape[0]
    fac = zxz_scale(a, opts)
    if max_abs_diff(fac.core, np.eye(n)) <= opts.tol:
        inner = WeightedPermSum._trusted(
            n, np.arange(n)[None], np.ones(1, dtype=complex), "identity"
        )
    else:
        inner = _ENGINES[_auto_method(n)](fac.core, 1.0, opts, _input_tol(opts))
    phase = complex(np.exp(1j * fac.alpha))
    kept = inner.pruned(PRUNE_EPS)
    return ComplexPermSum._trusted(
        n,
        kept.images,
        phase * kept.weights,
        f"zxz+{inner.engine}",
        fac.z1[None, :] * fac.z2[kept.images],
    )


@dataclass(frozen=True)
class VerificationReport:
    """Invariants of a decomposition, recomputed from its terms.

    ``weight_sum_ok`` compares the weight sum to 1 for plain permutation
    sums and the weight-sum modulus to 1 for complex ones (the global
    phase sits in the weights there). ``line_sums_ok`` checks that all 2n
    line sums of the reconstruction equal the weight sum, the signature of
    a plain permutation sum. ``phases_ok`` checks that every row phase of
    a complex sum has modulus 1 (``phase_deviation`` is 0.0 for plain
    sums). ``sq_moduli_ok`` is informational for engines that make no
    squared-moduli claim.

    ``ok`` is the verdict. A plain sum passes on reconstruction, weight
    sum and line sums. A complex sum passes on reconstruction, weight sum
    and phases; its row phases move its line sums off the weight sum, so
    ``line_sums_ok`` is informational there.
    """

    reconstruction_error: float
    weight_sum: complex
    sq_moduli_sum: float
    term_count: int
    line_sum_deviation: float
    phase_deviation: float
    tol: float
    reconstruction_ok: bool
    weight_sum_ok: bool
    sq_moduli_ok: bool
    line_sums_ok: bool
    phases_ok: bool
    ok: bool

    def to_json(self) -> dict:
        return {
            "reconstruction_error": self.reconstruction_error,
            "weight_sum": json_pairs(self.weight_sum),
            "sq_moduli_sum": self.sq_moduli_sum,
            "term_count": self.term_count,
            "line_sum_deviation": self.line_sum_deviation,
            "phase_deviation": self.phase_deviation,
            "tol": self.tol,
            "passed": {
                "reconstruction": self.reconstruction_ok,
                "weight_sum": self.weight_sum_ok,
                "sq_moduli": self.sq_moduli_ok,
                "line_sums": self.line_sums_ok,
                "phases": self.phases_ok,
            },
        }


def verify(s, target, tol: float = VERIFY_TOL) -> VerificationReport:
    """Recompute a decomposition's invariants against a target matrix.

    ``s`` is a WeightedPermSum or a ComplexPermSum; anything else raises
    TypeError naming its type. ``tol`` is positive and finite. Nothing is
    copied from the engine that produced ``s``; every number comes from
    the terms.
    """
    tol = check_tol(tol, "tol")
    if not isinstance(s, (WeightedPermSum, ComplexPermSum)):
        raise TypeError(f"cannot verify {type(s).__name__}")
    a = as_complex_matrix(target)
    recon = s.reconstruct()
    if recon.shape != a.shape:
        raise DimensionError(
            f"decomposition size {recon.shape[0]} vs target {a.shape[0]}"
        )
    err = max_abs_diff(recon, a)
    wsum = s.weight_sum()
    sq = s.sq_moduli_sum()
    # ``recon`` is built here from the terms, so it is not validated again.
    ls_dev = line_sum_spread(recon.sum(axis=1), recon.sum(axis=0), wsum)
    complex_terms = isinstance(s, ComplexPermSum)
    if complex_terms:
        wsum_dev = abs(abs(wsum) - 1.0)
        ph_dev = float(np.abs(np.abs(s.phases) - 1.0).max(initial=0.0))
    else:
        wsum_dev, ph_dev = abs(wsum - 1.0), 0.0
    rec_ok, wsum_ok, ls_ok, ph_ok = (
        d <= tol for d in (err, wsum_dev, ls_dev, ph_dev)
    )
    return VerificationReport(
        reconstruction_error=err,
        weight_sum=wsum,
        sq_moduli_sum=sq,
        term_count=s.term_count,
        line_sum_deviation=ls_dev,
        phase_deviation=ph_dev,
        tol=tol,
        reconstruction_ok=rec_ok,
        weight_sum_ok=wsum_ok,
        sq_moduli_ok=abs(sq - 1.0) <= tol,
        line_sums_ok=ls_ok,
        phases_ok=ph_ok,
        ok=rec_ok and wsum_ok and (ph_ok if complex_terms else ls_ok),
    )
