"""The recursive engine's dense level step, against the sum-product
formula it replaces, and the lexicographic tables it indexes."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    Permutation,
    UnsupportedDimensionError,
    WeightedPermSum,
    circulant_xu_decompose,
    compose,
    decompose_recursive,
    decompose_unitary,
    decompose_xu,
    haar_unitary,
    product,
    random_circulant_xu,
    random_xu,
)
from xubirkhoff.birkhoff import (
    DENSE_MAX_N,
    PRUNE_EPS,
    _dense,
    _first_rows,
    _level_maps,
    _level_tables,
    _lexicographic,
    _next_core,
)
from xubirkhoff.permutations import lex_images
from xubirkhoff.scaling import ScalingOptions, zxz_scale
from xubirkhoff.xu_group import circulant_sum, fourier_core, fourier_embed


def _lift(s):
    """Each permutation p of a sum on {1..n-1} as 1 (+) p on {1..n}."""
    images = np.hstack([np.zeros((len(s), 1), dtype=int), s.images + 1])
    return WeightedPermSum._trusted(s.n + 1, images, s.weights)


def _reference(a, opts):
    """One recursion level per call, multiplied out with ``product`` and
    pruned after each product. The levels pass their cores, first rows and
    XU(2) block as the engine's helpers build them, so that the reference
    differs from the engine only in how it folds the levels."""
    n = a.shape[0]
    if n <= 2:
        return _lexicographic(n, a[0])
    return _reference_level(fourier_core(a), opts)


def _reference_level(core, opts):
    """The level of size len(core) + 1 whose core is ``core``, and every
    level below it."""
    n = len(core) + 1
    fac = zxz_scale(core, opts)
    d = np.ones((2, n), dtype=complex)
    d[0, 1:] = np.exp(1j * fac.alpha) * fac.z1
    d[1, 1:] = fac.z2
    w1, w2 = _first_rows(d)
    s1 = circulant_sum(w1).pruned(PRUNE_EPS)
    s2 = circulant_sum(w2).pruned(PRUNE_EPS)
    if n == 3:
        inner = _lexicographic(2, fourier_embed(fac.core)[1:, 1:][0])
    else:
        inner = _reference_level(_next_core(fac.core), opts)
    sy = _lift(inner)
    return product(product(s1, sy).pruned(PRUNE_EPS), s2).pruned(PRUNE_EPS)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 10), st.integers(0, 2**32 - 1))
def test_level_step_matches_fourier_embedding(n, seed):
    # One level of size n passes its scaled core y to the next as G^H y G,
    # and reads each circulant first row off its diagonal in one product.
    y = haar_unitary(n - 1, seed)
    rows, gh, g = _level_maps(n)
    assert _level_maps(n)[2] is g
    assert not any(m.flags.writeable for m in (rows, gh, g))
    assert np.array_equal(gh, g.conj().T)
    assert np.abs(gh @ g - np.eye(n - 2)).max() <= 1e-15
    want = fourier_core(fourier_embed(y)[1:, 1:])
    assert np.abs(_next_core(y) - want).max() <= 1e-15
    rng = np.random.default_rng(seed)
    d = np.ones((2, n), dtype=complex)
    d[:, 1:] = np.exp(2j * np.pi * rng.random((2, n - 1)))
    for got, di in zip(_first_rows(d), d):
        assert np.abs(got - fourier_embed(np.diag(di[1:]))[0]).max() <= 1e-15


# (9, 1) is the one full-support input at the largest dense level.
REFERENCE_CASES = [(n, seed) for n in range(3, 9) for seed in range(3)] + [
    (n, None) for n in range(3, 9)
] + [(9, 1)]


@pytest.mark.parametrize("n,seed", REFERENCE_CASES)
def test_matches_sum_product_reference(n, seed):
    x = np.eye(n) if seed is None else random_xu(n, seed)
    got = decompose_recursive(x)
    want = _reference(x.astype(complex), ScalingOptions())
    assert np.array_equal(got.images, want.images)
    assert np.abs(got.weights - want.weights).max() <= 1e-15


def _few_term_inputs(n):
    rng = np.random.default_rng(n)
    return [np.eye(n), np.eye(n)[rng.permutation(n)], random_circulant_xu(n, n)]


# XU(2) inputs whose off-diagonal parts are -0.0: the recursive engine
# reads an XU(2) block's weights off its first row.
NEGATIVE_ZERO_XU2 = [
    np.array([[1, -0.0], [-0.0, 1]]),
    np.array([[1, complex(0, -0.0)], [complex(0, -0.0), 1]]),
]


@pytest.mark.parametrize("n", range(3, DENSE_MAX_N + 1))
def test_dense_weights_have_no_negative_zero_part(n):
    # The JSON form would print such a part as -0.0.
    for x in [*_few_term_inputs(n), *NEGATIVE_ZERO_XU2]:
        w = decompose_recursive(x).weights
        for part in (w.real, w.imag):
            assert not np.any(np.signbit(part) & (part == 0))
    # Every product of the second step has imaginary part -0.0 here, so
    # only a sum that starts from +0.0 ends at +0.0.
    inner = np.full(math.factorial(n - 1), -1.0, dtype=complex)
    w2 = np.full(n, -1.0, dtype=complex)
    out = _dense(np.ones(n, dtype=complex), w2, inner)
    assert not np.signbit(out.imag).any()


@pytest.mark.parametrize("n", [DENSE_MAX_N, DENSE_MAX_N + 1])
def test_both_sides_of_the_dense_bound_match_reference(n):
    # n = DENSE_MAX_N is one dense recursion; n = DENSE_MAX_N + 1 is a
    # sparse level over it.
    for x in _few_term_inputs(n):
        got = decompose_recursive(x)
        want = _reference(x.astype(complex), ScalingOptions())
        assert np.array_equal(got.images, want.images)
        assert np.abs(got.weights - want.weights).max() <= 1e-15
        assert len(got) <= n
        assert np.abs(got.reconstruct() - x).max() <= 1e-12


def test_few_term_inputs_at_n12_stay_small():
    # Dense levels above DENSE_MAX_N would hold 12! complex weights
    # (7.7 GB); even one at n = 10 holds 58 MB.
    x = random_circulant_xu(12, 0)
    tracemalloc.start()
    try:
        eye = decompose_recursive(np.eye(12))
        circulant = decompose_xu(x)
        unitary = decompose_unitary(x * np.exp(0.3j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert np.array_equal(eye.images, [np.arange(12)])
    assert abs(eye.weights[0] - 1) <= 1e-12
    want = circulant_xu_decompose(x)
    assert circulant.engine == "recursive"
    assert np.array_equal(circulant.images, want.images)
    assert np.abs(circulant.weights - want.weights).max() <= 1e-12
    assert len(unitary) == 12
    assert np.abs(unitary.reconstruct() - x * np.exp(0.3j)).max() <= 1e-12


@pytest.mark.parametrize(
    "decompose",
    [
        lambda: decompose_unitary(haar_unitary(12, 0)),
        lambda: decompose_xu(random_xu(12, 0)),
    ],
    ids=["unitary", "xu-auto"],
)
def test_full_support_n12_refused_before_any_product(decompose):
    # Level 11's second product would take 11! * 11 pairs (over 30 GB):
    # the bound refuses it after the scaling and the dense levels, which
    # stay under 30 MB traced, before the 36.3 M-pair products of level 10.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(UnsupportedDimensionError, match="level 11.*439084800 pairs"):
            decompose()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 64e6


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_images_are_itertools_order_and_read_only(n):
    images = lex_images(n)
    assert images.dtype == np.int8
    assert np.array_equal(images, list(itertools.permutations(range(n))))
    assert not images.flags.writeable


@pytest.mark.parametrize("n", range(3, 9))
def test_level_tables_cover_s_n_once(n):
    left, coset = _level_tables(n)
    for table in (left, coset):
        assert table.dtype == np.int32
        assert table.shape == (n, math.factorial(n - 1))
        assert not table.flags.writeable
        assert np.array_equal(np.sort(table, axis=None), np.arange(math.factorial(n)))


@pytest.mark.parametrize("n", range(3, 9))
def test_coset_table_shifts(n):
    # c_l applied after the permutation at coset[a, j] is the one at
    # coset[(a + l) % n, j], and coset[a] holds the images of 0 equal to a
    images = lex_images(n)
    _, coset = _level_tables(n)
    k = np.arange(n)
    assert np.array_equal(images[coset, 0], np.broadcast_to(k[:, None], coset.shape))
    for shift in range(n):
        moved = (images[coset] + shift) % n
        assert np.array_equal(moved, images[coset[(k + shift) % n]])


@pytest.mark.parametrize("n", range(3, 7))
def test_level_tables_compose_as_documented(n):
    perms = [Permutation(tuple(r + 1)) for r in lex_images(n).astype(int)]
    inner = [Permutation((1, *(r + 2))) for r in lex_images(n - 1).astype(int)]
    shifts = [Permutation(tuple((np.arange(n) + k) % n + 1)) for k in range(n)]
    left, coset = _level_tables(n)
    for k, c in enumerate(shifts):
        for j, p in enumerate(inner):
            assert perms[left[k, j]] == compose(c, p)
            assert perms[coset[k, j]] == compose(p, c)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 7), st.integers(0, 2**32 - 1))
def test_tolerances_do_not_compound_with_depth(n, seed):
    x = random_xu(n, seed)
    s = decompose_recursive(x)
    assert np.abs(s.reconstruct() - x).max() <= 1e-9
    assert abs(s.sq_moduli_sum() - 1.0) <= 1e-9


@pytest.mark.parametrize("n", range(3, 10))
def test_squared_moduli_sum_to_one_at_rounding_level(n):
    # The bottom XU(2) block is scaled in closed form, so it does not carry
    # the scaling residual: it once left |sum |m|^2 - 1| at 1.9e-11.
    for seed in range(4):
        s = decompose_recursive(random_xu(n, seed))
        assert abs(s.sq_moduli_sum() - 1.0) <= 1e-14
