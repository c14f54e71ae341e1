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
    _level_tables,
    _lex_images,
    _lexicographic,
    _xu2,
)
from xubirkhoff.scaling import ScalingOptions, zxz_scale
from xubirkhoff.xu_group import circulant_sum, fourier_core, fourier_embed


def _lift(s):
    """Each permutation p of a sum on {1..n-1} as 1 (+) p on {1..n}."""
    images = np.hstack([np.zeros((len(s), 1), dtype=int), s.images + 1])
    return WeightedPermSum._trusted(s.n + 1, images, s.weights)


def _reference(a, opts):
    """One recursion level per call, multiplied out with ``product`` and
    pruned after each product."""
    n = a.shape[0]
    if n == 1:
        return _lexicographic(1, [1.0])
    if n == 2:
        return _xu2(a)
    fac = zxz_scale(fourier_core(a), opts)
    x1 = fourier_embed(np.diag(np.exp(1j * fac.alpha) * fac.z1))
    x2 = fourier_embed(np.diag(fac.z2))
    s1 = circulant_sum(x1).pruned(PRUNE_EPS)
    s2 = circulant_sum(x2).pruned(PRUNE_EPS)
    sy = _lift(_reference(fourier_embed(fac.core)[1:, 1:], opts))
    return product(product(s1, sy).pruned(PRUNE_EPS), s2).pruned(PRUNE_EPS)


REFERENCE_CASES = [(n, seed) for n in range(3, 9) for seed in range(3)] + [
    (n, None) for n in range(3, 9)
]


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
    images = _lex_images(n)
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
    images = _lex_images(n)
    _, coset = _level_tables(n)
    k = np.arange(n)
    assert np.array_equal(images[coset, 0], np.broadcast_to(k[:, None], coset.shape))
    for shift in range(n):
        moved = (images[coset] + shift) % n
        assert np.array_equal(moved, images[coset[(k + shift) % n]])


@pytest.mark.parametrize("n", range(3, 7))
def test_level_tables_compose_as_documented(n):
    perms = [Permutation(tuple(r + 1)) for r in _lex_images(n).astype(int)]
    inner = [Permutation((1, *(r + 2))) for r in _lex_images(n - 1).astype(int)]
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
