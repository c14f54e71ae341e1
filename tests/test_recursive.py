"""The recursive engine's coset fold, against the sum-product formula it
replaces, the plans it folds through, and the weights over AGL(1,p) of the
prime block it stops at."""

import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    Permutation,
    SupercirculantLabel,
    UnsupportedDimensionError,
    WeightedPermSum,
    circulant_xu_decompose,
    compose,
    decompose_recursive,
    decompose_unitary,
    decompose_xu,
    decompose_xu3,
    haar_unitary,
    product,
    random_circulant_xu,
    random_xu,
    supercirculant_perm,
    verify,
)
from xubirkhoff import birkhoff
from xubirkhoff.birkhoff import (
    PRUNE_EPS,
    _bottom,
    _first_rows,
    _level_maps,
    _next_core,
)
from xubirkhoff.permutations import (
    _agl_plan,
    _coset_plan,
    lex_images,
    shift_images,
    supercirculant_images,
)
from xubirkhoff.scaling import ScalingOptions, zxz_scale
from xubirkhoff.xu_group import circulant_sum, fourier_core, fourier_embed, is_prime


def _lift(s):
    """Each permutation p of a sum on {1..n-1} as 1 (+) p on {1..n}."""
    images = np.hstack([np.zeros((len(s), 1), dtype=int), s.images + 1])
    return WeightedPermSum._trusted(s.n + 1, images, s.weights)


def _reference(a, opts):
    """One recursion level per call, multiplied out with ``product`` and
    pruned after each product. The levels pass their cores, first rows and
    bottom block as the engine's helpers build them, and stop at the same
    prime block, so that the reference differs from the engine only in how
    it folds the levels. An input of size 1 or prime is its own bottom
    block."""
    n = a.shape[0]
    if n == 1 or is_prime(n):
        return WeightedPermSum._trusted(n, *_bottom(a)).pruned(PRUNE_EPS)
    return _reference_level(fourier_core(a), opts)


def _reference_level(core, opts):
    """The level of size len(core) + 1 whose core is ``core``, and every
    level below it down to the first middle block of prime size."""
    n = len(core) + 1
    fac = zxz_scale(core, opts)
    d = np.ones((2, n), dtype=complex)
    d[0, 1:] = np.exp(1j * fac.alpha) * fac.z1
    d[1, 1:] = fac.z2
    w1, w2 = _first_rows(d)
    s1 = circulant_sum(w1).pruned(PRUNE_EPS)
    s2 = circulant_sum(w2).pruned(PRUNE_EPS)
    if is_prime(n - 1):
        block = fourier_embed(fac.core)[1:, 1:]
        inner = WeightedPermSum._trusted(n - 1, *_bottom(block))
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


# (9, 1) is a full-support input whose two levels stand over the bottom
# block XU(7).
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


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(3, 10), st.integers(0, 2**32 - 1))
def test_matches_sum_product_reference_over_seeds(n, seed):
    x = random_xu(n, seed)
    got = decompose_recursive(x)
    want = _reference(x, ScalingOptions())
    assert np.array_equal(got.images, want.images)
    assert np.abs(got.weights - want.weights).max() <= 1e-15


def test_engine_never_calls_product():
    # Each level is one coset fold, also over the 42 terms of the bottom
    # block XU(7) under XU(8) and XU(9).
    spy = mock.Mock(wraps=birkhoff.product)
    with mock.patch.object(birkhoff, "product", spy):
        for n in (6, 8, 9):
            x = random_xu(n, 1)
            assert verify(decompose_recursive(x), x).ok
            assert verify(decompose_xu(x), x).ok
    assert spy.call_count == 0


def _few_term_inputs(n):
    rng = np.random.default_rng(n)
    return [np.eye(n), np.eye(n)[rng.permutation(n)], random_circulant_xu(n, n)]


# XU(2) identities whose off-diagonal parts are -0.0: a weight taken from
# an entry of the block would keep that sign.
NEGATIVE_ZERO_XU2 = [
    np.array([[1, -0.0], [-0.0, 1]]),
    np.array([[1, complex(0, -0.0)], [complex(0, -0.0), 1]]),
]


@pytest.mark.parametrize("n", range(3, 11))
def test_dense_weights_have_no_negative_zero_part(n):
    # The JSON form would print such a part as -0.0.
    for x in [*_few_term_inputs(n), *NEGATIVE_ZERO_XU2]:
        w = decompose_recursive(x).weights
        for part in (w.real, w.imag):
            assert not np.any(np.signbit(part) & (part == 0))


@pytest.mark.parametrize("n", range(7, 11))
def test_few_term_inputs_match_reference(n):
    # n = 7 is its own bottom block, the larger n stand over the bottom
    # block XU(7). A permutation matrix has a permutation matrix for its
    # bottom block, one term.
    for x in _few_term_inputs(n):
        got = decompose_recursive(x)
        want = _reference(x.astype(complex), ScalingOptions())
        assert np.array_equal(got.images, want.images)
        assert np.abs(got.weights - want.weights).max() <= 1e-15
        assert len(got) <= n
        assert np.abs(got.reconstruct() - x).max() <= 1e-12


def test_few_term_inputs_at_n12_stay_small():
    # The fold builds cells only for the pairs of nonzero terms: the n! weights
    # of S_12 would take 7.7 GB.
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
        lambda: decompose_unitary(haar_unitary(16, 0)),
        lambda: decompose_xu(random_xu(16, 0)),
    ],
    ids=["unitary", "xu-auto"],
)
def test_full_support_n16_refused_before_any_product(decompose):
    # The smallest composite n refused at full support: levels 16, 15 and
    # 14 stand over the bottom block XU(13), whose 156 terms bound level
    # 14 by 30 576 terms and level 15 by 6 879 600, so level 16's first
    # product could take 16 * 6 879 600 pairs. The bound refuses it after
    # the scaling, before any product runs.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(UnsupportedDimensionError, match="level 16.*110073600 pairs"):
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


def _plan_rows(n):
    """Row sets of size n - 1 that a level of size n folds over: all of
    S_(n-1), the rows of AGL(1, n - 1) where n - 1 is prime, and one
    permutation."""
    one = np.random.default_rng(n).permutation(n - 1)[None].astype(np.int8)
    agl = [supercirculant_images(n - 1)] if is_prime(n - 1) else []
    return [one, lex_images(n - 1), *agl]


def _perms_of(rows):
    return [Permutation(tuple(r)) for r in (rows.astype(int) + 1).tolist()]


def _plans(n):
    """The coset plans of a level of size n over every row set of
    ``_plan_rows`` and a few shift sets, each with its image rows put in
    cell order."""
    for rows in _plan_rows(n):
        for k in (np.arange(n), np.array([0, n - 1]), np.array([1])):
            cells, images, order = _coset_plan(n, rows, k)
            at = np.empty_like(order)
            at[order] = np.arange(len(order))
            yield rows, k, cells, images, order, images[at]


@pytest.mark.parametrize("n", range(3, 9))
def test_level_tables_cover_s_n_once(n):
    for rows, k, cells, images, order, _ in _plans(n):
        assert cells.shape == (len(rows), len(k))
        # Every pair has a cell of its own, since distinct rows below give
        # distinct products, and every cell has one sorted row.
        assert len(np.unique(cells)) == cells.size
        assert np.array_equal(np.sort(order), np.arange(len(order)))
        assert _lexsorted(images)
    # Over all of S_(n-1) and every shift the pairs are all of S_n, once.
    cells, images, _ = _coset_plan(n, lex_images(n - 1), np.arange(n))
    assert np.array_equal(np.sort(cells, axis=None), np.arange(math.factorial(n)))
    assert np.array_equal(images, lex_images(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_coset_table_shifts(n):
    # Cell g n + b holds "apply 1 (+) rho_g, then c_b", and cell g n is
    # 1 (+) rho_g itself, the rho_g in lexicographic order.
    shifts = _perms_of(shift_images(n))
    for *_, by_row in _plans(n):
        rho = by_row[::n]
        assert not rho[:, 0].any() and _lexsorted(rho)
        c = np.arange(len(by_row))
        assert np.array_equal(by_row, (by_row[c - c % n] + (c % n)[:, None]) % n)
        by_cell = _perms_of(by_row)
        for c, perm in enumerate(by_cell):
            assert perm == compose(by_cell[c - c % n], shifts[c % n])


@pytest.mark.parametrize("n", range(3, 9))
def test_level_tables_compose_as_documented(n):
    # The pair (k[i], j) at cells[j, i] is "apply c_k, then 1 (+) sigma_j".
    shifts = _perms_of(shift_images(n))
    for rows, k, cells, *_, by_row in _plans(n):
        by_cell = _perms_of(by_row)
        lifted = [Permutation((1, *(r + 2 for r in sigma))) for sigma in rows.tolist()]
        for sigma, row_cells in zip(lifted, cells.tolist()):
            for shift, cell in zip(k.tolist(), row_cells):
                assert compose(shifts[shift], sigma) == by_cell[cell]


def _lexsorted(rows):
    rows = rows.astype(int).tolist()
    return all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_agl_plan_is_the_coset_plan_of_its_rows(p):
    for k in ((0, 1), tuple(range(p + 1))):
        plan = _agl_plan(p + 1, k)
        want = _coset_plan(p + 1, supercirculant_images(p), np.array(k))
        for got, table in zip(plan, want):
            assert np.array_equal(got, table)
            assert not got.flags.writeable
        assert _agl_plan(p + 1, k) is plan


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 7), st.integers(0, 2**32 - 1))
def test_tolerances_do_not_compound_with_depth(n, seed):
    x = random_xu(n, seed)
    s = decompose_recursive(x)
    assert np.abs(s.reconstruct() - x).max() <= 1e-9
    assert abs(s.sq_moduli_sum() - 1.0) <= 1e-9


@pytest.mark.parametrize("n", range(3, 10))
def test_squared_moduli_sum_to_one_at_rounding_level(n):
    # The bottom block is not scaled: its weights over AGL(1, p) are exact,
    # so it does not carry the scaling residual.
    # Scaling it once left |sum |m|^2 - 1| at 1.9e-11.
    for seed in range(4):
        s = decompose_recursive(random_xu(n, seed))
        assert abs(s.sq_moduli_sum() - 1.0) <= 1e-14


PRIMES = [p for p in range(2, 32) if is_prime(p)]


def _agl_reference(x):
    """(image rows, weights) of m_h = [h = e] + (1/p) sum_k (X - I)[k, h(k)]
    over the supercirculants h = C[l,x], built one at a time, in
    lexicographic order."""
    p = len(x)
    d = x - np.eye(p)
    terms = []
    for l in range(1, p + 1):
        for pitch in range(1, p):
            h = supercirculant_perm(p, SupercirculantLabel(l, pitch))
            h = np.subtract(h.image, 1)
            g = sum(d[k, h[k]] for k in range(p))
            terms.append((h.tolist(), (l, pitch) == (1, 1), g))
    terms.sort()
    return [t[0] for t in terms], np.array([e + g / p for _, e, g in terms])


def _check_agl_weights(x):
    p = len(x)
    images, m = _bottom(x)
    want_images, want = _agl_reference(x)
    assert np.array_equal(images, want_images)
    assert np.abs(m - want).max() <= 1e-15
    s = WeightedPermSum._trusted(p, images, m)
    assert np.abs(s.reconstruct() - x).max() <= 1e-14
    assert abs(m.sum() - 1.0) <= 1e-14
    assert abs(s.sq_moduli_sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("p", PRIMES)
def test_agl_weights_reconstruct_with_both_sums_one(p):
    for seed in range(3):
        _check_agl_weights(random_xu(p, seed))
    assert _bottom(random_xu(p, 0))[0] is supercirculant_images(p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES), st.integers(0, 2**32 - 1))
def test_agl_weights_over_seeds(p, seed):
    _check_agl_weights(random_xu(p, seed))


@pytest.mark.parametrize("p", PRIMES)
def test_agl_weights_of_the_identity_are_one_term(p):
    images, m = _bottom(np.eye(p, dtype=complex))
    assert np.count_nonzero(m) == 1
    assert m[0] == 1 and np.array_equal(images[0], np.arange(p))


@pytest.mark.parametrize("p", PRIMES)
def test_permutation_block_is_one_term(p):
    # Over AGL(1, p) a permutation matrix would spread over many terms,
    # whether or not it lies in the group. The engine's blocks carry
    # rounding in their zero entries, hence the 1e-16 everywhere.
    rng = np.random.default_rng(p)
    for perm in (rng.permutation(p), np.roll(np.arange(p), 1)[::-1]):
        x = np.eye(p)[perm] + 1e-16
        images, m = _bottom(x.astype(complex))
        assert np.array_equal(images, [perm]) and np.array_equal(m, [1])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16])
def test_permutation_matrix_gives_its_one_term(n):
    # Also at n = 16, where full support is refused.
    perm = np.random.default_rng(n).permutation(n)
    s = decompose_recursive(np.eye(n)[perm])
    assert np.array_equal(s.images, [perm])
    assert abs(s.weights[0] - 1) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_agl_weights_are_unitary_in_the_group_algebra(p):
    # m* m = e: the coefficient of m* m at q, sum over h of
    # conj(m_h) m_(h then q), is 1 at the identity and 0 elsewhere.
    for seed in range(3):
        images, m = _bottom(random_xu(p, seed))
        index = {tuple(r): j for j, r in enumerate(images.tolist())}
        for q in images:
            then_q = [index[tuple(q[h])] for h in images]
            want = 1.0 if np.array_equal(q, np.arange(p)) else 0.0
            assert abs(np.vdot(m, m[then_q]) - want) <= 1e-14


# The levels XU(n) scales, one call each: n, n - 1, ..., down to the first
# level m whose middle block has prime size m - 1, and none at prime n.
SCALED_LEVELS = {
    3: 0, 4: 1, 5: 0, 6: 1, 7: 0, 8: 1, 9: 2, 10: 3, 11: 0, 12: 1, 13: 0, 14: 1
}


@pytest.mark.parametrize("n", SCALED_LEVELS)
def test_engine_scales_only_the_levels_above_the_prime_block(n):
    # XU(12) and XU(14) stand over the bottom blocks XU(11) and XU(13).
    x = random_xu(n, n)
    spy = mock.Mock(wraps=birkhoff.zxz_scale)
    with mock.patch.object(birkhoff, "zxz_scale", spy):
        s = decompose_recursive(x)
    assert spy.call_count == SCALED_LEVELS[n]
    # The scaled cores have sizes n - 1, n - 2, ..., and only the last,
    # the middle block of the lowest level, has prime size.
    sizes = [len(call.args[0]) for call in spy.call_args_list]
    assert sizes == list(range(n - 1, n - 1 - SCALED_LEVELS[n], -1))
    assert [is_prime(k) for k in sizes] == [False] * (len(sizes) - 1) + [True] * (
        len(sizes) > 0
    )
    assert verify(s, x).ok
    assert abs(s.sq_moduli_sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n", PRIMES)
def test_prime_input_is_its_own_bottom_block(n):
    # No level is scaled: the sum is the input's weights over AGL(1, n), on
    # the cached rows themselves.
    x = random_xu(n, n)
    spy = mock.Mock(wraps=birkhoff.zxz_scale)
    with mock.patch.object(birkhoff, "zxz_scale", spy):
        s = decompose_xu(x, method="recursive")
    assert spy.call_count == 0
    images, weights = _bottom(x)
    assert s.images is images is supercirculant_images(n)
    assert np.array_equal(s.weights, weights)
    assert np.abs(s.reconstruct() - x).max() <= 1e-15
    assert abs(s.sq_moduli_sum() - 1.0) <= 1e-15


def _sign(rows):
    """The sign of each 0-based image row, by counting its inversions."""
    return np.array(
        [(-1) ** sum(a > b for a, b in itertools.combinations(r, 2)) for r in rows.tolist()]
    )


@pytest.mark.parametrize("seed", range(20))
def test_xu3_at_p1_is_the_recursive_engine_bit_for_bit(seed):
    # Both read the weights over AGL(1,3) = S_3.
    x = random_xu(3, seed)
    got, want = decompose_xu3(x, p=1), decompose_recursive(x)
    assert len(want) == 6
    assert np.array_equal(got.images, want.images)
    assert np.array_equal(got.weights, want.weights)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_xu3_family_moves_along_the_sign(seed, p):
    x = random_xu(3, seed)
    base = decompose_xu3(x, p=1)
    s = decompose_xu3(x, p=p)
    assert np.array_equal(s.images, base.images)
    want = (p - 1) / 3 * _sign(s.images)
    assert np.abs(s.weights - base.weights - want).max() <= 1e-15
