"""Every cached table (per n, or per n and support for the recursive
engine's plans) is shared by all of its callers, so each is cached for 64
keys and is read-only together with every array it views; and no sum the
package returns lets a caller write through a base into such a table or
into another sum."""

from unittest import mock

import numpy as np
import pytest

from xubirkhoff import (
    circulant_xu_decompose,
    decompose_prime,
    decompose_prime_parts,
    decompose_recursive,
    decompose_unitary,
    decompose_xu2,
    decompose_xu3,
    decompose_xu4,
    haar_unitary,
    perm_sum_from_json,
    perm_sum_to_json,
    random_circulant_xu,
    random_xu,
    verify,
)
from xubirkhoff import birkhoff
from xubirkhoff.birkhoff import _level_maps, _levels
from xubirkhoff.numerics import _dft_matrix
from xubirkhoff.permutations import (
    _agl_plan,
    _circulant_index,
    _prime_rows,
    d_images,
    lex_images,
    shift_images,
    supercirculant_images,
)
from xubirkhoff.scaling import ScalingOptions, _normal_constants
from xubirkhoff.xu_group import is_prime

TABLES = {
    _dft_matrix: (1, 2, 5, 8),
    lex_images: (1, 2, 4, 6),
    shift_images: (2, 5, 9),
    d_images: (3, 5, 9),
    supercirculant_images: (2, 3, 5, 13),
    _prime_rows: (5, 7, 13),
    _agl_plan: (3, 4, 6, 8),
    _circulant_index: (2, 5, 9),
    _level_maps: (3, 4, 7),
    _normal_constants: (2, 3, 7),
}


def assert_read_only_to_its_base(a: np.ndarray) -> None:
    view = a
    while isinstance(view, np.ndarray):
        assert not view.flags.writeable
        view = view.base


@pytest.mark.parametrize(
    "build, n",
    [(build, n) for build, sizes in TABLES.items() for n in sizes],
    ids=lambda v: v.__name__ if callable(v) else str(v),
)
def test_tables_are_cached_and_read_only_to_their_base(build, n):
    assert build.cache_info().maxsize == 64
    # A plan is cached per size and support; this one over all n shifts.
    args = (n, tuple(range(n))) if build is _agl_plan else (n,)
    table = build(*args)
    assert build(*args) is table
    for a in table if isinstance(table, tuple) else (table,):
        assert_read_only_to_its_base(a)


def _json_round_trip(s):
    return perm_sum_from_json(perm_sum_to_json(s))


SUMS = {
    "xu2": lambda: decompose_xu2(random_xu(2, 0)),
    "xu3": lambda: decompose_xu3(random_xu(3, 0), p=0.3 + 0.2j),
    "xu4": lambda: decompose_xu4(random_xu(4, 0)),
    "prime-2": lambda: decompose_prime(random_xu(2, 1)),
    "prime-3": lambda: decompose_prime(random_xu(3, 1)),
    "prime-5": lambda: decompose_prime(random_xu(5, 1)),
    "recursive-1": lambda: decompose_recursive(np.eye(1)),
    "recursive-2": lambda: decompose_recursive(random_xu(2, 2)),
    "recursive-6": lambda: decompose_recursive(random_xu(6, 2)),
    "recursive-circulant-10": lambda: decompose_recursive(random_circulant_xu(10, 0)),
    "recursive-12": lambda: decompose_recursive(random_xu(12, 0)),
    "unitary-2": lambda: decompose_unitary(haar_unitary(2, 3)),
    "unitary-5": lambda: decompose_unitary(haar_unitary(5, 3)),
    "circulant": lambda: circulant_xu_decompose(random_circulant_xu(6, 4)),
    "prime-parts-c": lambda: decompose_prime_parts(random_xu(7, 5))[0],
    "prime-parts-d": lambda: decompose_prime_parts(random_xu(7, 5))[1],
    "json-weighted": lambda: _json_round_trip(decompose_xu4(random_xu(4, 6))),
    "json-complex": lambda: _json_round_trip(decompose_unitary(haar_unitary(3, 6))),
}


@pytest.mark.parametrize("make", SUMS.values(), ids=SUMS.keys())
def test_no_array_of_a_sum_has_a_writable_base(make):
    s = make()
    arrays = [s.images, s.weights]
    if hasattr(s, "phases"):
        arrays.append(s.phases)
    for a in arrays:
        assert_read_only_to_its_base(a)


def test_a_sum_cannot_write_into_the_table_it_shares():
    x = random_xu(4, seed=7)
    s = decompose_xu4(x)
    with pytest.raises(ValueError):
        s.images.base[:4] = s.images.base[4:8]
    assert verify(decompose_xu4(x), x).ok


def test_a_recursive_sum_cannot_write_into_its_cached_plan():
    # A random XU(6) keeps every cell of its one level, whose plan is
    # cached: the sum wraps the plan's rows.
    x = random_xu(6, seed=7)
    s = decompose_recursive(x)
    images, weights = s.images.copy(), s.weights.copy()
    view = s.images
    while isinstance(view, np.ndarray):
        with pytest.raises(ValueError):
            view[:4] = view[4:8]
        view = view.base
    again = decompose_recursive(x)
    assert again.images is s.images
    assert np.array_equal(again.images, images)
    assert np.array_equal(again.weights, weights)
    assert verify(again, x).ok


def test_a_first_level_over_the_bound_is_not_cached():
    # XU(18) folds one level over the 272 rows of AGL(1, 17): at full
    # support 18 * 18 * 272 = 88 128 cells may come out, over 2**16.
    before = _agl_plan.cache_info()
    x = random_xu(18, 0)
    s = decompose_recursive(x)
    assert _agl_plan.cache_info() == before
    assert len(s) == 77_796
    assert verify(s, x).ok


def _top_plan(x):
    """The recursive decomposition of ``x`` and the plan its top level
    folds through, cached or built per call."""
    plans = []

    def spy(build):
        def wrapped(*args):
            plans.append(build(*args))
            return plans[-1]

        return wrapped

    with mock.patch.object(birkhoff, "_agl_plan", spy(_agl_plan)), mock.patch.object(
        birkhoff, "_coset_plan", spy(birkhoff._coset_plan)
    ):
        s = decompose_recursive(x)
    return s, plans[-1]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_dense_sum_shares_the_cached_table(n):
    # The recursive engine's sum wraps a cached table when it keeps every
    # term, as a random input does. XU(5) and XU(7) are their own bottom
    # blocks, whose rows are those of AGL(1, n). At n = 4, 6 and 8 the top
    # level is the first, over the rows of AGL(1, n - 1), and its plan is
    # the cached one, with 24, 408 and 1 936 cells.
    x = random_xu(n, 3)
    if is_prime(n):
        s, rows = decompose_recursive(x), supercirculant_images(n)
    else:
        s, (_, rows, _) = _top_plan(x)
        (w1, _), = _levels(x.astype(complex), ScalingOptions())[0]
        assert rows is _agl_plan(n, tuple(np.flatnonzero(w1).tolist()))[1]
    assert len(s) == len(rows)
    assert s.images is rows
    for a in (s.images, s.weights):
        assert_read_only_to_its_base(a)
    assert verify(s, x).ok


# a I + (1 - a) c_3 with |a - 1/2| = 1/2: a circulant XU(6) of two terms.
_A = 0.6 + 0.24**0.5 * 1j
TWO_TERM_CIRCULANT = _A * np.eye(6) + (1 - _A) * np.roll(np.eye(6), 3, axis=1)


@pytest.mark.parametrize(
    "x",
    [TWO_TERM_CIRCULANT, np.eye(6)[[3, 0, 5, 1, 4, 2]]],
    ids=["circulant", "permutation"],
)
def test_pruned_dense_sum_copies_its_rows(x):
    # Each folds one level over its bottom block, one permutation, into
    # the 6 cells of one group, and keeps 2 and 1 of them.
    s, (_, rows, _) = _top_plan(x)
    assert len(s) < len(rows) and not np.shares_memory(s.images, rows)
    for a in (s.images, s.weights):
        assert_read_only_to_its_base(a)
    assert verify(s, x).ok
