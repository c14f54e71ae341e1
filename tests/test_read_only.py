"""Every per-n table is shared by all of its callers, so each is cached for
64 sizes and is read-only together with every array it views; and no sum
the package returns lets a caller write through a base into such a table
or into another sum."""

import math

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
from xubirkhoff.birkhoff import _level_maps
from xubirkhoff.numerics import _dft_matrix
from xubirkhoff.permutations import (
    _circulant_index,
    _level_tables,
    _prime_rows,
    d_images,
    lex_images,
    shift_images,
    supercirculant_images,
)
from xubirkhoff.scaling import _normal_constants

TABLES = {
    _dft_matrix: (1, 2, 5, 8),
    lex_images: (1, 2, 4, 6),
    shift_images: (2, 5, 9),
    d_images: (3, 5, 9),
    supercirculant_images: (2, 3, 5, 13),
    _prime_rows: (5, 7, 13),
    _level_tables: (3, 4, 6),
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
    table = build(n)
    assert build(n) is table
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


@pytest.mark.parametrize("n", [6, 8])
def test_dense_sum_shares_the_cached_table(n):
    # No weight of a random XU(n) is pruned, so the recursive engine's sum
    # wraps the cached rows of S_n themselves instead of a copy of them.
    x = random_xu(n, 3)
    s = decompose_recursive(x)
    assert s.images is lex_images(n) and len(s) == math.factorial(n)
    for a in (s.images, s.weights):
        assert_read_only_to_its_base(a)
    assert verify(s, x).ok


@pytest.mark.parametrize(
    "x",
    [random_circulant_xu(6, 1), np.eye(6)[[3, 0, 5, 1, 4, 2]]],
    ids=["circulant", "permutation"],
)
def test_pruned_dense_sum_copies_its_rows(x):
    s = decompose_recursive(x)
    table = lex_images(6)
    assert len(s) < len(table) and not np.shares_memory(s.images, table)
    for a in (s.images, s.weights):
        assert_read_only_to_its_base(a)
    assert verify(s, x).ok
