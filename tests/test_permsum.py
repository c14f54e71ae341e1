"""Property tests for the array-backed permutation sums."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    ComplexPermSum,
    ComplexPermTerm,
    DimensionError,
    NotAPermutationError,
    Permutation,
    UnsupportedDimensionError,
    WeightedPermSum,
    compose,
    decompose_prime,
    decompose_unitary,
    haar_unitary,
    perm_sum_from_json,
    perm_sum_to_json,
    product,
    random_xu,
)
from xubirkhoff.numerics import dumps_json, max_abs_diff
from xubirkhoff.permutations import lex_images

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

parts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
weights = st.builds(complex, parts, parts)


def perms(n):
    return st.permutations(range(1, n + 1)).map(lambda image: Permutation(tuple(image)))


def term_lists(n, max_size=12):
    """Lists of (permutation, weight) pairs, duplicates allowed."""
    return st.lists(st.tuples(perms(n), weights), min_size=1, max_size=max_size)


@st.composite
def sized_term_lists(draw, sizes=st.integers(1, 6)):
    n = draw(sizes)
    return n, draw(term_lists(n))


@st.composite
def sum_pairs(draw):
    n = draw(st.integers(1, 6))
    return (
        WeightedPermSum(n, draw(term_lists(n))),
        WeightedPermSum(n, draw(term_lists(n))),
    )


def reference_product(a, b):
    """The loop the array product replaces: every pair, composed and added
    in (a, b) nesting order."""
    out = {}
    for p, wp in a.items():
        for q, wq in b.items():
            r = compose(p, q)
            out[r] = out.get(r, 0.0) + wp * wq
    return sorted(out.items(), key=lambda t: t[0].image)


@PROPERTY
@given(sum_pairs())
def test_product_reconstructs_matrix_product(pair):
    a, b = pair
    ab = product(a, b)
    assert max_abs_diff(ab.reconstruct(), a.reconstruct() @ b.reconstruct()) < 1e-12


@PROPERTY
@given(sum_pairs())
def test_product_matches_pairwise_loop(pair):
    a, b = pair
    got = product(a, b).items()
    want = reference_product(a, b)
    assert [p for p, _ in got] == [p for p, _ in want]
    assert max(abs(w - v) for (_, w), (_, v) in zip(got, want)) < 1e-12


@PROPERTY
@given(sized_term_lists(sizes=st.integers(1, 20)))
def test_items_strictly_lexicographic_and_merged(case):
    n, terms = case
    s = WeightedPermSum(n, terms)
    images = [p.image for p, _ in s.items()]
    assert all(x < y for x, y in zip(images, images[1:]))
    assert set(images) == {p.image for p, _ in terms}
    for p in {p for p, _ in terms}:
        want = sum(w for q, w in terms if q == p)
        assert abs(s[p] - want) < 1e-12
        assert p in s


@PROPERTY
@given(sized_term_lists(), st.floats(0.0, 2.0))
def test_pruned_drops_exactly_small_weights(case, eps):
    n, terms = case
    s = WeightedPermSum(n, terms, engine="e")
    t = s.pruned(eps)
    assert t.items() == [(p, w) for p, w in s.items() if abs(w) > eps]
    assert t.engine == "e"


@PROPERTY
@given(sized_term_lists())
def test_json_round_trip_exact(case):
    n, terms = case
    s = WeightedPermSum(n, terms, engine="e")
    t = perm_sum_from_json(json.loads(dumps_json(perm_sum_to_json(s))))
    assert isinstance(t, WeightedPermSum)
    assert t.engine == "e"
    assert t.items() == s.items()


@PROPERTY
@given(sized_term_lists(), st.data())
def test_complex_json_round_trip_exact(case, data):
    n, terms = case
    phases = st.lists(
        st.floats(-np.pi, np.pi).map(lambda a: complex(np.exp(1j * a))),
        min_size=n,
        max_size=n,
    )
    cs = ComplexPermSum(
        n, [ComplexPermTerm(p, tuple(data.draw(phases)), w) for p, w in terms]
    )
    t = perm_sum_from_json(json.loads(dumps_json(perm_sum_to_json(cs))))
    assert isinstance(t, ComplexPermSum)
    assert t.terms == cs.items_sorted()
    images = [term.perm.image for term in t.terms]
    assert images == sorted(images)


@PROPERTY
@given(sized_term_lists())
def test_complex_sum_keeps_given_order(case):
    n, terms = case
    given_terms = [ComplexPermTerm(p, (1j,) * n, w) for p, w in terms]
    cs = ComplexPermSum(n, given_terms, engine="e")
    assert cs.terms == given_terms
    assert cs.items_sorted() == sorted(given_terms, key=lambda t: t.perm.image)
    assert cs == ComplexPermSum(n, given_terms, engine="e")
    assert cs != ComplexPermSum(n, given_terms, engine="other")


def test_complex_sum_equality_sees_order():
    p, q = Permutation((2, 1)), Permutation((1, 2))
    terms = [ComplexPermTerm(p, (1.0, 1.0), 0.5), ComplexPermTerm(q, (1.0, 1.0), 0.5)]
    assert ComplexPermSum(2, terms).terms == terms
    assert ComplexPermSum(2, terms) != ComplexPermSum(2, terms[::-1])


@pytest.mark.parametrize("kind", ["plain", "complex"])
def test_json_round_trip_compares_equal(kind):
    from xubirkhoff import decompose_unitary, decompose_xu, haar_unitary, random_xu

    if kind == "plain":
        s = decompose_xu(random_xu(5, 1))
    else:
        s = decompose_unitary(haar_unitary(5, 1))
    t = perm_sum_from_json(json.loads(dumps_json(perm_sum_to_json(s))))
    assert t is not s
    assert t == s and not t != s
    t.engine = "other"
    assert t != s


@pytest.mark.parametrize("obj", [{"terms": []}, {"n": 2}, [], None])
def test_from_json_needs_n_and_terms(obj):
    with pytest.raises(ValueError, match="'n' and 'terms'"):
        perm_sum_from_json(obj)


def test_plain_and_complex_sums_never_equal():
    s = WeightedPermSum(2, [(Permutation((1, 2)), 1.0)])
    cs = ComplexPermSum(2, [ComplexPermTerm(Permutation((1, 2)), (1.0, 1.0), 1.0)])
    assert np.array_equal(s.reconstruct(), cs.reconstruct())
    assert s != cs and cs != s
    assert s == WeightedPermSum(2, [(Permutation((1, 2)), 1.0)])
    for x in (s, cs):
        with pytest.raises(TypeError):
            hash(x)


def test_sizes_must_agree():
    # A term, a lookup or an assignment of another size than the sum's.
    small = Permutation((2, 1))
    with pytest.raises(DimensionError, match="term size 2 does not match sum size 3"):
        WeightedPermSum(3, [(small, 1.0)])
    s = WeightedPermSum(3, [(Permutation((1, 3, 2)), 0.5)])
    assert s[small] == 0.0 and small not in s
    with pytest.raises(DimensionError, match="term size 2 does not match sum size 3"):
        s.add(small, 1.0)
    cs = ComplexPermSum(3)
    for term in (
        ComplexPermTerm(small, (1.0, 1.0), 1.0),
        ComplexPermTerm(Permutation((1, 3, 2)), (1.0, 1.0), 1.0),
    ):
        with pytest.raises(DimensionError, match="sum size 3"):
            cs.terms = [term]
    assert cs.term_count == 0


def test_repr_names_type_size_terms_and_engine():
    s = WeightedPermSum(3, [(Permutation((1, 3, 2)), 0.5)], engine="xu3")
    assert repr(s) == "WeightedPermSum(n=3, terms=1, engine='xu3')"
    assert repr(ComplexPermSum(2)) == "ComplexPermSum(n=2, terms=0, engine='')"


@pytest.mark.parametrize("obj", [None, [], {"n": 2, "terms": []}, np.eye(2)])
def test_to_json_needs_a_sum(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        perm_sum_to_json(obj)


def test_complex_terms_assignment_replaces_terms():
    t = ComplexPermTerm(Permutation((2, 1)), (1.0, -1.0), 0.5)
    cs = ComplexPermSum(2)
    cs.terms = [t, t]
    assert cs.terms == [t, t]
    assert cs.term_count == 2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(16, 20).flatmap(lambda n: st.tuples(term_lists(n, 5), term_lists(n, 5))))
def test_product_above_key_range_matches_loop(pair):
    n = pair[0][0][0].n
    a, b = WeightedPermSum(n, pair[0]), WeightedPermSum(n, pair[1])
    got = product(a, b).items()
    want = reference_product(a, b)
    assert [p for p, _ in got] == [p for p, _ in want]
    assert max(abs(w - v) for (_, w), (_, v) in zip(got, want)) < 1e-12


@pytest.mark.parametrize("n", range(2, 16))
def test_product_key_digits_do_not_wrap(n):
    """Every image digit up to n - 1 at every place value, so a key digit
    computed in a narrower integer type than the key would wrap."""
    rng = np.random.default_rng(n)
    rows = np.array([rng.permutation(n) for _ in range(2 * n)])
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n
    a = WeightedPermSum.from_arrays(n, rows, rng.normal(size=2 * n))
    b = WeightedPermSum.from_arrays(n, shifts, rng.normal(size=n))
    for x, y in ((a, b), (b, a), (a, a)):
        got = product(x, y).items()
        want = reference_product(x, y)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert max(abs(w - v) for (_, w), (_, v) in zip(got, want)) < 1e-12


def test_arrays_are_read_only():
    s = WeightedPermSum(3, [(Permutation((2, 1, 3)), 1.0)])
    with pytest.raises(ValueError):
        s.weights[0] = 2.0
    with pytest.raises(ValueError):
        s.images[0, 0] = 1


def test_from_arrays_rejects_non_bijection():
    with pytest.raises(NotAPermutationError):
        WeightedPermSum.from_arrays(3, [[0, 0, 1]], [1.0])


@pytest.mark.parametrize(
    "images, weights, phases, error, match",
    [
        ([0, 1, 2], [1.0], None, DimensionError, r"shape \(k, 3\)"),
        ([[0, 1, 2, 3]], [1.0], None, DimensionError, r"shape \(k, 3\)"),
        (np.array([[0.0, 1.0, 2.0]]), [1.0], None, TypeError, "integers"),
        ([[0, 1, 2]], [1.0, 2.0], None, DimensionError, "1 image rows, 2 weights"),
        ([[0, 1, 2]], [1.0], np.ones((1, 2)), DimensionError, r"phases \(1, 2\)"),
    ],
)
def test_from_arrays_rejects_bad_arrays(images, weights, phases, error, match):
    with pytest.raises(error, match=match):
        if phases is None:
            WeightedPermSum.from_arrays(3, images, weights)
        else:
            ComplexPermSum.from_arrays(3, images, weights, phases)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, 0.0)]
IDENTITY = Permutation((1, 2, 3))
SWAP = Permutation((2, 1, 3))


def _complex_terms(weight=1.0, phase=1.0):
    return [
        ComplexPermTerm(IDENTITY, (1.0, 1j, -1.0), 0.5),
        ComplexPermTerm(SWAP, (1.0, phase, 1.0), weight),
    ]


# Each way a caller builds or changes a sum refuses a non-finite weight or
# phase by name, as ``perm_sum_from_json`` does, instead of leaving
# ``verify`` and ``reconstruct`` to meet it.
BUILDS = {
    "from_arrays-weights": (
        "weights",
        lambda z: WeightedPermSum.from_arrays(3, [[0, 1, 2], [1, 0, 2]], [0.5, z]),
    ),
    "complex-from_arrays-weights": (
        "weights",
        lambda z: ComplexPermSum.from_arrays(3, [[0, 1, 2]], [z], np.ones((1, 3))),
    ),
    "complex-from_arrays-phases": (
        "phases",
        lambda z: ComplexPermSum.from_arrays(3, [[0, 1, 2]], [1.0], [[1.0, z, 1.0]]),
    ),
    "terms": ("weights", lambda z: WeightedPermSum(3, [(IDENTITY, 0.5), (SWAP, z)])),
    "add": ("weight", lambda z: WeightedPermSum(3, [(IDENTITY, 0.5)]).add(SWAP, z)),
    "complex-terms-weights": ("weights", lambda z: ComplexPermSum(3, _complex_terms(weight=z))),
    "complex-terms-phases": ("phases", lambda z: ComplexPermSum(3, _complex_terms(phase=z))),
}


@pytest.mark.parametrize("z", NON_FINITE, ids=repr)
@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_constructors_refuse_non_finite_values(build, z):
    field, make = build
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        make(z)


@pytest.mark.parametrize("field", ["weight", "phase"])
def test_terms_setter_refuses_non_finite_and_keeps_the_sum(field):
    s = ComplexPermSum(3, _complex_terms())
    before = s.terms
    bad = _complex_terms(**{field: complex(np.nan, 0.0)})
    with pytest.raises(ValueError, match=f"{field}s must be finite"):
        s.terms = bad
    assert s.terms == before


def test_add_refuses_non_finite_and_keeps_the_sum():
    s = WeightedPermSum(3, [(IDENTITY, 0.5)])
    with pytest.raises(ValueError, match="weight must be finite"):
        s.add(SWAP, np.inf)
    assert s.items() == [(IDENTITY, 0.5)]


# Finite weights whose sum or product leaves the float range: each entry
# point that merges or multiplies refuses the result instead of storing inf.
OVERFLOWS = {
    "from_arrays": lambda: WeightedPermSum.from_arrays(
        3, [[1, 0, 2], [1, 0, 2]], [1e308, 1e308]
    ),
    "terms": lambda: WeightedPermSum(3, [(SWAP, 1e308), (SWAP, 1e308)]),
    "add": lambda: WeightedPermSum(3, [(SWAP, 1e308)]).add(SWAP, 1e308),
    "from_json": lambda: perm_sum_from_json(
        {"n": 3, "terms": [{"perm": [2, 1, 3], "weight": [-1e308, 0.0]}] * 2}
    ),
    "imaginary": lambda: WeightedPermSum(3, [(SWAP, 1e308j), (SWAP, 1e308j)]),
}


@pytest.mark.parametrize("make", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_merged_weights_past_the_float_range_refused(make):
    with pytest.raises(ValueError, match="^summed weights must be finite$"):
        make()


@pytest.mark.parametrize("wa, wb", [(1e200, 1e200), (1e200j, 1e200j), (1e300, -1e10)])
def test_product_weights_past_the_float_range_refused(wa, wb):
    a = WeightedPermSum(3, [(SWAP, wa)])
    b = WeightedPermSum(3, [(IDENTITY, wb)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^product weights must be finite$"):
            product(a, b)


def test_complex_pruned_keeps_phases_and_order():
    images = [[2, 0, 1], [0, 1, 2], [1, 0, 2]]
    phases = np.exp(1j * np.arange(9).reshape(3, 3))
    s = ComplexPermSum.from_arrays(3, images, [0.5, 1e-12, -0.25j], phases, "e")
    p = s.pruned(1e-9)
    assert p.engine == "e" and len(p) == 2
    assert np.array_equal(p.images, s.images[[0, 2]])
    assert np.array_equal(p.weights, s.weights[[0, 2]])
    assert np.array_equal(p.phases, s.phases[[0, 2]])
    assert max_abs_diff(p.reconstruct(), s.reconstruct()) < 1e-11


@pytest.mark.parametrize(
    "make",
    [
        lambda: decompose_prime(random_xu(13, 0)),
        lambda: decompose_unitary(haar_unitary(5, 1)),
    ],
    ids=["weighted", "complex"],
)
def test_pruned_without_drops_shares_the_arrays(make):
    # No weight of either sum is under 1e-14, so the pruned sum wraps the
    # same read-only arrays in a new sum, whose engine label is its own.
    s = make()
    t = s.pruned(1e-14)
    assert t is not s and len(t) == len(s)
    arrays = ["images", "weights"] + (["phases"] if hasattr(s, "phases") else [])
    for name in arrays:
        a, b = getattr(s, name), getattr(t, name)
        assert np.shares_memory(a, b)
        view = b
        while isinstance(view, np.ndarray):
            assert not view.flags.writeable
            view = view.base
    engine = s.engine
    t.engine = "other"
    assert s.engine == engine
    assert s.pruned(1e-14) == s
    dropped = s.pruned(float(np.abs(s.weights).min()))
    assert len(dropped) < len(s)
    assert not np.shares_memory(dropped.weights, s.weights)


def test_sums_above_n127_use_int32_images():
    n = 128
    rng = np.random.default_rng(5)
    k = np.arange(n)
    a = WeightedPermSum.from_arrays(
        n, [np.roll(k, 1), rng.permutation(n)], [0.5 + 0.5j, -0.25]
    )
    b = WeightedPermSum.from_arrays(
        n, [k, rng.permutation(n), np.roll(k, -3)], [1.0, 2j, 0.5]
    )
    assert a.images.dtype == np.int32
    ab = product(a, b)
    assert ab.images.dtype == np.int32 and len(ab) == 6
    want = a.reconstruct() @ b.reconstruct()
    assert max_abs_diff(ab.reconstruct(), want) < 1e-12
    back = perm_sum_from_json(json.loads(dumps_json(perm_sum_to_json(ab))))
    assert back.images.dtype == np.int32
    assert np.array_equal(back.images, ab.images)
    assert np.array_equal(back.weights, ab.weights)
    c = ComplexPermSum.from_arrays(n, b.images, b.weights, np.full((3, n), 1j))
    back = perm_sum_from_json(json.loads(dumps_json(perm_sum_to_json(c))))
    assert back == c and back.images.dtype == np.int32


def test_from_arrays_copies_caller_arrays():
    images = np.array([[1, 0, 2]])
    weights = np.array([0.5 + 0j])
    phases = np.full((1, 3), 1j)
    s = ComplexPermSum.from_arrays(3, images, weights, phases)
    w = WeightedPermSum.from_arrays(3, images, weights)
    assert images.flags.writeable and weights.flags.writeable
    assert phases.flags.writeable
    assert not s.phases.flags.writeable and not s.weights.flags.writeable
    assert not w.images.flags.writeable and not w.weights.flags.writeable
    before = (s.images.copy(), s.weights.copy(), s.phases.copy(), s.reconstruct())
    before_w = (w.images.copy(), w.weights.copy(), w.reconstruct())
    images[0] = [2, 1, 0]
    weights[0] = 5.0
    phases[0, 0] = 5.0
    after = (s.images, s.weights, s.phases, s.reconstruct())
    after_w = (w.images, w.weights, w.reconstruct())
    for old, new in zip(before + before_w, after + after_w):
        assert np.array_equal(old, new)


def test_large_product_peak_memory():
    # all 40 320 permutations of 8 against the 8 cyclic shifts, both ways:
    # 322 560 pairs onto 40 320 terms
    n = 8
    rng = np.random.default_rng(0)
    images = np.array(list(itertools.permutations(range(n))))
    a = WeightedPermSum.from_arrays(
        n, images, rng.random(len(images)) + 1j * rng.random(len(images))
    )
    k = np.arange(n)
    b = WeightedPermSum.from_arrays(n, (k[:, None] + k) % n, rng.random(n) + 0j)
    for x, y in ((a, b), (b, a)):
        tracemalloc.start()
        try:
            xy = product(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(xy) == len(images)
        # np.unique on the pair keys plus a weight for every pair at once
        # peaked at 38-42 bytes per pair
        assert peak < 30 * len(x) * len(y)
        want = x.reconstruct() @ y.reconstruct()
        assert max_abs_diff(xy.reconstruct(), want) < 1e-9


def test_product_peak_memory_above_former_key_range():
    # 20 000 random permutations of 16 against the 16 cyclic shifts, both
    # ways: 320 000 pairs onto as many distinct terms
    n = 16
    rng = np.random.default_rng(0)
    images = np.argsort(rng.random((20000, n)), axis=1)
    a = WeightedPermSum.from_arrays(
        n, images, rng.random(len(images)) + 1j * rng.random(len(images))
    )
    k = np.arange(n)
    b = WeightedPermSum.from_arrays(n, (k[:, None] + k) % n, rng.random(n) + 0j)
    for x, y in ((a, b), (b, a)):
        tracemalloc.start()
        try:
            xy = product(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(xy) == len(x) * len(y)
        # merging the composed rows with a weight for every pair at once
        # peaked at 105 bytes per pair
        assert peak < 90 * len(x) * len(y)
        want = x.reconstruct() @ y.reconstruct()
        assert max_abs_diff(xy.reconstruct(), want) < 1e-9


def test_product_too_large_is_refused_up_front():
    # 10**8 pairs would peak near 8 GB; the refusal allocates nothing.
    n = 10
    rng = np.random.default_rng(0)
    a, b = (
        WeightedPermSum.from_arrays(
            n, np.argsort(rng.random((10_000, n)), axis=1), np.ones(10_000) + 0j
        )
        for _ in range(2)
    )
    pairs = len(a) * len(b)
    assert pairs > 9 * 10**7
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedDimensionError, match=f"{pairs} pairs"):
            product(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _random_rows(rng, n, k):
    if n == 8:  # every permutation of 8
        return np.array(list(itertools.permutations(range(n))))
    return np.argsort(rng.random((k, n)), axis=1)


@pytest.mark.parametrize("kind", ["plain", "complex"])
@pytest.mark.parametrize("n", [2, 5, 8, 13, 31])
def test_reconstruct_byte_identical_to_add_at(kind, n):
    rng = np.random.default_rng(n)
    images = _random_rows(rng, n, 200)
    w = rng.standard_normal(len(images)) + 1j * rng.standard_normal(len(images))
    if kind == "plain":
        s = WeightedPermSum.from_arrays(n, images, w)
        entries = np.broadcast_to(s.weights[:, None], s.images.shape)
    else:
        phases = np.exp(2j * np.pi * rng.random(images.shape))
        s = ComplexPermSum.from_arrays(n, images, w, phases)
        entries = s.weights[:, None] * s.phases
    assert s.reconstruct().tobytes() == _add_at_reference(s, entries).tobytes()


def _add_at_reference(s, entries):
    """The term-order reference for ``reconstruct``: ``entries[j, r]``
    added at (r, images[j, r]) of a zero matrix by ``np.add.at``, with
    intp indices."""
    want = np.zeros((s.n, s.n), dtype=complex)
    rows = np.broadcast_to(np.arange(s.n), s.images.shape)
    np.add.at(want, (rows, s.images.astype(np.intp)), entries)
    return want


@pytest.mark.parametrize("kind", ["plain", "complex"])
@pytest.mark.parametrize(
    "source, n",
    [("prime", 13), ("prime", 31), ("lex", 8), ("unitary", 6), ("unitary", 13)],
)
def test_reconstruct_of_package_rows_matches_add_at(source, n, kind):
    # The package stores these rows as int8, and at n >= 13 the cell index
    # r * n + image passes 127, where an int8 index wraps. The 961 terms at
    # n = 31 take two row blocks, and all of S_8 (40 320 terms) one block
    # per matrix row.
    rng = np.random.default_rng(n)
    if source == "prime":
        s = decompose_prime(random_xu(n, 1))
    elif source == "unitary":
        s = decompose_unitary(haar_unitary(n, 1))
    else:
        k = len(lex_images(n))
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        s = WeightedPermSum.from_arrays(n, lex_images(n), w)
    assert s.images.dtype == np.int8
    if kind == "plain" and isinstance(s, ComplexPermSum):
        s = WeightedPermSum.from_arrays(n, s.images, s.weights)
    elif kind == "complex" and isinstance(s, WeightedPermSum):
        phases = np.exp(2j * np.pi * rng.random(s.images.shape))
        s = ComplexPermSum.from_arrays(n, s.images, s.weights, phases)
    if kind == "plain":
        entries = np.broadcast_to(s.weights[:, None], s.images.shape)
    else:
        entries = s.weights[:, None] * s.phases
    assert s.reconstruct().tobytes() == _add_at_reference(s, entries).tobytes()
