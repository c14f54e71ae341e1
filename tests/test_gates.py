"""Tests for the integer gate on sizes, indices, seeds and counts, and for
the engine table behind ``decompose_xu`` and ``decompose_unitary``."""

import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    ComplexPermSum,
    DimensionError,
    Permutation,
    SampleSpec,
    ScalingOptions,
    SupercirculantLabel,
    UnsupportedDimensionError,
    WeightedPermSum,
    circulant_xu_decompose,
    classify,
    constant_line_sum_check,
    d_family,
    decompose_prime_parts,
    decompose_unitary,
    decompose_xu,
    detect_supercirculant,
    haar_unitary,
    is_prime,
    lexicographic_permutations,
    pitch,
    random_circulant_xu,
    random_xu,
    random_zu,
    root_of_unity,
    sample,
    shift_matrix,
    supercirculant_perm,
    transfer_block_dims,
    transfer_matrix,
    van_der_waerden,
    verify,
    zxz_scale,
)
from xubirkhoff import birkhoff
from xubirkhoff.birkhoff import METHODS
from xubirkhoff.numerics import (
    DEFAULT_TOL,
    check_int,
    dft_matrix,
    is_unitary,
    require_unitary,
    shift_relation_holds,
)
from xubirkhoff.xu_group import embed_core, extract_core, fourier_core, require_xu


LABEL = SupercirculantLabel(1, 1)


def _scaled(**opts):
    """The factorization of a fixed unitary under ``ScalingOptions(**opts)``;
    a diagonal input scales in one sweep."""
    return zxz_scale(np.diag(np.exp(1j * np.arange(4.0))), ScalingOptions(**opts))


# (name, call on the gated value, least accepted value, error)
GATES = [
    ("root_of_unity", lambda n: root_of_unity(n, 1), 1, DimensionError),
    ("dft_matrix", dft_matrix, 1, DimensionError),
    ("WeightedPermSum", WeightedPermSum, 1, DimensionError),
    ("ComplexPermSum", ComplexPermSum, 1, DimensionError),
    ("Permutation.identity", Permutation.identity, 1, DimensionError),
    (
        "lexicographic_permutations",
        lambda n: [*lexicographic_permutations(n)],
        1,
        DimensionError,
    ),
    ("supercirculant_perm", lambda n: supercirculant_perm(n, LABEL), 2, DimensionError),
    ("shift_matrix", shift_matrix, 2, DimensionError),
    ("d_family", d_family, 3, DimensionError),
    ("van_der_waerden", van_der_waerden, 1, DimensionError),
    ("SampleSpec", lambda n: sample(SampleSpec(n, "unitary", 1)), 1, DimensionError),
    ("haar_unitary", lambda n: haar_unitary(n, 1), 1, DimensionError),
    ("random_xu", lambda n: random_xu(n, 1), 2, DimensionError),
    ("random_zu", lambda n: random_zu(n, 1), 1, DimensionError),
    ("random_circulant_xu", lambda n: random_circulant_xu(n, 1), 1, DimensionError),
    ("transfer_matrix", lambda n: transfer_matrix(n, 1, 1), 2, DimensionError),
    ("transfer index r", lambda r: transfer_matrix(5, r, 2), 1, DimensionError),
    ("transfer index s", lambda s: transfer_matrix(5, 2, s), 1, DimensionError),
    ("pitch index r", lambda r: pitch(5, r, 2), 1, DimensionError),
    ("block index s", lambda s: transfer_block_dims(6, 1, s), 1, DimensionError),
    ("transfer_block_dims", lambda n: transfer_block_dims(n, 1, 1), 2, DimensionError),
    ("sample seed", lambda seed: sample(SampleSpec(3, "xu", seed)), 0, ValueError),
    ("haar_unitary seed", lambda seed: haar_unitary(3, seed), 0, ValueError),
    ("rng_seed", lambda k: _scaled(rng_seed=k), 0, ValueError),
]
IDS = [g[0] for g in GATES]


@pytest.mark.parametrize("name, call, least, error", GATES, ids=IDS)
@pytest.mark.parametrize("bad", ["below", 2.5, 3.0, True, "3"])
def test_gate_rejects(name, call, least, error, bad):
    value = least - 1 if bad == "below" else bad
    with pytest.raises(error, match="integer"):
        call(value)


@pytest.mark.parametrize("name, call, least, error", GATES, ids=IDS)
def test_numpy_integer_gives_identical_output(name, call, least, error):
    n = max(least, 3)
    assert pickle.dumps(call(np.int64(n))) == pickle.dumps(call(n))


NON_INTEGERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=1, max_value=8).map(np.float64),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.complex_numbers(max_magnitude=10),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_gate_rejects_anything_but_an_integer_at_least(data):
    _, call, least, error = data.draw(st.sampled_from(GATES))
    value = data.draw(st.one_of(st.integers(max_value=least - 1), NON_INTEGERS))
    with pytest.raises(error):
        call(value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    value=st.integers(-(10**20), 10**20),
    least=st.one_of(st.none(), st.integers(0, 3)),
)
def test_check_int_accepts_exactly_the_integers_at_least(value, least):
    for v in (value, np.int64(value) if abs(value) < 2**62 else value):
        if least is None or v >= least:
            got = check_int(v, least, "v")
            assert type(got) is int and got == value
        else:
            with pytest.raises(DimensionError, match=f"v must be .* got"):
                check_int(v, least, "v")


# (name, call on a tolerance) for every entry that takes one.
TOL_GATES = [
    ("require_unitary", lambda t: require_unitary(np.eye(3), t, "input")),
    ("require_xu", lambda t: require_xu(np.eye(3), t)),
    *(
        (method, lambda t, method=method, n=n: decompose_xu(random_xu(n, 1), method, tol=t))
        for method, n in [("xu2", 2), ("xu3", 3), ("xu4", 4), ("prime", 5), ("recursive", 6)]
    ),
    ("decompose_prime_parts", lambda t: decompose_prime_parts(random_xu(5, 1), t)),
    ("ScalingOptions", lambda t: ScalingOptions(tol=t)),
    ("zxz_scale", lambda t: zxz_scale(haar_unitary(3, 1), ScalingOptions(tol=t))),
    ("embed_core", lambda t: embed_core(np.eye(2), t)),
    ("extract_core", lambda t: extract_core(np.eye(3), t)),
    ("circulant_xu_decompose", lambda t: circulant_xu_decompose(np.eye(3), t)),
    ("classify", lambda t: classify(np.eye(3), t)),
    ("is_unitary", lambda t: is_unitary(np.eye(3), t)),
    ("shift_relation_holds", lambda t: shift_relation_holds(np.eye(3), 1, t)),
    ("detect_supercirculant", lambda t: detect_supercirculant(np.eye(3), t)),
    (
        "constant_line_sum_check",
        lambda t: constant_line_sum_check(circulant_xu_decompose(np.eye(3)), t),
    ),
    ("verify", lambda t: verify(WeightedPermSum(3), np.eye(3), t)),
]


@pytest.mark.parametrize("name, call", TOL_GATES, ids=[g[0] for g in TOL_GATES])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0, "1e-9", None, True])
def test_tolerance_gate_rejects(name, call, bad):
    # An infinite tol used to pass every membership check: a 4x4 arange
    # came back as a 24-term xu4 sum, was unitary, and had pitches (1, 1),
    # and an empty sum verified.
    with pytest.raises(ValueError, match="must be positive and finite"):
        call(bad)


@pytest.mark.parametrize("name, call", TOL_GATES, ids=[g[0] for g in TOL_GATES])
def test_tolerance_gate_accepts_a_positive_tol(name, call):
    call(1e-9)
    result = call(np.float64(1e-3))
    # A numpy tol must not turn a predicate's answer into a numpy.bool.
    if name in ("is_unitary", "shift_relation_holds"):
        assert type(result) is bool


def test_fourier_core_needs_two_rows():
    with pytest.raises(DimensionError, match="integer"):
        fourier_core(np.ones((1, 1), dtype=complex))


def test_dft_matrix_checks_before_its_cache():
    # 3.0 == 3 and True == 1 hash like the cached entries of 3 and 1.
    dft_matrix(3), dft_matrix(1)
    for n in (3.0, True, np.float64(3.0)):
        with pytest.raises(DimensionError):
            dft_matrix(n)
    assert dft_matrix(np.int64(3)) is dft_matrix(3)


def test_transfer_index_must_be_an_integer():
    with pytest.raises(DimensionError):
        transfer_matrix(5, 1.5, 2)
    with pytest.raises(DimensionError, match=r"1\.\.4"):
        transfer_matrix(5, 1, 5)


# Integer arguments with no least value: the prime test's n and the
# exponent of a root of unity.
UNBOUNDED = [
    ("is_prime", is_prime),
    ("pitch", lambda n: pitch(n, 1, 2)),
    ("root exponent", lambda a: root_of_unity(5, a)),
]


@pytest.mark.parametrize("name, call", UNBOUNDED, ids=[u[0] for u in UNBOUNDED])
@pytest.mark.parametrize("bad", [2.5, 7.0, 1.5, True, "7", None, np.float64(7.0)])
def test_unbounded_gate_rejects(name, call, bad):
    with pytest.raises(DimensionError, match="must be an integer, got"):
        call(bad)


@pytest.mark.parametrize("name, call", UNBOUNDED, ids=[u[0] for u in UNBOUNDED])
def test_unbounded_gate_takes_numpy_integers(name, call):
    assert pickle.dumps(call(np.int64(7))) == pickle.dumps(call(7))


def test_pitch_needs_a_prime_integer():
    # Integers below 2 are not prime, not a gate error.
    for n in (-5, 0, 1, 4, np.int64(6)):
        with pytest.raises(UnsupportedDimensionError, match="prime"):
            pitch(n, 1, 1)


class TestEngineTable:
    def test_methods_are_auto_and_the_engines(self):
        assert METHODS == ("auto", "xu2", "xu3", "xu4", "prime", "recursive")

    def _spy(self, monkeypatch):
        calls = []
        real = birkhoff.decompose_xu4

        def spy(a, tol):
            calls.append(tol)
            return real(a, tol)

        monkeypatch.setattr(birkhoff, "decompose_xu4", spy)
        return calls

    def test_decompose_xu_looks_the_engine_up_at_call_time(self, monkeypatch):
        calls = self._spy(monkeypatch)
        x = random_xu(4, 3)
        decompose_xu(x)
        decompose_xu(x, "xu4", tol=1e-9)
        assert calls == [DEFAULT_TOL, 1e-9]

    def test_decompose_unitary_looks_the_engine_up_at_call_time(self, monkeypatch):
        calls = self._spy(monkeypatch)
        s = decompose_unitary(haar_unitary(4, 3))
        assert calls == [1e-8]
        assert s.engine == "zxz+xu4"

    @pytest.mark.parametrize(
        "method, n",
        [("xu2", 2), ("xu3", 3), ("xu4", 4), ("prime", 5), ("recursive", 6)],
    )
    def test_unset_tol_leaves_the_engine_default(self, monkeypatch, method, n):
        # The default is DEFAULT_TOL for every engine, and ``decompose_xu``
        # hands its ``tol`` to the engine, the last positional argument.
        engine = "decompose_" + method
        real = getattr(birkhoff, engine)
        assert inspect.signature(real).parameters["tol"].default == DEFAULT_TOL
        calls = []

        def spy(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(birkhoff, engine, spy)
        x = random_xu(n, 1)
        assert decompose_xu(x, method).engine == method
        assert decompose_xu(x, method, tol=1e-9).engine == method
        assert calls == [DEFAULT_TOL, 1e-9]

    def test_unknown_method_is_value_error(self):
        with pytest.raises(ValueError, match="unknown method"):
            decompose_xu(random_xu(3, 1), "sinkhorn")
