"""Tests for roots of unity, the Fourier matrix, line sums, classification,
and the matrix JSON schema."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    DimensionError,
    MembershipError,
    classify,
    dft_matrix,
    haar_unitary,
    line_sums,
    matrix_from_json,
    matrix_to_json,
    random_xu,
    random_zu,
    root_of_unity,
    van_der_waerden,
)
from xubirkhoff.numerics import (
    dumps_json,
    is_unitary,
    json_array,
    json_complex,
    json_pairs,
    line_sum_spread,
    max_abs_diff,
    require_unitary,
)
from xubirkhoff.xu_group import require_xu


class TestRootOfUnity:
    def test_third_root_closed_form(self):
        assert abs(root_of_unity(3, 1) - (-0.5 + 1j * math.sqrt(3) / 2)) < 1e-15

    def test_fifth_root_closed_form(self):
        want = (math.sqrt(5) - 1) / 4 + 1j * math.sqrt(10 + 2 * math.sqrt(5)) / 4
        assert abs(root_of_unity(5, 1) - want) < 1e-15

    def test_zeroth_power_is_one(self):
        assert root_of_unity(4, 0) == 1.0

    def test_rejects_zero_order(self):
        with pytest.raises(DimensionError):
            root_of_unity(0, 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_exponents_add(self, n):
        for a in (-7, 0, 3, n, 5 * n + 2):
            for b in (-1, 2, n - 1):
                lhs = root_of_unity(n, a) * root_of_unity(n, b)
                assert abs(lhs - root_of_unity(n, a + b)) < 1e-14

    def test_large_exponent_reduced_exactly(self):
        # mod-n reduction keeps w^(k*n) at exactly 1 for huge k
        assert root_of_unity(7, 7 * 10**9) == root_of_unity(7, 0)


class TestDftMatrix:
    def test_n1_is_scalar_one(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_n3_display(self):
        w = root_of_unity(3, 1)
        want = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]]) / math.sqrt(3)
        assert max_abs_diff(dft_matrix(3), want) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 6, 13])
    def test_cached_read_only_formula(self, n):
        f = dft_matrix(n)
        k = np.arange(n)
        want = np.exp(2j * math.pi * (np.outer(k, k) % n) / n) / math.sqrt(n)
        assert np.array_equal(f, want)
        assert not f.flags.writeable
        assert dft_matrix(n) is f
        with pytest.raises(ValueError):
            f[0, 0] = 0.0

    @pytest.mark.parametrize("n", list(range(1, 33)))
    def test_unitary_up_to_32(self, n):
        f = dft_matrix(n)
        assert max_abs_diff(f.conj().T @ f, np.eye(n)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
    def test_root_orthogonality(self, n):
        # sum over l of w^((l-1)(t-s)) = n * delta(s,t), the identity behind
        # the prime-dimension weight formula
        for s in range(1, n):
            for t in range(1, n):
                acc = sum(
                    root_of_unity(n, (l - 1) * (t - s)) for l in range(1, n + 1)
                )
                want = n if s == t else 0.0
                assert abs(acc - want) < 1e-10


class TestLineSums:
    def test_identity(self):
        rows, cols = line_sums(np.eye(3))
        assert np.allclose(rows, 1.0) and np.allclose(cols, 1.0)

    def test_flat_matrix(self):
        rows, cols = line_sums(van_der_waerden(3))
        assert np.allclose(rows, 1.0) and np.allclose(cols, 1.0)

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionError):
            line_sums(np.ones((2, 3)))


class TestLineSumSpread:
    def test_largest_distance_over_rows_and_columns(self):
        rows = np.array([1.0, 1.0 + 2e-3j, 0.999])
        cols = np.array([1.0, 1.0, 1.0 - 3e-3])
        got = line_sum_spread(rows, cols)
        assert isinstance(got, float)
        assert got == pytest.approx(3e-3, rel=1e-12)
        # Each side is measured: the largest distance may sit in either.
        assert line_sum_spread(cols, rows) == got

    def test_value(self):
        rows, cols = line_sums(2j * np.eye(3))
        assert line_sum_spread(rows, cols, 2j) == 0.0
        assert line_sum_spread(rows, cols, 0.0) == 2.0
        assert line_sum_spread(rows, cols) == abs(2j - 1.0)


class TestRequireUnitary:
    def test_returns_complex_array(self):
        a = require_unitary([[0, 1], [1, 0]], 1e-12, "swap")
        assert a.dtype == complex
        assert np.array_equal(a, [[0, 1], [1, 0]])

    def test_names_the_input(self):
        with pytest.raises(MembershipError, match="^thing is not unitary at tolerance 1e-08$"):
            require_unitary(np.full((2, 2), 0.5), 1e-8, "thing")

    def test_tolerance_applies(self):
        a = np.diag([1.0, 1.0 + 1e-6])
        with pytest.raises(MembershipError):
            require_unitary(a, 1e-8, "input")
        assert require_unitary(a, 1e-5, "input") is not None

    def test_tolerance_edge(self):
        # |A^H A - I| is exactly 2^-19 + 2^-40 here (s^2 needs 41 bits):
        # the check passes at that tolerance and fails one ulp below it.
        s = 1 + 2.0**-20
        a = np.diag([1.0, s])
        deviation = 2.0**-19 + 2.0**-40
        assert is_unitary(a, deviation)
        assert require_unitary(a, deviation, "input") is not None
        below = np.nextafter(deviation, 0)
        assert not is_unitary(a, below)
        with pytest.raises(MembershipError):
            require_unitary(a, below, "input")


class TestClassify:
    def test_identity_flags(self):
        c = classify(np.eye(4))
        assert c.is_unitary and c.is_xu and c.is_zu and c.is_circulant
        assert abs(c.line_sum - 1.0) < 1e-15

    def test_diagonal_phases_zu_not_xu(self):
        c = classify(np.diag([1.0, np.exp(1.0j), np.exp(-0.5j)]))
        assert c.is_zu and not c.is_xu
        assert c.line_sum is None

    def test_embedded_core_is_xu(self):
        # build F diag(1, u) F^-1 by hand for a rotation u
        t = 0.83
        u = np.array(
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]],
            dtype=complex,
        )
        f = dft_matrix(3)
        d = np.zeros((3, 3), dtype=complex)
        d[0, 0] = 1.0
        d[1:, 1:] = u
        x = f @ d @ f.conj().T
        c = classify(x)
        assert c.is_xu and c.is_unitary
        assert abs(c.line_sum - 1.0) < 1e-12

    def test_xu_implies_unitary_and_unit_line_sum(self):
        from xubirkhoff import random_xu

        for seed in range(10):
            c = classify(random_xu(4, seed))
            assert c.is_xu
            assert c.is_unitary
            assert abs(c.line_sum - 1.0) <= 1e-10

    def test_xu_needs_every_line_sum_within_tol_of_one(self):
        # Row phases of up to 1.9e-10 move a row sum 1.9e-10 from 1, while
        # every sum stays within 1e-10 of the mean and the mean within
        # 1e-10 of 1: a rule through the mean admits sums 2 * tol from 1.
        t = np.array([0, 0.45, 0.9, 1.35, 1.9]) * 1e-10
        v = np.exp(1j * t)[:, None] * random_xu(5, 3)
        c = classify(v, 1e-10)
        assert c.is_unitary and not c.is_xu
        with pytest.raises(MembershipError):
            require_xu(v, 1e-10)

    @pytest.mark.parametrize(
        "m",
        [
            *(np.eye(n) for n in range(1, 5)),
            random_zu(3, 1),
            haar_unitary(3, 1),
            np.eye(4)[[2, 0, 3, 1]],
        ],
        ids=["eye1", "eye2", "eye3", "eye4", "zu3", "haar3", "perm4"],
    )
    def test_flags_are_python_bools(self, m):
        # An `and` chain ending in a NumPy comparison used to return
        # numpy.bool for a ZU matrix.
        c = classify(m)
        flags = (c.is_unitary, c.is_xu, c.is_zu, c.is_circulant, c.is_anticirculant)
        assert all(type(flag) is bool for flag in flags)

    def test_anticirculant_flag(self):
        a = np.array([[1, 2, 3], [2, 3, 1], [3, 1, 2]], dtype=complex)
        c = classify(a)
        assert c.is_anticirculant and not c.is_circulant

    def test_circulant_flag(self):
        a = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=complex)
        c = classify(a)
        assert c.is_circulant and not c.is_anticirculant

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            classify(np.eye(2), tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_tolerance_must_be_finite(self, tol):
        # A NaN tolerance used to pass and report every class as False.
        with pytest.raises(ValueError, match="tolerance"):
            classify(np.eye(2), tol=tol)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            classify(np.array([[np.nan, 0], [0, 1]], dtype=complex))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(2, 7),
    st.integers(0, 2**16),
    st.lists(st.floats(-1.0, 1.0), min_size=14, max_size=14),
    st.floats(-1.5, 1.5),
)
def test_classify_is_xu_iff_require_xu_passes(n, seed, angles, stretch):
    """Row and column phases of up to tol each, and a stretch that moves
    the Gram matrix up to 1.5 tol off the identity, put both the line sums
    and unitarity at the edge: in a sample of this input, about 13% are
    XU, 47% unitary but not XU, and 40% not unitary."""
    tol = 1e-10
    x = random_xu(n, seed)
    v = (
        np.exp(1j * tol * np.array(angles[:n]))[:, None]
        * x
        * np.exp(1j * tol * np.array(angles[7 : 7 + n]))
        * (1.0 + tol * stretch / 2)
    )
    try:
        require_xu(v, tol)
        passed = True
    except MembershipError:
        passed = False
    assert classify(v, tol).is_xu == passed


class TestMatrixJson:
    def test_round_trip_exact(self):
        from xubirkhoff import haar_unitary

        a = haar_unitary(5, seed=9)
        b = matrix_from_json(matrix_to_json(a))
        assert np.array_equal(a, b)

    def test_text_round_trip_exact(self):
        import json

        from xubirkhoff import haar_unitary

        a = haar_unitary(4, seed=2)
        text = dumps_json(matrix_to_json(a))
        b = matrix_from_json(json.loads(text))
        assert np.array_equal(a, b)

    def test_seventeen_digit_floats(self):
        text = dumps_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "entries": [[[1, 0]]]})
        with pytest.raises(ValueError):
            matrix_from_json({"entries": []})

    def test_negative_zero_survives(self):
        b = matrix_from_json({"dim": 1, "entries": [[[-0.0, -0.0]]]})
        assert np.signbit(b.real).all() and np.signbit(b.imag).all()

    @pytest.mark.parametrize("dim", [0, -2, 2.0, "2", 10**30])
    def test_bad_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim"):
            matrix_from_json({"dim": dim, "entries": [[[1.0, 0.0]] * 2] * 2})

    @pytest.mark.parametrize("part", [float("nan"), float("inf"), None])
    def test_non_finite_or_null_entry_rejected(self, part):
        with pytest.raises(ValueError, match="matrix entries"):
            matrix_from_json({"dim": 1, "entries": [[[part, 0.0]]]})

    def test_non_nested_entries_rejected(self):
        shape = r"matrix entries must have shape \(2, 2, 2\)"
        with pytest.raises(ValueError, match=shape):
            matrix_from_json({"dim": 2, "entries": 5})

    def test_bool_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            matrix_from_json({"dim": True, "entries": [[[1.0, 0.0]]]})

    @pytest.mark.parametrize(
        "value, integers, message",
        [
            (2.0, True, "an integer, got float"),
            ("2", True, "an integer, got str"),
            ("2", False, "a number, got str"),
            ([2.0], True, "integers, got float"),
            ([None], False, "numbers, got NoneType"),
        ],
    )
    def test_scalar_fields_name_one_value(self, value, integers, message):
        shape = (1,) if isinstance(value, list) else ()
        with pytest.raises(ValueError, match=f"^field must be {message}$"):
            json_array(value, shape, integers, "field")
        if not shape and integers:
            with pytest.raises(ValueError, match=f"^matrix 'dim' must be {message}$"):
                matrix_from_json({"dim": value, "entries": [[[1.0, 0.0]]]})


class TestJsonPairs:
    def test_inverts_json_complex(self):
        from xubirkhoff import haar_unitary

        z = haar_unitary(3, seed=1)
        z[0, 1] = complex(-0.0, -0.0)
        pairs = json_pairs(z)
        assert all(type(x) is float for row in pairs for pair in row for x in pair)
        back = json_complex(pairs, z.shape, "pairs")
        assert back.tobytes() == z.tobytes()

    @pytest.mark.parametrize(
        "z, want",
        [
            (complex(0.5, -0.0), [0.5, -0.0]),
            (np.complex128(complex(-0.0, 2.0)), [-0.0, 2.0]),
        ],
    )
    def test_scalar_is_one_pair(self, z, want):
        got = json_pairs(z)
        assert got == want
        assert [math.copysign(1, x) for x in got] == [math.copysign(1, x) for x in want]

    def test_vector_is_list_of_pairs(self):
        z = np.array([1 + 2j, -3j])
        assert json_pairs(z) == [[1.0, 2.0], [0.0, -3.0]]
