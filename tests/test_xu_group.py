"""Tests for the Fourier embedding, circulant decomposition, the constant
line-sum test, transfer matrices, and pitch arithmetic."""

import math

import numpy as np
import pytest

from xubirkhoff import (
    DimensionError,
    MembershipError,
    Permutation,
    StructureError,
    UnsupportedDimensionError,
    WeightedPermSum,
    circulant_xu_decompose,
    classify,
    constant_line_sum_check,
    detect_supercirculant,
    dft_matrix,
    embed_core,
    extract_core,
    haar_unitary,
    is_prime,
    perm_to_matrix,
    pitch,
    random_circulant_xu,
    random_xu,
    root_of_unity,
    supercirculant_perm,
    SupercirculantLabel,
    transfer_block_dims,
    transfer_matrix,
    van_der_waerden,
)
from xubirkhoff.numerics import max_abs_diff


class TestEmbedCore:
    def test_identity_core(self):
        assert max_abs_diff(embed_core(np.eye(3)), np.eye(4)) < 1e-14

    def test_phase_core_gives_xu2_form(self):
        alpha = 1.32
        e = np.exp(1j * alpha)
        x = embed_core(np.array([[e]]))
        want = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
        assert max_abs_diff(x, want) < 1e-15

    def test_entry_formula_n3(self):
        # X[k,l] = (1 + sum over r,s of w^((k-1)r - (l-1)s) U[r,s]) / 3
        u = haar_unitary(2, seed=8)
        x = embed_core(u)
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                acc = 1.0 + 0j
                for r in (1, 2):
                    for s in (1, 2):
                        acc += (
                            root_of_unity(3, (k - 1) * r - (l - 1) * s)
                            * u[r - 1, s - 1]
                        )
                assert abs(x[k - 1, l - 1] - acc / 3) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_output_is_xu(self, n):
        for seed in range(12):
            x = embed_core(haar_unitary(n - 1, seed))
            assert classify(x).is_xu

    def test_non_unitary_rejected(self):
        with pytest.raises(MembershipError):
            embed_core(np.ones((2, 2), dtype=complex))


class TestExtractCore:
    def test_identity(self):
        assert max_abs_diff(extract_core(np.eye(4)), np.eye(3)) < 1e-14

    def test_xu2_inverse(self):
        alpha = -0.77
        e = np.exp(1j * alpha)
        x = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
        u = extract_core(x)
        assert abs(u[0, 0] - e) < 1e-14

    def test_round_trip_100_samples(self):
        for seed in range(100):
            x = random_xu(5, seed)
            assert max_abs_diff(embed_core(extract_core(x)), x) < 1e-10

    def test_non_xu_rejected_with_line_sum(self):
        with pytest.raises(MembershipError, match="sums to"):
            extract_core(np.diag([1.0, 1j]))

    def test_membership_error_names_offender(self):
        with pytest.raises(MembershipError, match="row|column"):
            extract_core(haar_unitary(3, seed=0))


class TestCirculantDecompose:
    def test_identity_weights(self):
        s = circulant_xu_decompose(np.eye(3))
        assert s.term_count == 3
        assert abs(s[Permutation.identity(3)] - 1.0) < 1e-15
        nonzero = [w for _, w in s.items() if abs(w) > 1e-14]
        assert len(nonzero) == 1

    def test_flat_matrix_rejected_but_expansion_holds(self):
        # W_n is circulant yet not unitary, so the XU gate refuses it;
        # its expansion (1/n) sum of C[l,1] still holds by construction
        with pytest.raises(MembershipError, match="unitary"):
            circulant_xu_decompose(van_der_waerden(3))
        s = WeightedPermSum(
            3,
            (
                (supercirculant_perm(3, SupercirculantLabel(l, 1)), 1 / 3)
                for l in range(1, 4)
            ),
        )
        assert max_abs_diff(s.reconstruct(), van_der_waerden(3)) < 1e-15

    def test_first_row_weights_and_reconstruction(self):
        f = dft_matrix(3)
        z = np.diag([1.0, np.exp(0.9j), np.exp(-2.1j)])
        x = f @ z @ f.conj().T
        s = circulant_xu_decompose(x)
        recon = s.reconstruct()
        assert max_abs_diff(recon, x) < 1e-14
        # weights are literally the first-row entries
        for l in range(1, 4):
            p = supercirculant_perm(3, SupercirculantLabel(l, 1))
            assert abs(s[p] - x[0, l - 1]) < 1e-15
        assert abs(s.weight_sum() - 1.0) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_random_samples(self, n):
        for seed in range(10):
            x = random_circulant_xu(n, seed)
            s = circulant_xu_decompose(x)
            assert s.engine == "circulant" and s.term_count == n
            assert max_abs_diff(s.reconstruct(), x) < 1e-11
            assert abs(s.weight_sum() - 1.0) < 1e-11
            images = [p.image for p, _ in s.items()]
            assert all(a < b for a, b in zip(images, images[1:]))

    def test_non_circulant_rejected(self):
        with pytest.raises(MembershipError, match="circulant"):
            circulant_xu_decompose(random_xu(4, seed=1))

    def test_non_xu_rejected(self):
        with pytest.raises(MembershipError):
            circulant_xu_decompose(np.full((2, 2), 0.5, dtype=complex))


class TestConstantLineSumCheck:
    def test_single_identity_term(self):
        s = WeightedPermSum(3, [(Permutation.identity(3), 1.0)])
        assert abs(constant_line_sum_check(s) - 1.0) < 1e-15

    def test_xu2_weights(self):
        alpha = 0.6
        e = np.exp(1j * alpha)
        s = WeightedPermSum(
            2,
            [(Permutation((1, 2)), (1 + e) / 2), (Permutation((2, 1)), (1 - e) / 2)],
        )
        got = constant_line_sum_check(s)
        assert got is not None
        assert abs(got - 1.0) < 1e-13

    def test_global_phase_detected(self):
        phase = np.exp(0.4j)
        s = WeightedPermSum(3, [(Permutation((2, 3, 1)), phase)])
        got = constant_line_sum_check(s)
        assert abs(got - phase) < 1e-14
        assert abs(abs(got) - 1.0) < 1e-14

    def test_singular_sum_rejected(self):
        s = WeightedPermSum(
            2, [(Permutation((1, 2)), 0.5), (Permutation((2, 1)), 0.5)]
        )
        assert constant_line_sum_check(s) is None


class TestTransferMatrix:
    def test_entry_formula(self):
        tm = transfer_matrix(6, 2, 3)
        for k in range(1, 7):
            for l in range(1, 7):
                want = root_of_unity(6, (k - 1) * 2 - (l - 1) * 3)
                assert abs(tm.matrix[k - 1, l - 1] - want) < 1e-14

    def test_corner_entry_is_one(self):
        for n, r, s in ((3, 1, 2), (5, 4, 4), (8, 3, 5)):
            assert abs(transfer_matrix(n, r, s).matrix[0, 0] - 1.0) < 1e-15

    def test_n5_display(self):
        w = root_of_unity(5, 1)
        expo = [
            [0, 3, 1, 4, 2],
            [1, 4, 2, 0, 3],
            [2, 0, 3, 1, 4],
            [3, 1, 4, 2, 0],
            [4, 2, 0, 3, 1],
        ]
        want = np.array([[w**e for e in row] for row in expo])
        assert max_abs_diff(transfer_matrix(5, 1, 2).matrix, want) < 1e-12

    def test_n4_display(self):
        i = 1j
        want = np.array(
            [
                [1, -1, 1, -1],
                [i, -i, i, -i],
                [-1, 1, -1, 1],
                [-i, i, -i, i],
            ],
            dtype=complex,
        )
        assert max_abs_diff(transfer_matrix(4, 1, 2).matrix, want) < 1e-12

    @pytest.mark.parametrize("n", list(range(2, 14)))
    def test_line_sums_zero(self, n):
        for r in range(1, n):
            for s in range(1, n):
                m = transfer_matrix(n, r, s).matrix
                assert np.abs(m.sum(axis=0)).max() < 1e-12
                assert np.abs(m.sum(axis=1)).max() < 1e-12

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_prime_rows_are_root_permutations(self, n):
        # each power of w appears exactly once per row and per column
        for r in range(1, n):
            for s in range(1, n):
                m = transfer_matrix(n, r, s).matrix
                expo = np.rint(np.angle(m) / (2 * math.pi / n)).astype(int) % n
                for k in range(n):
                    assert sorted(expo[k, :]) == list(range(n))
                    assert sorted(expo[:, k]) == list(range(n))

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            transfer_matrix(4, 0, 1)
        with pytest.raises(DimensionError):
            transfer_matrix(4, 1, 4)


class TestPitch:
    def test_tables_n5(self):
        want_x = [(1, 3, 2, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 2, 3, 1)]
        want_y = [(1, 2, 3, 4), (3, 1, 4, 2), (2, 4, 1, 3), (4, 3, 2, 1)]
        for r in range(1, 5):
            for s in range(1, 5):
                assert pitch(5, r, s) == (
                    want_x[r - 1][s - 1],
                    want_y[r - 1][s - 1],
                )

    def test_spot_values(self):
        assert pitch(5, 1, 2) == (3, 2)
        assert pitch(5, 2, 3) == (4, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
    def test_equal_indices_give_unit_pitches(self, n):
        for r in range(1, n):
            assert pitch(n, r, r) == (1, 1)

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_defining_congruences(self, n):
        for r in range(1, n):
            for s in range(1, n):
                x, y = pitch(n, r, s)
                assert (s * x) % n == r
                assert (r * y) % n == s
                assert (x * y) % n == 1

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_transfer_matrices_supercirculant_at_primes(self, n):
        for r in range(1, n):
            for s in range(1, n):
                got = detect_supercirculant(transfer_matrix(n, r, s).matrix)
                assert got == pitch(n, r, s)

    @pytest.mark.parametrize("n", [5, 7])
    def test_transfer_expansion_over_supercirculants(self, n):
        # M[r,s] = sum over l of w^(-(l-1)s) C[l, x(r,s)]
        for r in range(1, n):
            for s in range(1, n):
                x, _ = pitch(n, r, s)
                acc = np.zeros((n, n), dtype=complex)
                for l in range(1, n + 1):
                    acc += root_of_unity(n, -(l - 1) * s) * perm_to_matrix(
                        supercirculant_perm(n, SupercirculantLabel(l, x))
                    )
                assert max_abs_diff(acc, transfer_matrix(n, r, s).matrix) < 1e-10

    def test_composite_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            pitch(6, 1, 2)


class TestBlockDims:
    def test_n4_example(self):
        assert transfer_block_dims(4, 1, 2) == (4, 2)

    def test_prime_always_full(self):
        for n in (5, 7, 11):
            for r in range(1, n):
                for s in range(1, n):
                    assert transfer_block_dims(n, r, s) == (n, n)

    def test_n6_tiling(self):
        b, c = transfer_block_dims(6, 2, 3)
        assert (b, c) == (3, 2)
        m = transfer_matrix(6, 2, 3).matrix
        # the b x c block tiles the whole matrix
        for k in range(6):
            for l in range(6):
                assert abs(m[k, l] - m[k % b, l % c]) < 1e-13


class TestIsPrime:
    def test_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
        for n in range(-5, 65):
            assert is_prime(n) == (n in primes)
