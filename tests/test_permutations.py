"""Tests for permutations, composition, the structured families, and
supercirculant detection."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    DimensionError,
    NotAPermutationError,
    Permutation,
    SupercirculantLabel,
    classify,
    compose,
    d_family,
    detect_supercirculant,
    lexicographic_index,
    lexicographic_permutations,
    perm_from_json,
    perm_to_json,
    perm_to_matrix,
    shift_matrix,
    supercirculant_perm,
    transfer_matrix,
    van_der_waerden,
)
from xubirkhoff.numerics import dumps_json, max_abs_diff, shift_relation_holds
from xubirkhoff.permutations import (
    _prime_rows,
    closed_form_images,
    d_images,
    is_prime,
    lex_images,
    shift_images,
    supercirculant_images,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.image == (1, 2, 3, 4)
        assert p(3) == 3

    def test_rejects_non_bijection(self):
        with pytest.raises(NotAPermutationError):
            Permutation((1, 1, 3))
        with pytest.raises(NotAPermutationError):
            Permutation((0, 1, 2))

    @pytest.mark.parametrize("image", [(1.0, 2.0), (True, 2), (1, np.float64(2))])
    def test_rejects_non_integer_images(self, image):
        with pytest.raises(NotAPermutationError, match="integer"):
            Permutation(image)

    def test_numpy_integer_images_become_int(self):
        p = Permutation(tuple(np.array([3, 1, 2])))
        assert p == Permutation((3, 1, 2))
        assert all(type(k) is int for k in p.image)
        assert hash(p) == hash(Permutation((3, 1, 2)))
        assert perm_from_json(json.loads(dumps_json(perm_to_json(p)))) == p

    def test_matrix_convention(self):
        # row k carries its unit entry at column sigma(k)
        m = perm_to_matrix(Permutation((1, 3, 2)))
        want = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.array_equal(m, want)

    def test_matrix_line_sums_one(self):
        m = perm_to_matrix(Permutation((2, 3, 1)))
        assert np.allclose(m.sum(axis=0), 1.0)
        assert np.allclose(m.sum(axis=1), 1.0)

    def test_three_cycle_display(self):
        m = perm_to_matrix(Permutation((2, 3, 1)))
        want = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        assert np.array_equal(m, want)


class TestCompose:
    def test_identity_neutral(self):
        p = Permutation((3, 1, 2))
        assert compose(p, Permutation.identity(3)) == p
        assert compose(Permutation.identity(3), p) == p

    def test_inverse_three_cycles(self):
        a = Permutation((2, 3, 1))
        b = Permutation((3, 1, 2))
        assert compose(a, b) == Permutation.identity(3)

    def test_matches_matrix_product(self):
        rng = np.random.Generator(np.random.Philox(42))
        for n in range(2, 9):
            for _ in range(10):
                p = Permutation(tuple(rng.permutation(n) + 1))
                q = Permutation(tuple(rng.permutation(n) + 1))
                lhs = perm_to_matrix(compose(p, q))
                rhs = perm_to_matrix(p) @ perm_to_matrix(q)
                assert np.array_equal(lhs, rhs)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            compose(Permutation.identity(2), Permutation.identity(3))


class TestLexicographic:
    def test_enumeration_order(self):
        perms = list(lexicographic_permutations(3))
        images = [p.image for p in perms]
        assert images == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]

    def test_index_agrees_with_enumeration(self):
        for j, p in enumerate(lexicographic_permutations(4), start=1):
            assert lexicographic_index(p) == j

    def test_n4_display_positions(self):
        # the fixed-size table lists P_1, P_2, P_3, P_23, P_24 explicitly
        perms = list(lexicographic_permutations(4))
        assert perms[0].image == (1, 2, 3, 4)
        assert perms[1].image == (1, 2, 4, 3)
        assert perms[2].image == (1, 3, 2, 4)
        assert perms[22].image == (4, 3, 1, 2)
        assert perms[23].image == (4, 3, 2, 1)


class TestSupercirculantPerm:
    def test_c11_is_identity(self):
        for n in (2, 3, 5, 8):
            p = supercirculant_perm(n, SupercirculantLabel(1, 1))
            assert p == Permutation.identity(n)

    def test_unit_positions(self):
        # (C[l,x])[1,l] = (C[l,x])[2,l+x] = 1
        p = supercirculant_perm(5, SupercirculantLabel(2, 3))
        assert p(1) == 2
        assert p(2) == 5

    def test_lex_ranks_n4(self):
        ranks = {(1, 1): 1, (1, 3): 6, (2, 1): 10, (2, 3): 8, (3, 1): 17,
                 (4, 1): 19, (4, 3): 24}
        for (l, x), want in ranks.items():
            p = supercirculant_perm(4, SupercirculantLabel(l, x))
            assert lexicographic_index(p) == want

    @pytest.mark.parametrize("l, x", [(0, 1), (6, 1), (1, 0), (1, 5), (-1, 2)])
    def test_label_out_of_range_rejected(self, l, x):
        with pytest.raises(NotAPermutationError, match="out of range for n=5"):
            supercirculant_perm(5, SupercirculantLabel(l, x))

    def test_shared_factor_rejected(self):
        with pytest.raises(NotAPermutationError):
            supercirculant_perm(4, SupercirculantLabel(1, 2))

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_detect_recovers_pitches(self, n):
        for x in range(1, n):
            for l in range(1, n + 1):
                m = perm_to_matrix(supercirculant_perm(n, SupercirculantLabel(l, x)))
                got = detect_supercirculant(m)
                assert got is not None
                gx, gy = got
                assert gx == x
                assert (gx * gy) % n == 1


class TestShiftAndDFamily:
    def test_shift_matrix_positions(self):
        q = shift_matrix(4)
        assert q.image == (2, 3, 4, 1)

    def test_d1_swaps_last_two(self):
        fam = d_family(5)
        assert fam[0].image == (1, 2, 3, 5, 4)

    def test_dj_is_shift_powers_of_d1(self):
        fam = d_family(5)
        q = perm_to_matrix(shift_matrix(5))
        acc = np.eye(5, dtype=complex)
        for j, d in enumerate(fam):
            want = acc @ perm_to_matrix(fam[0])
            assert np.array_equal(perm_to_matrix(d), want)
            acc = q @ acc

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8])
    def test_disjoint_support(self, n):
        fam = d_family(n)
        seen = set()
        for d in fam:
            cells = {(k, d.image[k - 1]) for k in range(1, n + 1)}
            assert not (seen & cells)
            seen |= cells
        assert len(seen) == n * n

    def test_n3_family_anticirculant(self):
        for d in d_family(3):
            assert classify(perm_to_matrix(d)).is_anticirculant

    def test_family_disjoint_from_supercirculants(self):
        # for n >= 5 no D_j equals any C[l,x], so combining the two
        # weight families never merges terms; at n = 3 they overlap
        def families(n):
            cs = {
                supercirculant_perm(n, SupercirculantLabel(l, x))
                for x in range(1, n)
                for l in range(1, n + 1)
            }
            return cs, set(d_family(n))

        for n in (5, 7):
            cs, ds = families(n)
            assert not (cs & ds)
        cs, ds = families(3)
        assert cs & ds

    def test_small_sizes_rejected(self):
        with pytest.raises(DimensionError):
            shift_matrix(1)
        with pytest.raises(DimensionError):
            d_family(2)


def _bijections_in_lexicographic_order(rows):
    """Every row is a bijection on 0..n-1, and the rows are distinct and
    in lexicographic order, as a WeightedPermSum stores them."""
    n = rows.shape[1]
    tuples = [tuple(r) for r in rows.tolist()]
    assert np.array_equal(np.sort(rows, axis=1), np.broadcast_to(np.arange(n), rows.shape))
    assert tuples == sorted(set(tuples))


class TestImageBuilders:
    """The array builders against the per-object constructions."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_shifts_compose_as_z_n(self, n, a, b):
        # Row a, then row b, is row a + b mod n.
        rows = shift_images(n)
        a, b = a % n, b % n
        assert np.array_equal(rows[b][rows[a]], rows[(a + b) % n])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(2, 40))
    def test_shift_rows_are_the_supercirculants_of_pitch_1(self, n):
        rows = shift_images(n)
        _bijections_in_lexicographic_order(rows)
        for l in range(1, n + 1):
            want = supercirculant_perm(n, SupercirculantLabel(l, 1)).image
            assert tuple((rows[l - 1] + 1).tolist()) == want

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(3, 40))
    def test_d_rows_are_shift_powers_of_d1_in_family_order(self, n):
        rows = d_images(n)
        q = supercirculant_perm(n, SupercirculantLabel(2, 1))
        d = Permutation((*range(1, n - 1), n, n - 1))
        for row in rows:
            assert tuple((row + 1).tolist()) == d.image
            d = compose(q, d)
        # decompose_prime_parts sorts them as d[d[0]].
        _bijections_in_lexicographic_order(rows[rows[0]])

    @settings(max_examples=len(PRIMES), deadline=None, derandomize=True)
    @given(st.sampled_from(PRIMES))
    def test_supercirculant_rows_follow_the_labels(self, p):
        rows = supercirculant_images(p)
        _bijections_in_lexicographic_order(rows)
        want = sorted(
            supercirculant_perm(p, SupercirculantLabel(l, x)).image
            for l in range(1, p + 1)
            for x in range(1, p)
        )
        assert [tuple(r) for r in (rows + 1).tolist()] == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_supercirculants_are_sharply_two_transitive(self, p):
        # Every ordered pair of distinct points (u, v) goes to every
        # ordered pair of distinct points (u', v') under exactly one row.
        rows = supercirculant_images(p)
        u, v = np.nonzero(~np.eye(p, dtype=bool))
        cells = ((u * p + v) * p + rows[:, u]) * p + rows[:, v]
        counts = np.bincount(cells.ravel(), minlength=p**4).reshape(p * p, p * p)
        distinct = ~np.eye(p, dtype=bool).ravel()
        assert np.array_equal(counts, np.outer(distinct, distinct))


class TestVanDerWaerden:
    def test_entries(self):
        w = van_der_waerden(3)
        assert np.array_equal(w, np.full((3, 3), 1 / 3, dtype=complex))
        assert np.array_equal(van_der_waerden(1), [[1.0]])

    def test_two_splits_at_n3(self):
        perms = list(lexicographic_permutations(3))
        odd = sum(perm_to_matrix(perms[j - 1]) for j in (1, 4, 5)) / 3
        even = sum(perm_to_matrix(perms[j - 1]) for j in (2, 3, 6)) / 3
        assert max_abs_diff(odd, van_der_waerden(3)) < 1e-15
        assert max_abs_diff(even, van_der_waerden(3)) < 1e-15

    def test_d_family_split_at_n5(self):
        acc = sum(perm_to_matrix(d) for d in d_family(5)) / 5
        assert max_abs_diff(acc, van_der_waerden(5)) < 1e-15


class TestDetectSupercirculant:
    def test_circulant_gives_unit_pitches(self):
        a = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=complex)
        assert detect_supercirculant(a) == (1, 1)

    def test_constant_matrix(self):
        assert detect_supercirculant(van_der_waerden(4)) == (1, 1)

    def test_transfer_n5(self):
        assert detect_supercirculant(transfer_matrix(5, 1, 2).matrix) == (3, 2)

    def test_transfer_n4_absent(self):
        assert detect_supercirculant(transfer_matrix(4, 1, 2).matrix) is None

    def test_generic_matrix_absent(self):
        rng = np.random.Generator(np.random.Philox(3))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert detect_supercirculant(a) is None

    def test_row_pitch_without_a_column_pitch(self):
        # A[k, l] = c[l - 2k mod 4] has row pitch 2 and, since 2y = 1 has
        # no solution mod 4, no column pitch.
        k = np.arange(4)
        a = np.array([1, 2, 3, 5], dtype=complex)[(k[None, :] - 2 * k[:, None]) % 4]
        assert shift_relation_holds(a, 2, 1e-10)
        assert detect_supercirculant(a) is None

    def test_one_by_one_has_no_pitches(self):
        assert detect_supercirculant(np.array([[1.0]])) is None


class TestPermJson:
    def test_round_trip(self):
        p = Permutation((3, 1, 4, 2))
        assert perm_from_json(perm_to_json(p)) == p

    def test_bad_length(self):
        with pytest.raises(ValueError):
            perm_from_json({"n": 3, "image": [1, 2]})

    def test_bad_image(self):
        with pytest.raises(NotAPermutationError):
            perm_from_json({"n": 2, "image": [1, 1]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "image": [1.5, 2.5]},
            {"n": 2, "image": [1.9, 2.2]},
            {"n": 2, "image": ["1", 2]},
            {"n": 2, "image": [True, 2]},
            {"n": 2.0, "image": [1, 2]},
            {"n": 0, "image": []},
            {"n": 2, "image": [1, 2, 3]},
            {"n": 2, "image": [10**30, 1]},
            {"n": 2},
            {"image": [1, 2]},
            [2, [1, 2]],
        ],
    )
    def test_strict_fields(self, obj):
        # The rules of every JSON schema in the package: sizes are positive
        # integers, image entries integers, and nothing is converted.
        with pytest.raises(ValueError):
            perm_from_json(obj)


@pytest.mark.parametrize("n", range(0, 40))
def test_closed_form_images(n):
    """S_n for 1 <= n <= 4, the prime construction's n^2 rows at prime
    n >= 5, None elsewhere; always the cached table itself."""
    rows = closed_form_images(n)
    if 1 <= n <= 4:
        assert rows is lex_images(n)
    elif is_prime(n):
        assert rows is _prime_rows(n)[0] and rows.shape == (n * n, n)
    else:
        assert rows is None
