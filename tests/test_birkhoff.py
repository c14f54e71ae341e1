"""Tests for the decomposition engines, the product rule, and verification."""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    ComplexPermSum,
    DimensionError,
    MembershipError,
    Permutation,
    ScalingOptions,
    UnsupportedDimensionError,
    WeightedPermSum,
    circulant_xu_decompose,
    d_family,
    decompose_prime,
    decompose_prime_parts,
    decompose_recursive,
    decompose_unitary,
    decompose_xu,
    decompose_xu2,
    decompose_xu3,
    decompose_xu4,
    haar_unitary,
    lexicographic_index,
    lexicographic_permutations,
    perm_sum_from_json,
    perm_sum_to_json,
    product,
    random_circulant_xu,
    random_xu,
    root_of_unity,
    SupercirculantLabel,
    supercirculant_perm,
    verify,
)
from xubirkhoff import birkhoff, scaling, xu_group
from xubirkhoff.birkhoff import METHODS
from xubirkhoff.numerics import dft_matrix, max_abs_diff
from xubirkhoff.permutations import (
    _prime_rows,
    closed_form_images,
    d_images,
    shift_images,
    supercirculant_images,
)
from xubirkhoff.xu_group import extract_core


@pytest.fixture
def require_xu_calls(monkeypatch):
    """A list that grows by one at every ``require_xu`` call."""
    import xubirkhoff.birkhoff as birkhoff
    import xubirkhoff.xu_group as xu_group

    calls = []
    original = xu_group.require_xu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in (birkhoff, xu_group):
        monkeypatch.setattr(mod, "require_xu", counting)
    return calls


class TestProduct:
    def test_identity_neutral(self):
        s = circulant_xu_decompose(random_circulant_xu(4, seed=2))
        one = WeightedPermSum(4, [(Permutation.identity(4), 1.0)])
        t = product(one, s)
        for p, w in s.items():
            assert abs(t[p] - w) < 1e-15

    def test_weight_sum_multiplies(self):
        a = circulant_xu_decompose(random_circulant_xu(3, seed=5))
        b = circulant_xu_decompose(random_circulant_xu(3, seed=6))
        t = product(a, b)
        assert abs(t.weight_sum() - a.weight_sum() * b.weight_sum()) < 1e-12
        assert abs(t.weight_sum() - 1.0) < 1e-11

    def test_reconstructs_matrix_product(self):
        for seed in range(10):
            x = random_circulant_xu(4, 2 * seed)
            y = random_circulant_xu(4, 2 * seed + 1)
            t = product(
                circulant_xu_decompose(x), circulant_xu_decompose(y)
            )
            assert max_abs_diff(t.reconstruct(), x @ y) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            product(WeightedPermSum(2), WeightedPermSum(3))

    def test_complex_operand_rejected(self):
        # The product rule has no place for a ComplexPermSum's phases:
        # dropping them reconstructed to a matrix 1.64 away from U @ X.
        c = decompose_unitary(haar_unitary(3, 1))
        s = decompose_xu(random_xu(3, 1))
        for a, b in [(c, s), (s, c)]:
            with pytest.raises(TypeError, match="ComplexPermSum"):
                product(a, b)


class TestXu2:
    def test_alpha_zero(self):
        s = decompose_xu2(np.eye(2))
        assert abs(s[Permutation((1, 2))] - 1.0) == 0.0
        assert abs(s[Permutation((2, 1))]) == 0.0

    def test_alpha_pi(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        s = decompose_xu2(swap)
        assert abs(s[Permutation((1, 2))]) == 0.0
        assert abs(s[Permutation((2, 1))] - 1.0) == 0.0

    def test_alpha_half_pi(self):
        e = np.exp(1j * np.pi / 2)
        x = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
        s = decompose_xu2(x)
        m1 = s[Permutation((1, 2))]
        m2 = s[Permutation((2, 1))]
        assert abs(abs(m1) ** 2 - 0.5) < 1e-15
        assert abs(abs(m2) ** 2 - 0.5) < 1e-15

    def test_weights_match_closed_form(self):
        for alpha in np.linspace(-3.0, 3.0, 17):
            e = np.exp(1j * alpha)
            x = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
            s = decompose_xu2(x)
            assert abs(s[Permutation((1, 2))] - (1 + e) / 2) < 1e-15
            assert abs(s[Permutation((2, 1))] - (1 - e) / 2) < 1e-15

    def test_wrong_size(self):
        with pytest.raises(DimensionError):
            decompose_xu2(np.eye(3))


@pytest.mark.parametrize(
    "engine, n",
    [(decompose_xu3, 4), (decompose_xu4, 5), (decompose_prime_parts, 3)],
)
def test_engines_reject_other_sizes(engine, n):
    # XU(4) and XU(3) pass the membership check first; the size check
    # comes after it.
    with pytest.raises(DimensionError):
        engine(random_xu(n, 0))


class TestXu3:
    def test_identity_p1(self):
        s = decompose_xu3(np.eye(3), p=1.0)
        for p, w in s.items():
            want = 1.0 if p == Permutation.identity(3) else 0.0
            assert abs(w - want) < 1e-15

    def test_p1_weight_formulas(self):
        # m_1 = (1 + U11 + U22)/3 and friends, the worked p=1 list
        from xubirkhoff import extract_core, root_of_unity

        x = random_xu(3, seed=14)
        u = extract_core(x)
        w = root_of_unity(3, 1)
        w2 = root_of_unity(3, 2)
        want = [
            (1 + u[0, 0] + u[1, 1]) / 3,
            (u[0, 1] + u[1, 0]) / 3,
            (w * u[0, 1] + w2 * u[1, 0]) / 3,
            (1 + w2 * u[0, 0] + w * u[1, 1]) / 3,
            (1 + w * u[0, 0] + w2 * u[1, 1]) / 3,
            (w2 * u[0, 1] + w * u[1, 0]) / 3,
        ]
        s = decompose_xu3(x, p=1.0)
        for perm, m in zip(lexicographic_permutations(3), want):
            assert abs(s[perm] - m) < 1e-13

    def test_reconstruction_any_p(self):
        x = random_xu(3, seed=3)
        for p in (1.0, 0.0, 0.5 + 0.5j, 2.0, -1.3 + 0.4j):
            s = decompose_xu3(x, p=p)
            assert max_abs_diff(s.reconstruct(), x) < 1e-13
            assert abs(s.weight_sum() - 1.0) < 1e-13

    def test_same_matrix_different_weights(self):
        x = random_xu(3, seed=4)
        s0 = decompose_xu3(x, p=0.0)
        s1 = decompose_xu3(x, p=1.0)
        assert max_abs_diff(s0.reconstruct(), s1.reconstruct()) < 1e-13
        diffs = [abs(s0[p] - s1[p]) for p, _ in s0.items()]
        assert max(diffs) > 0.1

    @pytest.mark.parametrize("p", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(ValueError, match="p must be finite"):
            decompose_xu3(random_xu(3, seed=3), p=p)

    def test_sq_moduli_circle_law(self):
        x = random_xu(3, seed=5)
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(20):
            p = (1 + np.exp(2j * np.pi * rng.random())) / 2
            s = decompose_xu3(x, p=p)
            assert abs(s.sq_moduli_sum() - 1.0) < 1e-10
        for _ in range(20):
            p = complex(rng.standard_normal(), rng.standard_normal())
            s = decompose_xu3(x, p=p)
            want = 1.0 + (2 * p * np.conj(p) - p - np.conj(p)).real / 3
            assert abs(s.sq_moduli_sum() - want) < 1e-10


class TestPrime:
    def test_n2_n3_dispatch(self):
        x2 = random_xu(2, seed=1)
        assert max_abs_diff(decompose_prime(x2).reconstruct(), x2) < 1e-13
        x3 = random_xu(3, seed=1)
        s3 = decompose_prime(x3)
        assert max_abs_diff(s3.reconstruct(), x3) < 1e-13
        assert abs(s3.sq_moduli_sum() - 1.0) < 1e-12

    def test_identity_n5(self):
        s = decompose_prime(np.eye(5))
        assert s.term_count == 25
        assert max_abs_diff(s.reconstruct(), np.eye(5)) < 1e-14
        assert abs(s.weight_sum() - 1.0) < 1e-14
        assert abs(s.sq_moduli_sum() - 1.0) < 1e-14

    def test_term_counts_n5(self):
        c_part, d_part = decompose_prime_parts(random_xu(5, seed=8))
        assert c_part.term_count == 20
        assert d_part.term_count == 5
        assert decompose_prime(random_xu(5, seed=8)).term_count == 25

    def test_part_invariants(self):
        # the supercirculant part sums to 0 with squared moduli (n-1)/n;
        # the flat part reconstructs W_n
        from xubirkhoff import van_der_waerden

        for n in (5, 7, 11):
            x = random_xu(n, seed=n + 100)
            c_part, d_part = decompose_prime_parts(x)
            assert abs(c_part.weight_sum()) < 1e-9
            assert abs(c_part.sq_moduli_sum() - (n - 1) / n) < 1e-9
            assert abs(d_part.weight_sum() - 1.0) < 1e-12
            assert max_abs_diff(d_part.reconstruct(), van_der_waerden(n)) < 1e-12

    @pytest.mark.parametrize("n", [5, 7])
    def test_random_samples(self, n):
        for seed in range(10):
            x = random_xu(n, seed)
            s = decompose_prime(x)
            r = verify(s, x, tol=1e-9)
            assert r.reconstruction_ok
            assert r.weight_sum_ok
            assert r.sq_moduli_ok
            assert r.term_count == n * n

    def test_above_n127(self):
        # n = 131: the image rows are int32, not int8
        x = random_xu(131, 1)
        s = decompose_prime(x)
        assert s.images.dtype == np.int32
        r = verify(s, x, tol=1e-9)
        assert r.reconstruction_ok and r.weight_sum_ok and r.sq_moduli_ok
        assert r.term_count == 131 * 131

    @pytest.mark.parametrize("n", [5, 7, 11, 13, 31])
    def test_weights_match_scalar_formula(self, n):
        # m[l,x] = (1/n) sum_s w^(-(l-1)s) U[r,s], r = s*x mod n, summed
        # term by term as the construction states it
        x = random_xu(n, seed=n)
        u = extract_core(x)
        c_part, d_part = decompose_prime_parts(x)
        assert [p for p, _ in d_part.items()] == sorted(d_family(n))
        assert [p for p, _ in c_part.items()] == sorted(
            supercirculant_perm(n, SupercirculantLabel(l, xx))
            for l in range(1, n + 1)
            for xx in range(1, n)
        )
        whole = [p.image for p, _ in decompose_prime(x).items()]
        assert all(a < b for a, b in zip(whole, whole[1:]))
        for xx in range(1, n):
            for l in range(1, n + 1):
                want = sum(
                    root_of_unity(n, -(l - 1) * s) * u[(s * xx) % n - 1, s - 1]
                    for s in range(1, n)
                ) / n
                p = supercirculant_perm(n, SupercirculantLabel(l, xx))
                assert abs(c_part[p] - want) <= 1e-14

    @pytest.mark.parametrize("n", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_tables_are_cached_read_only_and_give_the_rows(self, n):
        tables = (
            shift_images,
            d_images,
            supercirculant_images,
            lambda n: _prime_rows(n)[0],
            lambda n: _prime_rows(n)[1],
        )
        for build in tables:
            table = build(n)
            assert build(n) is table
            with pytest.raises(ValueError):
                table[0] = table[0]
        want = [
            supercirculant_perm(n, SupercirculantLabel(l, xx))
            for l in range(1, n + 1)
            for xx in range(1, n)
        ] + d_family(n)
        want.sort(key=lexicographic_index)
        s = decompose_prime(random_xu(n, seed=n))
        assert [tuple(r) for r in (s.images.astype(int) + 1).tolist()] == [
            p.image for p in want
        ]
        # The sums wrap the cached tables themselves, not copies.
        assert s.images is decompose_prime(random_xu(n, seed=n + 1)).images
        assert decompose_prime_parts(random_xu(n, seed=n))[0].images is (
            supercirculant_images(n)
        )

    def test_membership_checked_once(self, require_xu_calls):
        decompose_prime(random_xu(7, seed=1))
        assert len(require_xu_calls) == 1

    def test_composite_rejected(self):
        with pytest.raises(UnsupportedDimensionError, match="open|composite"):
            decompose_prime(random_xu(6, seed=0))
        with pytest.raises(UnsupportedDimensionError, match="n=1 is not prime"):
            decompose_prime(np.eye(1))

    def test_non_xu_rejected(self):
        with pytest.raises(MembershipError):
            decompose_prime(haar_unitary(5, seed=0))


class TestXu4:
    def test_identity_pattern(self):
        s = decompose_xu4(np.eye(4))
        perms = list(lexicographic_permutations(4))
        want = {1: 0.75, 2: 0.25, 7: 0.25, 18: 0.25, 23: 0.25,
                10: -0.25, 17: -0.25, 19: -0.25}
        for j, perm in enumerate(perms, start=1):
            assert abs(s[perm] - want.get(j, 0.0)) < 1e-14
        assert abs(s.sq_moduli_sum() - 1.0) < 1e-14

    def test_constant_weights(self):
        perms = list(lexicographic_permutations(4))
        for seed in range(5):
            s = decompose_xu4(random_xu(4, seed))
            for j in (2, 7, 18, 23):
                assert abs(s[perms[j - 1]] - 0.25) < 1e-14

    def test_random_samples(self):
        for seed in range(20):
            x = random_xu(4, seed)
            s = decompose_xu4(x)
            r = verify(s, x, tol=1e-10)
            assert r.reconstruction_ok and r.weight_sum_ok and r.sq_moduli_ok

    def test_agrees_with_recursive_engine_reconstruction(self):
        x = random_xu(4, seed=44)
        a = decompose_xu4(x)
        b = decompose_recursive(x)
        assert max_abs_diff(a.reconstruct(), b.reconstruct()) < 1e-8


class TestRecursive:
    @pytest.mark.parametrize("method", ["auto", "recursive"])
    def test_xu1_single_identity_term(self, method):
        s = decompose_xu(np.eye(1), method=method)
        assert s.items() == [(Permutation.identity(1), 1.0)]
        assert s.engine == "recursive"
        assert verify(s, np.eye(1)).reconstruction_ok

    def test_identity_collapses(self):
        s = decompose_recursive(np.eye(4))
        assert s.term_count == 1
        assert abs(s[Permutation.identity(4)] - 1.0) < 1e-12

    def test_xu2_base_case(self):
        e = np.exp(0.9j)
        x = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
        s = decompose_recursive(x)
        assert s.term_count == 2
        assert abs(s[Permutation((1, 2))] - (1 + e) / 2) < 1e-14

    def test_eye2_is_one_term(self):
        # Like every permutation matrix, the bottom block XU(2) identity is
        # one term of weight 1.
        s = decompose_recursive(np.eye(2))
        assert s.term_count == 1
        assert s.items() == [(Permutation.identity(2), 1.0)]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_samples(self, n):
        for seed in range(5):
            x = random_xu(n, seed)
            s = decompose_recursive(x)
            assert max_abs_diff(s.reconstruct(), x) < 1e-8
            assert abs(s.weight_sum() - 1.0) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_sq_moduli_sum_is_one(self, n):
        # the weights form a unitary element of the group algebra C[S_n]
        for seed in range(3):
            s = decompose_recursive(random_xu(n, seed))
            assert abs(s.sq_moduli_sum() - 1.0) <= 1e-9

    def test_agrees_with_prime_engine_reconstruction(self):
        x = random_xu(5, seed=21)
        a = decompose_prime(x)
        b = decompose_recursive(x)
        assert max_abs_diff(a.reconstruct(), b.reconstruct()) < 1e-8

    def test_non_xu_rejected(self):
        with pytest.raises(MembershipError):
            decompose_recursive(haar_unitary(4, seed=2))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_membership_checked_once(self, n, require_xu_calls):
        decompose_xu(random_xu(n, seed=1), method="recursive")
        assert len(require_xu_calls) == 1

    def test_default_tol_is_the_package_default(self):
        # XU only to about 2e-9: refused at the default 1e-10, which is
        # every engine's, and accepted at an explicit 1e-8.
        x = random_xu(6, 1) * np.exp(4e-10j * np.arange(6))
        with pytest.raises(MembershipError, match="1e-10"):
            decompose_recursive(x)
        assert verify(decompose_recursive(x, tol=1e-8), x, tol=1e-8).ok

    def test_loose_scaling_is_as_accurate_as_its_tol(self):
        # Every level below the input is XU only to 1e-5, and none is
        # checked again.
        x = random_xu(6, 2)
        s = decompose_recursive(x, ScalingOptions(tol=1e-5))
        assert verify(s, x, tol=1e-5).reconstruction_ok


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([6, 8]),
    seed=st.integers(0, 999),
    tol=st.floats(-4, -2).map(lambda e: 10.0**e),
)
def test_loose_scaling_tol_admits_its_own_blocks(n, seed, tol):
    # Every level below the top is unitary only to about tol**2. The
    # scaling asks its input to be unitary to max(tol, 1e-8), so no level
    # fails that gate, and the result is as accurate as tol.
    opts = ScalingOptions(tol=tol)
    u = haar_unitary(n, seed)
    assert verify(decompose_unitary(u, opts), u, tol=tol).ok
    x = random_xu(n, seed)
    assert verify(decompose_recursive(x, opts), x, tol=tol).ok


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([6, 8, 9]),
    seed=st.integers(0, 999),
    tol=st.floats(-12, -9).map(lambda e: 10.0**e),
)
def test_tol_gates_the_input_not_the_blocks(n, seed, tol):
    # The caller's tol checks the caller's matrix, even below the 1e-10
    # residual that the levels the recursive engine scales carry.
    x = random_xu(n, seed)
    assert verify(decompose_xu(x, tol=tol), x, tol=1e-9).ok


class TestDecomposeXuFrontDoor:
    def test_auto_prefers_guaranteed_engines(self):
        assert decompose_xu(random_xu(5, seed=0)).engine == "prime"
        assert decompose_xu(random_xu(4, seed=0)).engine == "xu4"
        assert decompose_xu(random_xu(6, seed=0)).engine == "recursive"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 31])
    def test_auto_writes_over_the_closed_form_support(self, n):
        """At prime n and n <= 4, 'auto' keeps every term, on the very table
        the JSON layer looks up; elsewhere there is no such table."""
        s = decompose_xu(np.eye(1) if n == 1 else random_xu(n, seed=1))
        support = closed_form_images(n)
        if n in (1, 6, 8):
            assert support is None or s.images is not support
            assert (support is None) == (n > 4)
        else:
            assert s.images is support

    def test_explicit_method(self):
        x = random_xu(3, seed=9)
        assert decompose_xu(x, method="xu3").engine == "xu3"
        assert decompose_xu(x, method="recursive").engine == "recursive"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            decompose_xu(np.eye(3), method="guess")


class TestMethods:
    SIZES = {"xu2": 2, "xu3": 3, "xu4": 4, "prime": 5, "recursive": 6}

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "auto"])
    def test_every_named_engine_runs(self, method):
        x = random_xu(self.SIZES[method], seed=3)
        s = decompose_xu(x, method=method)
        assert s.engine == method
        assert verify(s, x, tol=1e-9).reconstruction_ok


def _prime_part(n, i):
    return decompose_prime_parts(random_xu(n, seed=1))[i]


def _circulant(n, seed):
    return circulant_xu_decompose(random_circulant_xu(n, seed=seed))


# Engines wrap their rows without checking or sorting them, so each must
# build them distinct and in lexicographic order.
ENGINE_SUMS = {
    "xu2": lambda: decompose_xu2(random_xu(2, seed=1)),
    "xu3": lambda: decompose_xu3(random_xu(3, seed=1), p=0.3 + 0.2j),
    "xu4": lambda: decompose_xu4(random_xu(4, seed=1)),
    **{
        f"prime-{n}": (lambda n=n: decompose_prime(random_xu(n, seed=1)))
        for n in (5, 7, 31)
    },
    "prime-c-7": lambda: _prime_part(7, 0),
    "prime-d-7": lambda: _prime_part(7, 1),
    "recursive-1": lambda: decompose_recursive(np.eye(1)),
    "recursive-eye-2": lambda: decompose_recursive(np.eye(2)),
    **{
        f"recursive-{n}": (lambda n=n: decompose_recursive(random_xu(n, seed=1)))
        for n in range(2, 8)
    },
    "circulant": lambda: _circulant(6, 1),
    "product-keys": lambda: product(
        decompose_xu4(random_xu(4, seed=1)), decompose_recursive(random_xu(4, seed=2))
    ),
    "product-merge": lambda: product(_circulant(17, 1), _circulant(17, 2)),
    "pruned": lambda: decompose_recursive(random_xu(5, seed=1)).pruned(0.02),
}


@pytest.mark.parametrize("case", ENGINE_SUMS)
def test_rows_distinct_and_lexicographic(case):
    s = ENGINE_SUMS[case]()
    rows = s.images.tolist()
    assert len(rows) >= 1 and all(len(r) == s.n for r in rows)
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert all(sorted(r) == list(range(s.n)) for r in rows)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_weights_have_no_negative_zero(n):
    # A -0.0 part would print as -0 in the JSON form; these weights have
    # always had their zero parts as +0.0.
    w = decompose_xu(np.eye(n), method=f"xu{n}").weights
    parts = np.concatenate([w.real, w.imag])
    assert not np.signbit(parts[parts == 0]).any()


class TestDecomposeUnitary:
    def test_diagonal_single_term(self):
        u = np.diag(np.exp(1j * np.array([0.4, -1.2, 2.2])))
        cs = decompose_unitary(u)
        assert cs.term_count == 1
        t = cs.terms[0]
        assert t.perm == Permutation.identity(3)
        assert max_abs_diff(cs.reconstruct(), u) < 1e-12

    def test_xu_input_has_unit_phases(self):
        x = random_xu(3, seed=7)
        cs = decompose_unitary(x)
        for t in cs.terms:
            assert max(abs(ph - 1.0) for ph in t.phases) < 1e-12
        assert max_abs_diff(cs.reconstruct(), x) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_haar_samples(self, n):
        for seed in range(5):
            u = haar_unitary(n, seed)
            cs = decompose_unitary(u)
            assert max_abs_diff(cs.reconstruct(), u) < 1e-8
            for t in cs.terms:
                assert max(abs(abs(ph) - 1.0) for ph in t.phases) < 1e-12

    def test_term_matrices_are_complex_permutations(self):
        u = haar_unitary(4, seed=13)
        cs = decompose_unitary(u)
        for t in cs.terms:
            m = t.matrix()
            nz = np.abs(m) > 1e-14
            assert np.array_equal(nz.sum(axis=0), np.ones(4, dtype=int))
            assert np.array_equal(nz.sum(axis=1), np.ones(4, dtype=int))
            mods = np.abs(m[nz])
            assert np.abs(mods - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14])
    def test_fourier_matrices(self, n):
        # n = 10 is left out for time: it takes 0.4 s, for 554 580 terms.
        # DFT_9 gives 17 424 (a random XU(9) 55 458). DFT_12 and DFT_14
        # stop at the bottom blocks XU(11) and XU(13), with 1 320 and
        # 2 184 terms.
        f = dft_matrix(n)
        r = verify(decompose_unitary(f), f, tol=1e-9)
        assert r.reconstruction_ok and r.weight_sum_ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fourier_6_across_seeds(self, seed):
        # used to fail at seed 0: the nested scaling sat at spread 1.4e-10
        f = dft_matrix(6)
        r = verify(decompose_unitary(f, ScalingOptions(rng_seed=seed)), f, tol=1e-9)
        assert r.reconstruction_ok and r.weight_sum_ok

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 999),
        tol=st.floats(-8, -5).map(lambda e: 10.0**e),
    )
    def test_scaling_tol_bounds_the_error(self, n, seed, tol):
        # The engine takes the core at the tolerance the scaling reached.
        u = haar_unitary(n, seed)
        s = decompose_unitary(u, ScalingOptions(tol=tol))
        assert verify(s, u, tol=tol).reconstruction_ok

    def test_engine_label(self):
        assert decompose_unitary(haar_unitary(5, seed=1)).engine == "zxz+prime"
        assert decompose_unitary(haar_unitary(4, seed=1)).engine == "zxz+xu4"
        assert (
            decompose_unitary(haar_unitary(6, seed=1)).engine
            == "zxz+recursive"
        )


class TestVerify:
    def test_flags_pass_for_valid_decomposition(self):
        e = np.exp(0.4j)
        x = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
        r = verify(decompose_xu2(x), x, tol=1e-12)
        assert r.reconstruction_ok and r.weight_sum_ok
        assert r.sq_moduli_ok and r.line_sums_ok
        assert r.term_count == 2

    def test_perturbed_weight_fails_reconstruction(self):
        x = random_xu(3, seed=2)
        s = decompose_xu3(x)
        bad = WeightedPermSum(3, s.items())
        bad.add(Permutation.identity(3), 0.05)
        r = verify(bad, x, tol=1e-9)
        assert not r.reconstruction_ok
        assert not r.weight_sum_ok

    def test_report_recomputed_from_terms(self):
        x = random_xu(5, seed=6)
        s = decompose_prime(x)
        r = verify(s, x, tol=1e-9)
        assert r.reconstruction_error == max_abs_diff(s.reconstruct(), x)
        assert r.weight_sum == s.weight_sum()
        assert r.sq_moduli_sum == s.sq_moduli_sum()

    def test_sq_flag_informational_for_recursive(self):
        x = random_xu(6, seed=3)
        s = decompose_recursive(x)
        r = verify(s, x, tol=1e-8)
        assert r.reconstruction_ok and r.weight_sum_ok and r.line_sums_ok

    def test_complex_sum_weight_modulus(self):
        u = haar_unitary(3, seed=19)
        cs = decompose_unitary(u)
        r = verify(cs, u, tol=1e-8)
        assert r.reconstruction_ok
        assert r.weight_sum_ok
        assert abs(abs(r.weight_sum) - 1.0) < 1e-8

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            verify(WeightedPermSum(2), np.eye(3))

    def test_first_argument_must_be_a_sum(self):
        with pytest.raises(TypeError, match="cannot verify ndarray"):
            verify(np.eye(2), np.eye(2))

    def test_verdict_of_plain_sums(self):
        x = random_xu(5, seed=6)
        r = verify(decompose_prime(x), x, tol=1e-9)
        assert r.phase_deviation == 0.0 and r.phases_ok
        assert r.ok
        rep = r.to_json()
        assert rep["phase_deviation"] == 0.0 and rep["passed"]["phases"]
        assert not verify(decompose_prime(x), random_xu(5, seed=7)).ok

    def test_complex_sum_passes_on_its_own_invariants(self):
        # Row phases move the line sums of a complex sum off its weight
        # sum, so the line-sum flag is informational there.
        u = haar_unitary(5, seed=1)
        r = verify(decompose_unitary(u), u, tol=1e-9)
        assert r.phase_deviation <= 1e-12 and r.phases_ok
        assert r.line_sum_deviation > 1.0 and not r.line_sums_ok
        assert r.ok

    def test_complex_sum_phase_modulus_checked(self):
        # A zero-weight term changes neither the reconstruction nor the
        # weight sum: only the phase check sees its modulus-2 phases.
        u = haar_unitary(5, seed=1)
        cs = decompose_unitary(u)
        bad = ComplexPermSum.from_arrays(
            5,
            np.vstack([np.arange(5), cs.images]),
            np.append(0.0, cs.weights),
            np.vstack([np.full(5, 2.0), cs.phases]),
            cs.engine,
        )
        r = verify(bad, u, tol=1e-9)
        assert r.reconstruction_ok and r.weight_sum_ok
        assert r.phase_deviation == 1.0
        assert not r.phases_ok and not r.ok
        assert not r.to_json()["passed"]["phases"]


class TestMergingAndJson:
    def test_duplicates_merge(self):
        p = Permutation((2, 1))
        s = WeightedPermSum(2, [(p, 0.25), (p, 0.5)])
        assert s.term_count == 1
        assert abs(s[p] - 0.75) < 1e-15

    def test_merging_preserves_reconstruction(self):
        x = random_xu(4, seed=17)
        s = decompose_xu4(x)
        doubled = WeightedPermSum(4)
        for p, w in s.items():
            doubled.add(p, w / 2)
            doubled.add(p, w / 2)
        assert max_abs_diff(doubled.reconstruct(), s.reconstruct()) < 1e-14

    def test_json_round_trip_real(self):
        s = decompose_prime(random_xu(5, seed=4))
        t = perm_sum_from_json(perm_sum_to_json(s))
        assert isinstance(t, WeightedPermSum)
        assert t.engine == s.engine
        assert max_abs_diff(t.reconstruct(), s.reconstruct()) == 0.0

    def test_json_round_trip_complex(self):
        cs = decompose_unitary(haar_unitary(3, seed=5))
        t = perm_sum_from_json(perm_sum_to_json(cs))
        assert max_abs_diff(t.reconstruct(), cs.reconstruct()) == 0.0


# ``perfbench/tracer.py`` and ``tools/scaling_sweep.py`` replace these
# names on the modules that hold them and count the calls made through
# them, so the engines must call each as a module attribute, as often as
# the benchmark's per-layer counts record.


def _counted(stack, name, *modules):
    """One mock forwarding to ``name`` of the first of ``modules``,
    installed as ``name`` on each of them (as the tracer installs its
    wrappers); it counts the calls made through any of them."""
    spy = mock.Mock(wraps=getattr(modules[0], name))
    for module in modules:
        stack.enter_context(mock.patch.object(module, name, spy))
    return spy


@pytest.mark.parametrize("seed", range(3))
def test_recursive_engine_calls_the_traced_names(seed):
    x = random_xu(6, seed)
    with ExitStack() as stack:
        zxz = _counted(stack, "zxz_scale", birkhoff)
        step = _counted(stack, "_newton_step", scaling)
        gate = _counted(stack, "require_xu", xu_group, birkhoff)
        s = decompose_xu(x)
    # One scaling, of level 6, whose middle block XU(5) is the bottom
    # block; one membership check.
    assert zxz.call_count == 1
    assert step.call_count > 0
    assert gate.call_count == 1
    assert verify(s, x).ok


@pytest.mark.parametrize("seed", range(3))
def test_unitary_route_calls_the_traced_names(seed):
    u = haar_unitary(5, seed)
    with ExitStack() as stack:
        zxz = _counted(stack, "zxz_scale", birkhoff)
        gate = _counted(stack, "require_xu", xu_group, birkhoff)
        s = decompose_unitary(u)
    assert zxz.call_count == 1
    assert gate.call_count == 1
    assert verify(s, u).ok
