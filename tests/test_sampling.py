"""Tests for the seeded samplers."""

import numpy as np
import pytest

from xubirkhoff import (
    DimensionError,
    SampleSpec,
    circulant_xu_decompose,
    classify,
    detect_supercirculant,
    extract_core,
    haar_unitary,
    random_circulant_xu,
    random_xu,
    random_zu,
    sample,
)
from xubirkhoff.numerics import max_abs_diff


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_unitary(self, n):
        for seed in range(10):
            u = haar_unitary(n, seed)
            assert max_abs_diff(u.conj().T @ u, np.eye(n)) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, seed=123), haar_unitary(4, seed=123))

    def test_seeds_differ(self):
        assert max_abs_diff(haar_unitary(3, 0), haar_unitary(3, 1)) > 1e-3


class TestRandomXu:
    def test_closed_form_at_n2(self):
        x = random_xu(2, seed=3)
        # some alpha with X = [[1+e, 1-e], [1-e, 1+e]]/2
        e = 2 * x[0, 0] - 1
        want = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 2
        assert max_abs_diff(x, want) < 1e-12
        assert abs(abs(e) - 1.0) < 1e-12

    def test_line_sums_n5(self):
        x = random_xu(5, seed=11)
        assert np.abs(x.sum(axis=0) - 1.0).max() < 1e-10
        assert np.abs(x.sum(axis=1) - 1.0).max() < 1e-10

    def test_core_round_trip(self):
        u = extract_core(random_xu(3, seed=7))
        assert max_abs_diff(u.conj().T @ u, np.eye(2)) < 1e-12

    @pytest.mark.parametrize("n", list(range(2, 9)))
    def test_class_predicate(self, n):
        for seed in range(20):
            assert classify(random_xu(n, seed)).is_xu

    def test_needs_n2(self):
        with pytest.raises(DimensionError):
            random_xu(1, seed=0)


class TestRandomZuAndCirculant:
    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_zu_predicate(self, n):
        for seed in range(10):
            z = random_zu(n, seed)
            c = classify(z)
            assert c.is_zu

    def test_circulant_is_xu_and_circulant(self):
        for n in range(2, 8):
            for seed in range(10):
                x = random_circulant_xu(n, seed)
                c = classify(x)
                assert c.is_xu and c.is_circulant

    def test_unit_pitches_n4(self):
        assert detect_supercirculant(random_circulant_xu(4, seed=5)) == (1, 1)

    def test_samples_decompose_n3(self):
        x = random_circulant_xu(3, seed=9)
        s = circulant_xu_decompose(x)
        assert max_abs_diff(s.reconstruct(), x) < 1e-11


class TestSampleSpec:
    def test_dispatch(self):
        for kind in ("unitary", "xu", "circulant_xu", "zu"):
            a = sample(SampleSpec(n=4, kind=kind, seed=1))
            assert a.shape == (4, 4)

    def test_matches_direct_call(self):
        assert np.array_equal(
            sample(SampleSpec(n=5, kind="xu", seed=7)), random_xu(5, seed=7)
        )

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SampleSpec(n=3, kind="stochastic", seed=0)

    def test_bad_dim(self):
        with pytest.raises(DimensionError):
            SampleSpec(n=0, kind="xu", seed=0)


class TestSeeds:
    SAMPLERS = (haar_unitary, random_xu, random_zu, random_circulant_xu)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_bad_seed_rejected_by_samplers(self, sampler, seed):
        with pytest.raises(ValueError, match="seed"):
            sampler(3, seed)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_bad_seed_rejected_by_spec(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SampleSpec(n=3, kind="xu", seed=seed)

    @pytest.mark.parametrize("kind", ["unitary", "xu", "circulant_xu", "zu"])
    def test_numpy_integer_seed_accepted(self, kind):
        a = sample(SampleSpec(n=4, kind=kind, seed=np.int64(3)))
        assert a.tobytes() == sample(SampleSpec(n=4, kind=kind, seed=3)).tobytes()

    def test_samples_draw_from_philox_of_the_seed(self):
        rng = np.random.Generator(np.random.Philox(7))
        phases = np.exp(2j * np.pi * rng.random(5))
        phases[0] = 1.0
        assert random_zu(5, 7).tobytes() == np.diag(phases).tobytes()
        rng = np.random.Generator(np.random.Philox(7))
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(z / np.sqrt(2.0))
        d = np.diag(r)
        assert haar_unitary(4, 7).tobytes() == (q * (d / np.abs(d))).tobytes()
