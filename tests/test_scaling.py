"""Tests for the ZXZ factorization: the 2x2 closed form, alternating
sweeps, Gauss-Newton polish, the hand-over after MAX_SWEEPS sweeps, the
stall exit, the bound on every attempt, the Gauss-Newton step on
reducible inputs, and a reference loop that the iterative path must match
bit for bit."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xubirkhoff import (
    ConvergenceError,
    MembershipError,
    ScalingOptions,
    classify,
    decompose_unitary,
    dft_matrix,
    extract_core,
    haar_unitary,
    random_xu,
    verify,
    zxz_scale,
)
from xubirkhoff import scaling
from xubirkhoff.numerics import line_sum_spread, max_abs_diff
from xubirkhoff.scaling import (
    MAX_RESTARTS,
    MAX_SWEEPS,
    POLISH_SPREAD,
    POLISH_STEPS,
    attempt_bound,
)
from xubirkhoff.xu_group import require_xu


def spread_of(v):
    return max(
        float(np.abs(v.sum(axis=1) - 1.0).max()),
        float(np.abs(v.sum(axis=0) - 1.0).max()),
    )


class TestZxzScale:
    def test_identity(self):
        fac = zxz_scale(np.eye(3))
        assert fac.alpha == 0.0
        assert np.array_equal(fac.z1, np.ones(3))
        assert np.array_equal(fac.z2, np.ones(3))
        assert max_abs_diff(fac.core, np.eye(3)) == 0.0
        assert (fac.restarts, fac.attempts) == (0, ())
        assert fac.iterations == 0

    def test_diagonal_input(self):
        thetas = np.array([0.3, 1.1, -2.0])
        u = np.diag(np.exp(1j * thetas))
        fac = zxz_scale(u)
        assert max_abs_diff(fac.core, np.eye(3)) < 1e-12
        assert abs(np.exp(1j * fac.alpha) - np.exp(1j * thetas[0])) < 1e-12
        assert max_abs_diff(fac.reconstruct(), u) < 1e-12

    def test_leading_entries_are_one(self):
        # z/z misses 1 by an ulp, in the real or the imaginary part, for
        # 18 to 35 of these 300 seeds at each n.
        for n in (2, 3, 4, 5):
            for seed in range(300):
                fac = zxz_scale(haar_unitary(n, seed))
                assert fac.z1[0] == 1.0
                assert fac.z2[0] == 1.0

    def test_rotation_needs_restart(self):
        # the rotation by pi/4 (+) 1 has a vanishing row and column sum, a
        # fixed point of the bare iteration; the seeded restart escapes it.
        # (The rotation alone is 2x2, scaled in closed form.)
        u = _rotation_plus_one()
        fac = zxz_scale(u)
        assert fac.attempts == ((MAX_SWEEPS + POLISH_STEPS, 1.0),)
        assert fac.spread <= 1e-10
        assert max_abs_diff(fac.reconstruct(), u) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_haar_samples(self, n):
        for seed in range(25):
            u = haar_unitary(n, seed)
            fac = zxz_scale(u)
            assert fac.spread <= 1e-10
            assert spread_of(fac.core) <= 1e-10
            assert max_abs_diff(fac.reconstruct(), u) < 1e-9

    def test_core_is_xu(self):
        fac = zxz_scale(haar_unitary(5, seed=3))
        assert classify(fac.core, tol=1e-9).is_xu
        extract_core(fac.core, tol=1e-9)

    def test_xu_input_is_its_own_core(self):
        x = random_xu(4, seed=12)
        fac = zxz_scale(x)
        assert fac.iterations == 0
        assert fac.alpha == 0.0
        assert max_abs_diff(fac.core, x) == 0.0

    def test_deterministic(self):
        u = haar_unitary(4, seed=99)
        a = zxz_scale(u, ScalingOptions(rng_seed=5))
        b = zxz_scale(u, ScalingOptions(rng_seed=5))
        assert np.array_equal(a.core, b.core)
        assert np.array_equal(a.z1, b.z1)
        assert np.array_equal(a.z2, b.z2)
        assert a.alpha == b.alpha
        assert (a.iterations, a.restarts) == (b.iterations, b.restarts)

    def test_non_unitary_rejected(self):
        with pytest.raises(MembershipError):
            zxz_scale(np.ones((3, 3), dtype=complex))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ScalingOptions(tol=0.0)

    @pytest.mark.parametrize("name", ["max_iters", "max_restarts"])
    def test_attempt_policy_is_not_an_option(self, name):
        # Every attempt ends within attempt_bound(n, tol) iterations, and
        # MAX_RESTARTS is a module constant: neither is set per call.
        with pytest.raises(TypeError):
            ScalingOptions(**{name: 1})

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ScalingOptions(tol=tol)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "0", None])
    def test_bad_seed_rejected(self, seed):
        # checked up front: the restart generator is built only on demand
        with pytest.raises(ValueError):
            ScalingOptions(rng_seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert ScalingOptions(rng_seed=np.int64(3)).rng_seed == 3

    def test_core_does_not_alias_input(self):
        x = random_xu(4, seed=12)
        fac = zxz_scale(x)
        assert fac.core is not x
        assert not np.shares_memory(fac.core, x)

    @pytest.mark.parametrize("n", [8, 16])
    def test_larger_haar_samples_converge_fast(self, n):
        # alternating sweeps alone needed up to 9 424 iterations at n = 16
        for seed in range(5):
            u = haar_unitary(n, seed)
            fac = zxz_scale(u)
            assert fac.spread <= 1e-10
            assert spread_of(fac.core) <= 1e-10
            assert max_abs_diff(fac.reconstruct(), u) <= 1e-9
            assert fac.iterations <= 1_000


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_core_is_xu_and_factors_reconstruct(n, seed):
    u = haar_unitary(n, seed)
    fac = zxz_scale(u)
    require_xu(fac.core, tol=1e-9)
    assert max_abs_diff(fac.reconstruct(), u) <= 1e-9


@contextmanager
def _step_spreads():
    """Spy on ``scaling._newton_step``: the list of the spreads of the
    iterates V that the Gauss-Newton steps inside start from, one per
    step, read when each step is called (the line sums live in a
    workspace that later passes overwrite)."""
    spreads = []
    step = scaling._newton_step

    def spy(v, *rest):
        spreads.append(spread_of(v))
        return step(v, *rest)

    with mock.patch.object(scaling, "_newton_step", spy):
        yield spreads


def _two_by_two(kind, seed, angles):
    """A 2x2 unitary: Haar, or exactly diagonal or antidiagonal with the
    given phase angles."""
    if kind == "haar":
        return haar_unitary(2, seed)
    u = np.diag(np.exp(1j * np.array(angles)))
    return u if kind == "diagonal" else u[::-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["haar", "diagonal", "antidiagonal"]),
    st.integers(0, 2**32 - 1),
    st.tuples(*[st.floats(-np.pi, np.pi)] * 2),
)
@example("diagonal", 0, (0.0, 0.0))
@example("antidiagonal", 0, (0.0, 0.0))
def test_two_by_two_in_closed_form(kind, seed, angles):
    # No iteration and no attempt: the core is exact to rounding, and of
    # its two possible values the one with Im X[0, 0] >= 0. A diagonal or
    # antidiagonal input has one, the identity or the swap, whose
    # imaginary parts are rounding.
    u = _two_by_two(kind, seed, angles)
    fac = zxz_scale(u)
    assert fac.spread <= 1e-14
    assert spread_of(fac.core) <= 1e-14
    assert (fac.iterations, fac.attempts) == (0, ())
    assert max_abs_diff(fac.reconstruct(), u) <= 1e-14
    if kind == "haar":
        assert fac.core[0, 0].imag >= 0
    else:
        expected = np.eye(2) if kind == "diagonal" else np.eye(2)[::-1]
        assert max_abs_diff(fac.core, expected) <= 1e-15


def _first_attempt(u):
    """The (iterations, best_spread) of the first attempt of
    ``zxz_scale(u)``, with best_spread None when it succeeded."""
    fac = zxz_scale(u)
    return fac.attempts[0] if fac.attempts else (fac.iterations, None)


class TestConvergenceHistory:
    def test_unreachable_tol_abandons_every_attempt(self):
        # No line sum of a Haar unitary lands within 1e-320 of 1, so all
        # MAX_RESTARTS + 1 attempts are abandoned, each within its bound.
        opts = ScalingOptions(tol=1e-320)
        with pytest.raises(ConvergenceError) as info:
            zxz_scale(haar_unitary(5, seed=0), opts)
        attempts = info.value.attempts
        assert len(attempts) == MAX_RESTARTS + 1
        assert all(it <= attempt_bound(5, opts.tol) for it, _ in attempts)
        assert info.value.best_spread == min(b for _, b in attempts)

    @pytest.mark.parametrize("n, seed", [(4, 16), (7, 11), (11, 10)])
    def test_success_keeps_history_of_abandoned_attempts(self, n, seed):
        # The restart draws do not depend on the earlier attempts, so the
        # same call with one restart fewer abandons the same attempts.
        u = haar_unitary(n, seed)
        fac = zxz_scale(u)
        assert fac.restarts == len(fac.attempts) >= 1
        fewer = mock.patch.object(scaling, "MAX_RESTARTS", fac.restarts - 1)
        with fewer, pytest.raises(ConvergenceError) as info:
            zxz_scale(u)
        assert fac.attempts == info.value.attempts

    @pytest.mark.parametrize("seed", [266, 253])
    def test_missed_polish_abandons_attempt(self, seed):
        # The first attempt's Gauss-Newton steps, from POLISH_SPREAD, miss
        # and end it after 13 iterations. Sweeping on from a missed polish
        # used to creep for 4 426 (seed 266) and 1 150 (seed 253)
        # iterations before the stall rule fired.
        u = haar_unitary(3, seed)
        fac = zxz_scale(u)
        ((iterations, best),) = fac.attempts
        assert iterations <= 150
        assert best > ScalingOptions().tol
        assert (fac.restarts, fac.iterations) == (1, 4)
        assert fac.spread <= 1e-10
        assert max_abs_diff(fac.reconstruct(), u) <= 1e-9

    def test_slow_sweeps_end_within_150_iterations(self):
        # Sweeps that fall steadily, but slowly, escaped an earlier rule
        # that handed over only when they stopped making progress: this
        # first attempt once fell from spread 0.088 to 0.012 over 550
        # sweeps and then missed, 558 iterations in all.
        u = haar_unitary(17, 15)
        iterations, _ = _first_attempt(u)
        assert iterations <= 150
        fac = zxz_scale(u)
        assert fac.spread <= 1e-10
        assert max_abs_diff(fac.reconstruct(), u) <= 1e-9

    def test_rotation_stalls_without_restarts(self):
        iterations, best = _first_attempt(_rotation_plus_one())
        # The sweeps do not move it: they hand over to Gauss-Newton after
        # MAX_SWEEPS sweeps, and the steps all miss (18 iterations).
        assert iterations <= MAX_SWEEPS + POLISH_STEPS
        assert best > ScalingOptions().tol

    @pytest.mark.parametrize(
        "n, seed, restarts, iterations",
        [(3, 2767, 1, 4), (4, 7632, 1, 5), (5, 2141, 1, 6)],
    )
    def test_creeping_sweeps_hand_over(self, n, seed, restarts, iterations):
        # The first attempt's sweeps creep above POLISH_SPREAD, at spreads
        # 0.34, 0.37 and 0.35. They hand over after MAX_SWEEPS sweeps, and
        # the attempt ends when its Gauss-Newton steps miss.
        u = haar_unitary(n, seed)
        fac = zxz_scale(u)
        ((first, best),) = fac.attempts
        # Never at POLISH_SPREAD, so the sweep cap started Gauss-Newton and
        # no step halved the spread.
        assert best > POLISH_SPREAD
        assert first == MAX_SWEEPS + POLISH_STEPS
        assert (fac.restarts, fac.iterations) == (restarts, iterations)
        assert fac.spread <= 1e-10
        assert max_abs_diff(fac.reconstruct(), u) <= 1e-9

    def test_hand_over_can_converge(self):
        # The sweeps creep at spreads 0.34, 0.31 and 0.39 and hand over
        # after MAX_SWEEPS; the Gauss-Newton steps from there reach the
        # target without a restart. The last two inputs used to stall and
        # restart when the sweeps handed over on a progress test.
        for n, seed, iterations in [(3, 1380, 17), (4, 1236, 20), (5, 300, 20)]:
            u = haar_unitary(n, seed)
            with _step_spreads() as spreads:
                fac = zxz_scale(u)
            assert spreads[0] > POLISH_SPREAD
            assert fac.iterations - len(spreads) == MAX_SWEEPS
            assert (fac.restarts, fac.iterations) == (0, iterations)
            assert fac.spread <= 1e-10
            assert max_abs_diff(fac.reconstruct(), u) <= 1e-9


# Stalls are rare among random draws, so test_attempt_bookkeeping pins one
# input of each outcome kind.
BOOKKEEPING_KINDS = {
    (3, 2767, 0): "stall after MAX_SWEEPS",
    (5, 21, 0): "stall from POLISH_SPREAD",
    (4, 0, 0): "converged",
    (3, 1380, 0): "converged after MAX_SWEEPS",
    (5, 309, 1): "converged after restart",
}


def _outcome_kind(outcome, newton_spreads):
    """The kind of a ``zxz_scale`` outcome (its factorization or its
    ConvergenceError), given the spread before each Gauss-Newton step. The
    first step tells whether the sweeps handed over after MAX_SWEEPS,
    above POLISH_SPREAD."""
    capped = bool(newton_spreads) and newton_spreads[0] > POLISH_SPREAD
    if isinstance(outcome, ConvergenceError):
        return "stall after MAX_SWEEPS" if capped else "stall from POLISH_SPREAD"
    if outcome.restarts:
        return "converged after restart"
    return "converged after MAX_SWEEPS" if capped else "converged"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.integers(0, 2))
@example(3, 2767, 0)
@example(5, 21, 0)
@example(4, 0, 0)
@example(3, 1380, 0)
@example(5, 309, 1)
def test_attempt_bookkeeping(n, seed, max_restarts):
    # Few restarts make stalls end some calls in ConvergenceError; the
    # history must add up either way.
    tol = ScalingOptions().tol
    bound = attempt_bound(n, tol)
    restarts = mock.patch.object(scaling, "MAX_RESTARTS", max_restarts)
    with _step_spreads() as spreads, restarts:
        try:
            outcome = fac = zxz_scale(haar_unitary(n, seed))
        except ConvergenceError as e:
            outcome = e
            attempts = e.attempts
            assert len(attempts) == max_restarts + 1
            for iterations, best in attempts:
                assert iterations <= bound
                assert best > tol
            assert e.best_spread == min(b for _, b in attempts)
        else:
            assert fac.spread <= tol
            assert spread_of(fac.core) <= tol
            assert fac.iterations <= bound
            assert fac.restarts == len(fac.attempts) <= max_restarts
    kind = BOOKKEEPING_KINDS.get((n, seed, max_restarts))
    if kind is not None:
        assert _outcome_kind(outcome, spreads) == kind


def _attempt_lengths(u, opts):
    """The iterations of every attempt of ``zxz_scale(u, opts)``: the
    abandoned ones, then the successful one if there is one."""
    try:
        fac = zxz_scale(u, opts)
    except ConvergenceError as e:
        return [iterations for iterations, _ in e.attempts]
    return [iterations for iterations, _ in fac.attempts] + [fac.iterations]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-6, 1e-10, 1e-12, 1e-300, 5e-324]),
)
def test_every_attempt_ends_within_bound(n, seed, tol):
    # At most MAX_SWEEPS sweeps, POLISH_STEPS missed Gauss-Newton steps and
    # the steps that halve the spread from sqrt(n) + 1 to tol. No attempt
    # reaches 1e-300 or the subnormal 5e-324; they all end by missing.
    bound = attempt_bound(n, tol)
    assert max(_attempt_lengths(haar_unitary(n, seed), ScalingOptions(tol=tol))) <= bound


@pytest.mark.parametrize("rng_seed", range(4))
@pytest.mark.parametrize("n", range(2, 14))
def test_fourier_attempts_end_within_bound(n, rng_seed):
    # DFT_8 once took 77 iterations in one successful attempt, against a
    # bound of 54.
    opts = ScalingOptions(rng_seed=rng_seed)
    assert max(_attempt_lengths(dft_matrix(n), opts)) <= attempt_bound(n, opts.tol)


def test_attempt_bound_values():
    assert attempt_bound(32, 1e-10) == 54
    assert attempt_bound(8, 1e-10) == 54
    assert attempt_bound(2, 1e-6) == 40
    # (sqrt(2) + 1) / 5e-324 overflows; the difference of logarithms does not.
    assert attempt_bound(2, 5e-324) == 1094
    # A target above every possible spread needs no halving step.
    assert attempt_bound(4, 10.0) == MAX_SWEEPS + POLISH_STEPS


# Reducible inputs: the support of V splits into blocks, each with a gauge
# of its own, so the gauge g = (1, ..., 1, -1, ..., -1) no longer spans
# the null space of the Gauss-Newton system. The normal equations are
# singular there, and the step must fall back to lstsq.

REDUCIBLE_BLOCKS = [(2, 3), (1, 5), (3, 4), (2, 2, 3)]


def _block_unitary(blocks, seed):
    """A Haar unitary of each size in blocks on the diagonal, with rows and
    columns permuted at random: a reducible unitary."""
    n = sum(blocks)
    u = np.zeros((n, n), dtype=complex)
    start = 0
    for k, size in enumerate(blocks):
        u[start : start + size, start : start + size] = haar_unitary(size, 100 * seed + k)
        start += size
    rng = np.random.default_rng(seed)
    return u[rng.permutation(n)][:, rng.permutation(n)]


def _coupling(n, eps, seed):
    """e^(i eps H) for a random Hermitian H with entries of order 1."""
    rng = np.random.default_rng(1000 + seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, q = np.linalg.eigh((z + z.conj().T) / 2)
    return (q * np.exp(1j * eps * w)) @ q.conj().T


def _rotation_plus_one():
    """The rotation by pi/4 (+) 1: its first row sum and second column sum
    vanish."""
    c = np.sqrt(0.5)
    return np.array([[c, -c, 0], [c, c, 0], [0, 0, 1]], dtype=complex)


@pytest.mark.parametrize("eps", [0.0, 1e-15, 1e-11, 1e-7])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("blocks", [None, *REDUCIBLE_BLOCKS])
def test_reducible_inputs_scale(blocks, seed, eps):
    # blocks None is the rotation by pi/4 (+) 1. eps = 0 is reducible; the
    # others are nearly reducible.
    u = _rotation_plus_one() if blocks is None else _block_unitary(blocks, seed)
    if eps:
        u = u @ _coupling(len(u), eps, seed)
    fac = zxz_scale(u)
    assert fac.spread <= 1e-10
    assert spread_of(fac.core) <= 1e-10
    assert max_abs_diff(fac.reconstruct(), u) <= 1e-9
    assert verify(decompose_unitary(u), u).ok


# The step solves the normal equations, whose matrix A has the condition
# number kappa = (s_max / s_min)^2, with s_min the smallest singular value
# of the least-squares system other than the gauge's. Where the step comes
# from them it may deviate from the oracle by about kappa * eps relative,
# as any backward-stable solve of A does. Measured: at most 5.5 kappa * eps
# (1.2e-13 relative) on the Haar examples below, 5.9 kappa * eps over
# 4 000 other Haar iterates. Far past NORMAL_COND, at a (nearly) reducible
# V, only the lstsq path may run, and it is the oracle's own solve.
STEP_ERR_PER_COND = 8.0
LSTSQ_ONLY_COND = 1e12


def _reference_step(v, rows, cols):
    """The least-norm least-squares step on the (4n, 2n) real system
    [Re B; Im B] d = [Re iF; Im iF], solved by ``lstsq`` as before the
    normal equations: the oracle for ``scaling._newton_step``. Also
    returns kappa."""
    n = len(rows)
    lines = np.concatenate([rows, cols])
    m = np.zeros((4 * n, 2 * n))
    re, im = m[: 2 * n], m[2 * n :]
    re[:n, n:] = v.real
    re[n:, :n] = v.real.T
    im[:n, n:] = v.imag
    im[n:, :n] = v.imag.T
    diag = np.arange(2 * n)
    re[diag, diag] = lines.real
    im[diag, diag] = lines.imag
    f = lines - 1.0
    d, _, _, sing = np.linalg.lstsq(m, np.concatenate([-f.imag, f.real]), rcond=None)
    with np.errstate(divide="ignore"):
        kappa = (sing[0] / sing[-2]) ** 2
    return d, kappa


def _sweeps(v, count):
    for _ in range(count):
        w = v * scaling._conj_phases(v.sum(axis=1))[:, None]
        v = w * scaling._conj_phases(w.sum(axis=0))[None, :]
    return v


def _check_step(v):
    rows, cols = v.sum(axis=1), v.sum(axis=0)
    ws = scaling._Workspace(len(v))
    ws.lines[:] = np.concatenate([rows, cols])
    ws.res[:] = ws.lines - 1.0
    # Once an attempt's normal equations have failed, its steps are the
    # lstsq steps of the oracle.
    lstsq, normal = scaling._newton_step(v, ws, False)
    assert not normal
    step, normal = scaling._newton_step(v, ws, True)
    ref, kappa = _reference_step(v, rows, cols)
    assert np.array_equal(lstsq, ref)
    if kappa > LSTSQ_ONLY_COND:
        assert not normal
        assert np.array_equal(step, ref)
    else:
        bound = STEP_ERR_PER_COND * kappa * np.finfo(float).eps
        assert np.abs(step - ref).max() <= bound * np.abs(ref).max()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 16), st.integers(0, 2**32 - 1), st.integers(0, 7))
def test_step_matches_lstsq_on_haar_iterates(n, seed, sweeps):
    _check_step(_sweeps(haar_unitary(n, seed), sweeps))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=3),
    st.integers(0, 2**16),
    st.integers(0, 7),
    st.sampled_from([0.0, 1e-15, 1e-11, 1e-7, 1e-5, 1e-3]),
)
def test_step_matches_lstsq_on_reducible_iterates(blocks, seed, sweeps, eps):
    u = _block_unitary(blocks, seed)
    if eps:
        u = u @ _coupling(len(u), eps, seed)
    _check_step(_sweeps(u, sweeps))


# The bit-identity oracle: zxz_scale's loop with the arithmetic it had
# before each call reused one workspace, the Gauss-Newton system was
# rewritten in place and the phases were applied in place. Every step
# forms and solves the normal equations and falls back to lstsq step by
# step, so the two agree bit for bit wherever no step's conditioning check
# fails, and where every step's check fails.


def _oracle_step(v, rows, cols):
    n = len(rows)
    lines = np.concatenate([rows, cols])
    b = np.zeros((2 * n, 2 * n + 1), dtype=complex)
    b[:n, n:-1] = v
    b[n:, :n] = v.T
    b.flat[:: 2 * n + 2] = lines
    b[:, -1] = 1j * (lines - 1.0)
    normal = (b[:, :-1].conj().T @ b).real
    gauge, probe = scaling._normal_constants(n)
    a = normal[:, :-1] + gauge
    try:
        x = np.linalg.solve(a, np.column_stack([normal[:, -1], probe]))
    except np.linalg.LinAlgError:
        regular = False
    else:
        regular = np.abs(x[:, 1]).max() * a.diagonal().max() < scaling.NORMAL_COND * 2 * n
    if regular:
        d = x[:, 0]
    else:
        real = np.concatenate([b.real, b.imag])
        d = np.linalg.lstsq(real[:, :-1], real[:, -1], rcond=None)[0]
    return d[:n], d[n:]


def _oracle_scale(a, opts):
    """(alpha, z1, z2, core, spread, iterations, attempts) of the oracle's
    factorization of ``a``, or (None, attempts) where it fails."""
    n = len(a)
    rng = None
    attempts = []
    for restart in range(MAX_RESTARTS + 1):
        if restart == 0:
            left = right = np.ones(n, dtype=complex)
        else:
            if rng is None:
                rng = np.random.Generator(np.random.Philox(opts.rng_seed))
            left = np.exp(2j * np.pi * rng.random(n))
            right = np.exp(2j * np.pi * rng.random(n))
        v = left[:, None] * a * right[None, :]
        best = np.inf
        it = misses = 0
        newton = False
        while True:
            rows = v.sum(axis=1)
            cols = v.sum(axis=0)
            spread = line_sum_spread(rows, cols)
            if newton and not spread <= best / 2:
                misses += 1
            best = min(best, spread)
            if spread <= opts.tol:
                z1, z2 = np.conj(left), np.conj(right)
                alpha = float(np.angle(z1[0] * z2[0]))
                z1, z2 = z1 / z1[0], z2 / z2[0]
                z1[0] = z2[0] = 1
                return alpha, z1, z2, v, spread, it, tuple(attempts)
            if misses >= POLISH_STEPS:
                break
            newton = newton or spread <= POLISH_SPREAD or it >= MAX_SWEEPS
            it += 1
            if newton:
                dt, dp = _oracle_step(v, rows, cols)
                row_ph, col_ph = np.exp(1j * dt), np.exp(1j * dp)
                w = v * row_ph[:, None]
            else:
                row_ph = scaling._conj_phases(rows)
                w = v * row_ph[:, None]
                col_ph = scaling._conj_phases(w.sum(axis=0))
            v = w * col_ph[None, :]
            left = left * row_ph
            right = right * col_ph
        attempts.append((it, best))
    return None, tuple(attempts)


def _bits(outcome):
    """``outcome`` with each array replaced by its bytes, for comparison."""
    return tuple(x.tobytes() if isinstance(x, np.ndarray) else x for x in outcome)


def _assert_matches_oracle(u, opts=ScalingOptions()):
    try:
        fac = zxz_scale(u, opts)
    except ConvergenceError as e:
        got = (None, tuple(e.attempts))
    else:
        got = (fac.alpha, fac.z1, fac.z2, fac.core, fac.spread, fac.iterations, fac.attempts)
    assert _bits(got) == _bits(_oracle_scale(np.asarray(u, dtype=complex), opts))


# Seeds 266 and 253 (n = 3), 16 (n = 4), 11 (n = 7) and 10 (n = 11)
# restart.
@pytest.mark.parametrize("n", range(3, 17))
def test_haar_matches_oracle_bit_for_bit(n):
    for seed in [*range(6), 266, 253, 16, 11, 10]:
        _assert_matches_oracle(haar_unitary(n, seed))


@pytest.mark.parametrize("n", range(3, 14))
def test_fourier_matches_oracle_bit_for_bit(n):
    for rng_seed in range(4):
        _assert_matches_oracle(dft_matrix(n), ScalingOptions(rng_seed=rng_seed))


@pytest.mark.parametrize("blocks", [None, (3, 4)])
def test_reducible_matches_oracle_bit_for_bit(blocks):
    # Every conditioning check of these inputs fails, so going straight to
    # lstsq after the first failure changes no bit. The rotation by
    # pi/4 (+) 1 abandons its first attempt.
    _assert_matches_oracle(_rotation_plus_one() if blocks is None else _block_unitary(blocks, 1))


@pytest.mark.parametrize("n,seeds", [(7, (0, 11)), (3, (266, 253))], ids=["n7", "n3"])
def test_results_share_no_workspace(n, seeds):
    # Each call reuses one workspace of its own; a later call at the same n
    # must leave an earlier result as it was. The second seed restarts.
    made = []
    workspace = scaling._Workspace

    def spy(size):
        made.append(workspace(size))
        return made[-1]

    with mock.patch.object(scaling, "_Workspace", spy):
        first = zxz_scale(haar_unitary(n, seeds[0]))
        kept = [first.core.copy(), first.z1.copy(), first.z2.copy()]
        second = zxz_scale(haar_unitary(n, seeds[1]))
    assert len(made) == 2 and second.restarts > 0
    for got, want in zip([first.core, first.z1, first.z2], kept):
        assert np.array_equal(got, want)
    for fac in (first, second):
        for got in (fac.core, fac.z1, fac.z2):
            for ws in made:
                for name in workspace.__slots__:
                    assert not np.shares_memory(got, getattr(ws, name))
