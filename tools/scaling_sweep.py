"""Sweep ``zxz_scale`` over Haar, Fourier and reducible inputs and report
its failures.

    PYTHONPATH=src python3 tools/scaling_sweep.py

Runs 767 calls with the default ``ScalingOptions``: ``haar_unitary(n, seed)``
for n = 2..32 and seeds 0..16; ``dft_matrix(n)`` for n = 2..13 with
``rng_seed`` 0..3; and 192 reducible or nearly reducible inputs, a
permuted block-diagonal unitary with Haar blocks for each of 12 block
splits of n = 4..12 and seeds 0..3, alone and times e^(i eps H) for a
random Hermitian H and eps = 1e-12, 1e-8, 1e-4. Prints

* every ``ConvergenceError``, with its attempt history;
* the total number of restarts;
* the scaling iterations of all attempts, abandoned ones included, split
  into sweeps and Gauss-Newton steps (counted by wrapping
  ``scaling._newton_step``), and how many of those steps took the
  ``lstsq`` path (counted by wrapping ``scaling._lstsq_step``);
* the longest abandoned attempt, read from ``ZXZFactorization.attempts``,
  and the longest attempt of any kind;
* every attempt, successful or abandoned, that took more iterations than
  ``scaling.attempt_bound(n, tol)``;
* the median and maximum wall time of the Haar calls at n = 16 and 32.

Exits 1 if any call raised ``ConvergenceError`` or any attempt took more
than ``attempt_bound(n, tol)`` iterations. Outside Tier-1: the sweep takes
several seconds and its times depend on the host.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from xubirkhoff import ConvergenceError, ScalingOptions, dft_matrix, haar_unitary, zxz_scale
from xubirkhoff import scaling

HAAR_SIZES = range(2, 33)
HAAR_SEEDS = range(17)
DFT_SIZES = range(2, 14)
DFT_RNG_SEEDS = range(4)
TIMED_SIZES = (16, 32)
BLOCK_SPLITS = (
    (2, 2), (1, 4), (2, 3), (3, 3), (2, 5), (3, 4),
    (2, 2, 3), (4, 4), (3, 6), (5, 5), (4, 7), (3, 4, 5),
)
BLOCK_SEEDS = range(4)
COUPLINGS = (0.0, 1e-12, 1e-8, 1e-4)


def _block_unitary(blocks, seed):
    """Haar blocks of the given sizes on the diagonal, rows and columns
    permuted: a reducible unitary."""
    n = sum(blocks)
    u = np.zeros((n, n), dtype=complex)
    start = 0
    for k, size in enumerate(blocks):
        u[start : start + size, start : start + size] = haar_unitary(size, 100 * seed + k)
        start += size
    rng = np.random.Generator(np.random.Philox(seed))
    return u[rng.permutation(n)][:, rng.permutation(n)]


def _coupling(n, eps, seed):
    """e^(i eps H) for a random Hermitian H with entries of order 1."""
    rng = np.random.Generator(np.random.Philox(1000 + seed))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, q = np.linalg.eigh((z + z.conj().T) / 2)
    return (q * np.exp(1j * eps * w)) @ q.conj().T


def _calls():
    """(label, size to time or None, matrix, options) of every call."""
    for n in HAAR_SIZES:
        for seed in HAAR_SEEDS:
            yield f"haar_unitary({n}, {seed})", n, haar_unitary(n, seed), ScalingOptions()
    for n in DFT_SIZES:
        for rng_seed in DFT_RNG_SEEDS:
            label = f"dft_matrix({n}), rng_seed={rng_seed}"
            yield label, None, dft_matrix(n), ScalingOptions(rng_seed=rng_seed)
    for blocks in BLOCK_SPLITS:
        for seed in BLOCK_SEEDS:
            u = _block_unitary(blocks, seed)
            for eps in COUPLINGS:
                coupled = u @ _coupling(len(u), eps, seed) if eps else u
                label = f"blocks {blocks}, seed {seed}, eps {eps:g}"
                yield label, None, coupled, ScalingOptions()


def _count_calls(name: str) -> list[int]:
    """Make every later call of ``scaling.<name>`` add 1 to the returned
    counter."""
    count = [0]
    func = getattr(scaling, name)

    def counted(*args):
        count[0] += 1
        return func(*args)

    setattr(scaling, name, counted)
    return count


def main() -> int:
    calls = errors = restarts = iterations = newton = 0
    longest = longest_any = (0, "none")
    over = []
    times = {n: [] for n in TIMED_SIZES}
    steps = _count_calls("_newton_step")
    lstsq_steps = _count_calls("_lstsq_step")
    for label, n, u, opts in _calls():
        calls += 1
        bound = scaling.attempt_bound(len(u), opts.tol)
        before = steps[0]
        t0 = time.perf_counter()
        try:
            fac = zxz_scale(u, opts)
        except ConvergenceError as e:
            errors += 1
            print(f"ConvergenceError: {label}: {e} attempts={e.attempts}")
            abandoned, succeeded = e.attempts, []
        else:
            elapsed = time.perf_counter() - t0
            if n in times:
                times[n].append(elapsed)
            restarts += fac.restarts
            abandoned, succeeded = fac.attempts, [fac.iterations]
        finally:
            newton += steps[0] - before
        lengths = [i for i, _ in abandoned] + succeeded
        iterations += sum(lengths)
        for i, _ in abandoned:
            longest = max(longest, (i, label))
        longest_any = max(longest_any, (max(lengths), label))
        if max(lengths) > bound:
            over.append(f"{label}: attempts of {lengths} iterations, bound {bound}")
    print(f"calls: {calls}")
    print(f"ConvergenceErrors: {errors}")
    print(f"restarts: {restarts}")
    print(
        f"scaling iterations: {iterations} "
        f"({iterations - newton} sweeps, {newton} Gauss-Newton steps)"
    )
    print(f"Gauss-Newton steps on the lstsq path: {lstsq_steps[0]}")
    print(f"longest abandoned attempt: {longest[0]} iterations ({longest[1]})")
    print(f"longest attempt: {longest_any[0]} iterations ({longest_any[1]})")
    for line in over:
        print(f"over attempt_bound: {line}")
    for n, ts in times.items():
        if not ts:
            continue
        print(
            f"Haar n={n}: median {statistics.median(ts) * 1e3:.1f} ms, "
            f"max {max(ts) * 1e3:.1f} ms over {len(ts)} calls"
        )
    return 1 if errors or over else 0


if __name__ == "__main__":
    sys.exit(main())
