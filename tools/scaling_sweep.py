"""Sweep ``zxz_scale`` over Haar and Fourier inputs and report its failures.

    PYTHONPATH=src python3 tools/scaling_sweep.py

Runs 575 calls with the default ``ScalingOptions``: ``haar_unitary(n, seed)``
for n = 2..32 and seeds 0..16, and ``dft_matrix(n)`` for n = 2..13 with
``rng_seed`` 0..3. Prints

* every ``ConvergenceError``, with its attempt history;
* the total number of restarts;
* the scaling iterations of all attempts, abandoned ones included, split
  into sweeps and Gauss-Newton steps (counted by wrapping
  ``scaling._newton_step``);
* the longest abandoned attempt, read from ``ZXZFactorization.attempts``;
* the median and maximum wall time of the Haar calls at n = 16 and 32.

Exits 1 if any call raised ``ConvergenceError`` or an abandoned attempt
took more than ABANDON_MAX iterations. Outside Tier-1: the sweep takes
several seconds and its times depend on the host.
"""

from __future__ import annotations

import statistics
import sys
import time

from xubirkhoff import ConvergenceError, ScalingOptions, dft_matrix, haar_unitary, zxz_scale
from xubirkhoff import scaling

HAAR_SIZES = range(2, 33)
HAAR_SEEDS = range(17)
DFT_SIZES = range(2, 14)
DFT_RNG_SEEDS = range(4)
TIMED_SIZES = (16, 32)
# The most iterations an abandoned attempt may cost.
ABANDON_MAX = 150


def _calls():
    """(label, size to time or None, matrix, options) of every call."""
    for n in HAAR_SIZES:
        for seed in HAAR_SEEDS:
            yield f"haar_unitary({n}, {seed})", n, haar_unitary(n, seed), ScalingOptions()
    for n in DFT_SIZES:
        for rng_seed in DFT_RNG_SEEDS:
            label = f"dft_matrix({n}), rng_seed={rng_seed}"
            yield label, None, dft_matrix(n), ScalingOptions(rng_seed=rng_seed)


def _count_newton_steps() -> list[int]:
    """Make every later Gauss-Newton step add 1 to the returned counter."""
    count = [0]
    step = scaling._newton_step

    def counted(*args):
        count[0] += 1
        return step(*args)

    scaling._newton_step = counted
    return count


def main() -> int:
    calls = errors = restarts = iterations = newton = 0
    longest = (0, "none")
    times = {n: [] for n in TIMED_SIZES}
    steps = _count_newton_steps()
    for label, n, u, opts in _calls():
        calls += 1
        before = steps[0]
        t0 = time.perf_counter()
        try:
            fac = zxz_scale(u, opts)
        except ConvergenceError as e:
            errors += 1
            iterations += sum(i for i, _, _ in e.attempts)
            print(f"ConvergenceError: {label}: {e} attempts={e.attempts}")
            continue
        finally:
            newton += steps[0] - before
        elapsed = time.perf_counter() - t0
        if n in times:
            times[n].append(elapsed)
        restarts += fac.restarts
        iterations += fac.iterations
        for abandoned, _, _ in fac.attempts:
            iterations += abandoned
            longest = max(longest, (abandoned, label))
    print(f"calls: {calls}")
    print(f"ConvergenceErrors: {errors}")
    print(f"restarts: {restarts}")
    print(
        f"scaling iterations: {iterations} "
        f"({iterations - newton} sweeps, {newton} Gauss-Newton steps)"
    )
    print(f"longest abandoned attempt: {longest[0]} iterations ({longest[1]})")
    for n, ts in times.items():
        if not ts:
            continue
        print(
            f"Haar n={n}: median {statistics.median(ts) * 1e3:.1f} ms, "
            f"max {max(ts) * 1e3:.1f} ms over {len(ts)} calls"
        )
    if longest[0] > ABANDON_MAX:
        print(f"an abandoned attempt took more than {ABANDON_MAX} iterations")
    return 1 if errors or longest[0] > ABANDON_MAX else 0


if __name__ == "__main__":
    sys.exit(main())
