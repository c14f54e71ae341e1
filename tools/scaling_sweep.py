"""Sweep ``zxz_scale`` over Haar and Fourier inputs and report its failures.

    PYTHONPATH=src python3 tools/scaling_sweep.py

Runs 575 calls with the default ``ScalingOptions``: ``haar_unitary(n, seed)``
for n = 2..32 and seeds 0..16, and ``dft_matrix(n)`` for n = 2..13 with
``rng_seed`` 0..3. Prints

* every ``ConvergenceError``, with its attempt history;
* the total number of restarts;
* the longest abandoned attempt, found by running each call that restarted
  again with one restart fewer (the restart draws do not depend on the
  earlier attempts, so that run repeats the abandoned attempts exactly);
* the median and maximum wall time of the Haar calls at n = 16 and 32.

Exits 1 if any call raised ``ConvergenceError``. Outside Tier-1: the sweep
takes several seconds and its times depend on the host.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

from xubirkhoff import ConvergenceError, ScalingOptions, dft_matrix, haar_unitary, zxz_scale

HAAR_SIZES = range(2, 33)
HAAR_SEEDS = range(17)
DFT_SIZES = range(2, 14)
DFT_RNG_SEEDS = range(4)
TIMED_SIZES = (16, 32)


def _calls():
    """(label, size to time or None, matrix, options) of every call."""
    for n in HAAR_SIZES:
        for seed in HAAR_SEEDS:
            yield f"haar_unitary({n}, {seed})", n, haar_unitary(n, seed), ScalingOptions()
    for n in DFT_SIZES:
        for rng_seed in DFT_RNG_SEEDS:
            label = f"dft_matrix({n}), rng_seed={rng_seed}"
            yield label, None, dft_matrix(n), ScalingOptions(rng_seed=rng_seed)


def _abandoned(u, opts: ScalingOptions, restarts: int) -> tuple:
    """The (iterations, reason, best) history of the attempts before the
    successful one."""
    try:
        zxz_scale(u, replace(opts, max_restarts=restarts - 1))
    except ConvergenceError as e:
        return e.attempts
    raise AssertionError("a call that restarted converged with fewer restarts")


def main() -> int:
    calls = errors = restarts = 0
    longest = (0, "none")
    times = {n: [] for n in TIMED_SIZES}
    for label, n, u, opts in _calls():
        calls += 1
        t0 = time.perf_counter()
        try:
            fac = zxz_scale(u, opts)
        except ConvergenceError as e:
            errors += 1
            print(f"ConvergenceError: {label}: {e} attempts={e.attempts}")
            continue
        elapsed = time.perf_counter() - t0
        if n in times:
            times[n].append(elapsed)
        restarts += fac.restarts
        if fac.restarts:
            for iterations, _, _ in _abandoned(u, opts, fac.restarts):
                longest = max(longest, (iterations, label))
    print(f"calls: {calls}")
    print(f"ConvergenceErrors: {errors}")
    print(f"restarts: {restarts}")
    print(f"longest abandoned attempt: {longest[0]} iterations ({longest[1]})")
    for n, ts in times.items():
        if not ts:
            continue
        print(
            f"Haar n={n}: median {statistics.median(ts) * 1e3:.1f} ms, "
            f"max {max(ts) * 1e3:.1f} ms over {len(ts)} calls"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
