"""Factor a unitary U as e^(i*alpha) Z1 X Z2 with X in XU(n).

Z1 and Z2 are diagonal unitaries whose first entry is 1 (the phase freedom
is absorbed into alpha) and X has all 2n line sums equal to 1. Writing
V = diag(e^(i theta)) U diag(e^(i phi)), the factors are phase angles
theta, phi that make every line sum of V equal to 1. Each attempt is one
loop. Every pass measures the row and column sums and the spread (the
largest distance of a line sum from 1) once, applies the exit rules below,
then takes one step of one of two kinds. Both kinds give row and column
phases, and one update applies them to V and to the accumulated factors.

* Sweeps (De Vos & De Baerdemacker, "Scaling a unitary matrix", 2014),
  for at most MAX_SWEEPS = 10 passes while the spread is above
  POLISH_SPREAD: left-multiplying by the conjugate phases of the row sums
  and right-multiplying by the conjugate phases of the column sums
  monotonically increases the total entry sum, and the fixed points with
  equal line sums are exactly the XU cores. A sum that is exactly zero
  has no phase and is left untouched for that half step. This is the
  global phase: it converges from anywhere, but only linearly, so it only
  brings the attempt within reach of Gauss-Newton.
* Gauss-Newton steps, from the first pass whose spread is at or below
  POLISH_SPREAD = 0.3, or after MAX_SWEEPS sweeps, to the end of the
  attempt: steps on the 2n angles drive the 4n real components of
  [V 1 - 1; 1^T V - 1] to zero, quadratically at a regular solution. The
  gauge direction (theta + c, phi - c), which leaves V unchanged, is
  taken out by solving each linearized least-squares problem for its
  least-norm step with a least-squares solve (``np.linalg.lstsq``).

The sweeps are capped because unstable fixed points with positive-real
but unequal line sums exist (for example the rotation by pi/4, whose
second row and column sums vanish; Idel & Wolf, "Sinkhorn normal form for
unitary matrices", 2015), and sweeps near one creep towards it for
hundreds or thousands of passes. Gauss-Newton either finds a nearby
solution or misses, and a restart is cheaper than creeping. POLISH_SPREAD
is 0.3 because from there the Gauss-Newton steps converge, or miss within
a few iterations and restart; a higher one (0.5, 1) misses from further
out and restarts more often.

The exit rules, checked in this order on each pass:

* the spread is at most ``tol``: the attempt succeeds with this iterate;
* ``max_iters`` steps are spent: the attempt is abandoned as capped;
* POLISH_STEPS Gauss-Newton steps have missed, that is failed to halve
  the smallest spread so far: the attempt is abandoned as stalled. Misses
  are tolerated because a near-singular Jacobian can send a step far
  along a flat direction before the next ones converge; steps that halve
  the spread are not limited because at a singular solution Gauss-Newton
  converges only linearly.

So every attempt ends within ``attempt_bound(n, tol)`` iterations, by
construction: at most MAX_SWEEPS sweeps, at most POLISH_STEPS missed
Gauss-Newton steps, and at most ceil(log2((sqrt(n) + 1) / tol)) steps
that halve the smallest spread, since no line sum of a unitary is
further than sqrt(n) + 1 from 1. The default ``max_iters`` is above that
bound, so it only limits attempts when set lower.

After an abandoned attempt the next one starts from a random
diagonal-phase perturbation. Restart k draws its phases from a seeded
counter-based generator (numpy Philox), the same ones whatever the earlier
attempts did, so runs are reproducible. The generator is only built
once a restart is needed.

``iterations`` counts the sweeps plus the Gauss-Newton steps of the
successful attempt; ``attempts`` keeps the history of the abandoned ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .numerics import check_int, line_sum_spread, require_unitary

UNITARY_TOL = 1e-8
# An attempt switches to Gauss-Newton steps at the first pass whose
# spread is at most POLISH_SPREAD or after MAX_SWEEPS sweeps; POLISH_STEPS
# of those steps that fail to halve the spread end it.
POLISH_SPREAD = 3e-1
MAX_SWEEPS = 10
POLISH_STEPS = 8


@dataclass(frozen=True)
class ScalingOptions:
    """Knobs for the phase scaling.

    tol is the target spread: the maximum modulus distance of any of the
    2n line sums from 1. max_iters caps the sweeps plus Gauss-Newton
    steps of one attempt; max_restarts is the number of attempts after
    the first; rng_seed (an integer >= 0) seeds the restart phases.
    """

    tol: float = 1e-10
    max_iters: int = 10_000
    max_restarts: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        check_int(self.max_iters, 1, "max_iters", ValueError)
        check_int(self.max_restarts, 0, "max_restarts", ValueError)
        # Checked here because the restart generator is built lazily:
        # a bad seed must not pass silently when no restart happens.
        check_int(self.rng_seed, 0, "rng_seed", ValueError)


@dataclass(frozen=True)
class ZXZFactorization:
    """Result of ``zxz_scale``: input = e^(i*alpha) diag(z1) core diag(z2).

    z1 and z2 are unit-modulus vectors with first entry 1; core is XU
    within the achieved spread. iterations counts the sweeps plus
    Gauss-Newton steps of the successful attempt, restarts how many
    attempts preceded it. attempts holds one ``(iterations, stop_reason,
    best_spread)`` tuple per abandoned attempt, in order, the same tuples
    as ``ConvergenceError.attempts``.
    """

    alpha: float
    z1: np.ndarray
    z2: np.ndarray
    core: np.ndarray
    spread: float
    iterations: int
    restarts: int
    attempts: tuple

    def reconstruct(self) -> np.ndarray:
        return (
            np.exp(1j * self.alpha)
            * self.z1[:, None]
            * self.core
            * self.z2[None, :]
        )


def _conj_phases(v: np.ndarray) -> np.ndarray:
    """conj(v)/|v| entrywise, with phase 1 wherever v is exactly zero."""
    a = np.abs(v)
    if a.all():
        return np.conj(v) / a
    zero = a == 0
    return np.where(zero, 1.0 + 0.0j, np.conj(v) / np.where(zero, 1.0, a))


def _newton_step(v, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton phase corrections (dtheta, dphi) for the residual
    F = [V 1 - 1; 1^T V - 1] of V -> diag(e^(i dtheta)) V diag(e^(i dphi)).

    The Jacobian with respect to the angles is i B with
    B = [[diag(rows), V], [V^T, diag(cols)]], so the step minimizes
    |B d - i F| over real d, stacked as real and imaginary parts for a
    least-squares solve (``np.linalg.lstsq``). B (1, -1) = 0 is the gauge
    (theta + c, phi - c); the least-norm step leaves it out.

    The real system [Re B; Im B] is filled into one preallocated array:
    the off-diagonal blocks of B are V and V^T, its diagonal the 2n line
    sums.
    """
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
    d = np.linalg.lstsq(m, np.concatenate([-f.imag, f.real]), rcond=None)[0]
    return d[:n], d[n:]


def attempt_bound(n: int, tol: float) -> int:
    """The most iterations one attempt of ``zxz_scale`` can take at size n
    and target spread tol, whatever ``max_iters`` is (module docstring)."""
    halvings = math.ceil(math.log2((math.sqrt(n) + 1) / tol))
    return MAX_SWEEPS + POLISH_STEPS + max(0, halvings)


def zxz_scale(u, opts: ScalingOptions | None = None) -> ZXZFactorization:
    """Factor a unitary matrix through the XU subgroup.

    Raises MembershipError for non-unitary input and ConvergenceError
    (carrying the best spread seen and the history of every attempt) if
    no attempt reaches opts.tol.
    """
    opts = opts or ScalingOptions()
    a = require_unitary(u, UNITARY_TOL, "scaling input")
    n = a.shape[0]
    rng = None
    attempts = []

    for restart in range(opts.max_restarts + 1):
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
                return _assemble(a, left, right, v, spread, it, attempts)
            if it >= opts.max_iters:
                reason = "cap"
                break
            if misses >= POLISH_STEPS:
                reason = "stall"
                break
            newton = newton or spread <= POLISH_SPREAD or it >= MAX_SWEEPS
            it += 1
            if newton:
                dt, dp = _newton_step(v, rows, cols)
                row_ph, col_ph = np.exp(1j * dt), np.exp(1j * dp)
                w = v * row_ph[:, None]
            else:
                row_ph = _conj_phases(rows)
                w = v * row_ph[:, None]
                col_ph = _conj_phases(w.sum(axis=0))
            v = w * col_ph[None, :]
            left = left * row_ph
            right = right * col_ph
        attempts.append((it, reason, best))

    best = min(b for _, _, b in attempts)
    raise ConvergenceError(
        f"no convergence to spread {opts.tol} after "
        f"{opts.max_restarts + 1} attempts; best spread {best:.3e}",
        best_spread=float(best),
        attempts=attempts,
    )


def _assemble(a, left, right, core, spread, iterations, attempts):
    # a = diag(conj(left)) core diag(conj(right)); normalize the leading
    # entries of both diagonals to 1 and absorb their product into alpha.
    z1 = np.conj(left)
    z2 = np.conj(right)
    phase = z1[0] * z2[0]
    alpha = float(np.angle(phase))
    z1 = z1 / z1[0]
    z2 = z2 / z2[0]
    # z1[0], z2[0] are exactly 1 after division; phase drift relative to
    # exp(1j*alpha) is below 1e-16 and lands in the reconstruction residual.
    return ZXZFactorization(
        alpha=alpha,
        z1=z1,
        z2=z2,
        core=core,
        spread=float(spread),
        iterations=iterations,
        restarts=len(attempts),
        attempts=tuple(attempts),
    )
