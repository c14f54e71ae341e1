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
  [V 1 - 1; 1^T V - 1] to zero, quadratically at a regular solution. Each
  step is the least-norm solution of one linearized least-squares
  problem, which leaves out the gauge direction (theta + c, phi - c) that
  does not change V. It is solved from the 2n x 2n normal equations with
  the gauge added as a rank-one term, which makes them regular when the
  support of V is connected. Where they are singular or ill-conditioned,
  as on a (nearly) reducible V whose support (nearly) splits into blocks
  that each carry a gauge of their own, the step falls back to a
  least-squares solve of the full system (``np.linalg.lstsq``).

The sweeps are capped because unstable fixed points with positive-real
but unequal line sums exist (for example the rotation by pi/4, whose
second row and column sums vanish; Idel & Wolf, "Sinkhorn normal form for
unitary matrices", 2015), and sweeps near one creep towards it for
hundreds or thousands of passes. Gauss-Newton either finds a nearby
solution or misses, and a restart is cheaper than creeping. POLISH_SPREAD
is 0.3 because from there the Gauss-Newton steps converge, or miss within
a few iterations and restart; a higher one (0.5, 1) misses from further
out and restarts more often.

An attempt ends in one of two ways, checked in this order on each pass:

* the spread is at most ``tol``: the attempt succeeds with this iterate;
* POLISH_STEPS Gauss-Newton steps have missed, that is failed to halve
  the smallest spread so far: the attempt is abandoned. Misses are
  tolerated because a near-singular Jacobian can send a step far along a
  flat direction before the next ones converge; steps that halve the
  spread are not limited because at a singular solution Gauss-Newton
  converges only linearly.

So every attempt ends within ``attempt_bound(n, tol)`` iterations, by
construction: at most MAX_SWEEPS sweeps, at most POLISH_STEPS missed
Gauss-Newton steps, and at most ceil(log2(sqrt(n) + 1) - log2(tol)) steps
that halve the smallest spread, since no line sum of a unitary is
further than sqrt(n) + 1 from 1.

After an abandoned attempt the next one starts from a random
diagonal-phase perturbation, for at most MAX_RESTARTS = 8 restarts.
Restart k draws its phases from a seeded counter-based generator (numpy
Philox), the same ones whatever the earlier attempts did, so runs are
reproducible. The generator is only built once a restart is needed.

``iterations`` counts the sweeps plus the Gauss-Newton steps of the
successful attempt; ``attempts`` keeps the history of the abandoned ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .numerics import check_int, line_sum_spread, require_unitary

UNITARY_TOL = 1e-8
# An attempt switches to Gauss-Newton steps at the first pass whose
# spread is at most POLISH_SPREAD or after MAX_SWEEPS sweeps; POLISH_STEPS
# of those steps that fail to halve the spread end it. At most
# MAX_RESTARTS attempts follow the first.
POLISH_SPREAD = 3e-1
MAX_SWEEPS = 10
POLISH_STEPS = 8
MAX_RESTARTS = 8
# A Gauss-Newton step from the normal equations is kept while
# max|A^-1 p| * max|A| < NORMAL_COND * 2n for the generic probe p, an
# estimate of the condition number of A that can fall short of it by a
# factor of about 2 000. The normal equations square the condition number
# of the least-squares system, so their error grows with it: kept steps
# agreed with lstsq to 3e-9 relative at worst on nearly reducible inputs,
# against 2e-7 with a bound of 1e6.
NORMAL_COND = 1e4


@dataclass(frozen=True)
class ScalingOptions:
    """Options of the phase scaling.

    tol is the target spread: the maximum modulus distance of any of the
    2n line sums from 1. rng_seed (an integer >= 0) seeds the restart
    phases.

    For composite n, a tol of about 1e-4 or more lets the recursive
    engine's inner blocks, unitary only to about tol**2, fail the fixed
    UNITARY_TOL gate of ``zxz_scale`` ("scaling input is not unitary").
    """

    tol: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        # Checked here because the restart generator is built lazily:
        # a bad seed must not pass silently when no restart happens.
        check_int(self.rng_seed, 0, "rng_seed", ValueError)


@dataclass(frozen=True)
class ZXZFactorization:
    """Result of ``zxz_scale``: input = e^(i*alpha) diag(z1) core diag(z2).

    z1 and z2 are unit-modulus vectors with first entry 1; core is XU
    within the achieved spread. iterations counts the sweeps plus
    Gauss-Newton steps of the successful attempt. attempts holds one
    ``(iterations, best_spread)`` tuple per abandoned attempt, in order,
    the same tuples as ``ConvergenceError.attempts``; restarts is their
    number.
    """

    alpha: float
    z1: np.ndarray
    z2: np.ndarray
    core: np.ndarray
    spread: float
    iterations: int
    attempts: tuple

    @property
    def restarts(self) -> int:
        return len(self.attempts)

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


@lru_cache(maxsize=64)
def _normal_constants(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only gauge term g g^T / 2n, g = (1, ..., 1, -1, ..., -1),
    and the fixed probe vector of the 2n x 2n normal equations at size n.

    The probe is standard normal (Philox, seed 0) so that it has a
    component along every eigenvector; a structured vector such as
    (1, 2, ..., 2n) is orthogonal to the second null vector of a
    block-diagonal V, and the conditioning check would never see it.
    """
    g = np.concatenate([np.ones(n), -np.ones(n)])
    gauge = np.outer(g, g) / (2 * n)
    probe = np.random.Generator(np.random.Philox(0)).standard_normal(2 * n)
    gauge.flags.writeable = False
    probe.flags.writeable = False
    return gauge, probe


def _newton_step(v, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton phase corrections (dtheta, dphi) for the residual
    F = [V 1 - 1; 1^T V - 1] of V -> diag(e^(i dtheta)) V diag(e^(i dphi)).

    The Jacobian with respect to the angles is i B with
    B = [[diag(rows), V], [V^T, diag(cols)]], so the step is the real d
    that minimizes |B d - i F|, of least norm. B g = 0 for the gauge
    g = (1, ..., 1, -1, ..., -1), the direction (theta + c, phi - c) that
    leaves V unchanged.

    The step solves the 2n x 2n normal equations
    (Re(B^H B) + g g^T / 2n) d = Re(B^H i F). Where g spans the null space
    of B, which holds when the support of V is connected, the gauge term
    makes the matrix A regular and leaves d the least-norm step. One
    ``np.linalg.solve`` also solves A y = p for the fixed generic probe p;
    the step is kept when max|y| * max|A| < NORMAL_COND * 2n.

    A (nearly) reducible V, whose support (nearly) splits into blocks, has
    one more (near) null direction per extra block, a gauge of one block
    alone, and g does not cover it. There A is (nearly) singular: solve
    raises or the check fails, and the step is the least-norm solution of
    the (4n, 2n) real system [Re B; Im B] d = [Re iF; Im iF] by
    ``np.linalg.lstsq`` instead, which handles any rank.
    """
    n = len(rows)
    lines = np.concatenate([rows, cols])
    # [B | iF], filled into one array: the off-diagonal blocks of B are V
    # and V^T, its diagonal the 2n line sums.
    b = np.zeros((2 * n, 2 * n + 1), dtype=complex)
    b[:n, n:-1] = v
    b[n:, :n] = v.T
    b.flat[:: 2 * n + 2] = lines
    b[:, -1] = 1j * (lines - 1.0)
    # [Re(B^H B) | Re(B^H iF)] in one product.
    normal = (b[:, :-1].conj().T @ b).real
    gauge, probe = _normal_constants(n)
    a = normal[:, :-1] + gauge
    try:
        x = np.linalg.solve(a, np.column_stack([normal[:, -1], probe]))
    except np.linalg.LinAlgError:
        regular = False
    else:
        # A is positive semidefinite, so its largest entry is on its
        # diagonal. A NaN fails the check.
        regular = np.abs(x[:, 1]).max() * a.diagonal().max() < NORMAL_COND * 2 * n
    d = x[:, 0] if regular else _lstsq_step(b)
    return d[:n], d[n:]


def _lstsq_step(b: np.ndarray) -> np.ndarray:
    """The least-norm real d that minimizes |B d - iF|, given [B | iF]:
    the (4n, 2n) real system [Re B; Im B] d = [Re iF; Im iF], solved by
    ``np.linalg.lstsq``, whatever the rank of B.

    On an exactly reducible V each block past the first adds a gauge of
    its own, whose singular value lies at rounding level, at the
    ``rcond`` cutoff: rounding decides d's component along it. The
    scaled V agrees whatever that component is, but Z1 and Z2 of such an
    input may differ by per-block phases between BLAS builds."""
    real = np.concatenate([b.real, b.imag])
    return np.linalg.lstsq(real[:, :-1], real[:, -1], rcond=None)[0]


def attempt_bound(n: int, tol: float) -> int:
    """The most iterations one attempt of ``zxz_scale`` can take at size n
    and target spread tol (module docstring). Computed as a difference of
    logarithms, which stays finite for a subnormal tol."""
    halvings = math.ceil(math.log2(math.sqrt(n) + 1) - math.log2(tol))
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
                return _assemble(a, left, right, v, spread, it, attempts)
            if misses >= POLISH_STEPS:
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
        attempts.append((it, best))

    best = min(b for _, b in attempts)
    raise ConvergenceError(
        f"no convergence to spread {opts.tol} after "
        f"{MAX_RESTARTS + 1} attempts; best spread {best:.3e}",
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
        attempts=tuple(attempts),
    )
