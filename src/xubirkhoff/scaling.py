"""Factor a unitary U as e^(i*alpha) Z1 X Z2 with X in XU(n).

Z1 and Z2 are diagonal unitaries whose first entry is 1 (the phase freedom
is absorbed into alpha) and X has all 2n line sums equal to 1. Writing
V = diag(e^(i theta)) U diag(e^(i phi)), the factors are phase angles
theta, phi that make every line sum of V equal to 1.

At n = 2 the factors have a closed form (``_scale_2x2``): one choice of
right phases makes the row sums of U diag(e^(i phi)) unimodular, and the
left phases are their conjugate phases. A 2x2 unitary whose entries are
all nonzero has two cores, conjugates of each other; this one picks the
one with Im X[0, 0] >= 0. It is taken whenever its spread is at most
``tol``, with ``iterations`` 0 and no attempt. A 2x2 input that is
unitary only loosely misses that and is scaled by the loop below, as
every larger n is.

Each attempt is one loop. Each call allocates one workspace of views
(``_Workspace``), which its attempts share. Every pass measures the row
and column sums once into it, and their residual from 1, which gives
both the spread (the largest distance of a line sum from 1) and the
right-hand side of a Gauss-Newton step. It applies the exit rules
below, then takes one step of one of two kinds. Both kinds give row and
column phases, and one update applies them in place to V and to the
accumulated factors. V, the factors and the result are arrays of the
attempt, never views of the workspace.

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
  least-squares solve of the full system (``np.linalg.lstsq``), and so do
  the attempt's remaining steps, without forming the normal equations
  again: every iterate of an attempt has the entry moduli of its first,
  so the (near) split persists. Each step rewrites the system [B | iF],
  the product that forms the normal equations and the step's phases in
  place, in the workspace.

The sweeps are capped because unstable fixed points with positive-real
but unequal line sums exist (for example the rotation by pi/4 (+) 1,
whose first row sum and second column sum vanish; Idel & Wolf, "Sinkhorn
normal form for unitary matrices", 2015), and sweeps near one creep
towards it for hundreds or thousands of passes. Gauss-Newton either finds
a nearby solution or misses, and a restart is cheaper than creeping.
POLISH_SPREAD is 0.3 because from there the Gauss-Newton steps converge,
or miss within a few iterations and restart; a higher one (0.5, 1) misses
from further out and restarts more often.

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
successful attempt, 0 for the closed form; ``attempts`` keeps the history
of the abandoned ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .numerics import (
    DEFAULT_TOL,
    check_int,
    check_tol,
    line_sum_spread,
    require_unitary,
)

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
    2n line sums from 1; a tol above UNITARY_TOL also lets ``zxz_scale``
    take inputs unitary only to tol (``_input_tol``). rng_seed (an integer
    >= 0) seeds the restart phases.
    """

    tol: float = DEFAULT_TOL
    rng_seed: int = 0

    def __post_init__(self):
        check_tol(self.tol, "tol")
        # Checked here because the restart generator is built lazily:
        # a bad seed must not pass silently when no restart happens.
        check_int(self.rng_seed, 0, "rng_seed", ValueError)


@dataclass(frozen=True)
class ZXZFactorization:
    """Result of ``zxz_scale``: input = e^(i*alpha) diag(z1) core diag(z2).

    z1 and z2 are unit-modulus vectors with first entry 1; core is XU
    within the achieved spread. iterations counts the sweeps plus
    Gauss-Newton steps of the successful attempt; it is 0 where the
    closed form at n = 2 reaches the target spread, and for an input that
    is already XU within it. attempts holds one
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


class _Workspace:
    """The buffers one ``zxz_scale`` call reuses at size n, and views of
    them, so that a Gauss-Newton step writes its system, the product that
    forms its normal equations and its phases in place.

    ``lines`` holds the 2n line sums (``rows``, then ``cols``), ``res``
    their residual from 1 and ``dist`` its moduli. ``b`` is [B | iF] of
    ``_newton_step``, zero outside the entries each step writes through
    its views: ``v`` and ``vt`` (the blocks V and V^T), ``diag`` (its
    diagonal) and ``f`` (the last column); ``bmat`` is B alone. ``conj``
    holds conj(B) and ``prod`` the product B^H [B | iF]; ``a`` is the
    matrix of the normal equations and ``rhs`` their two right-hand sides,
    the second of them the probe. ``phases`` holds the row phases, then
    the column phases, of one step.
    """

    __slots__ = (
        "lines", "rows", "cols", "res", "dist", "b", "v", "vt", "diag", "f",
        "bmat", "conj", "prod", "a", "rhs", "phases",
    )

    def __init__(self, n: int):
        m = 2 * n
        self.lines = np.empty(m, dtype=complex)
        self.rows, self.cols = self.lines[:n], self.lines[n:]
        self.res = np.empty(m, dtype=complex)
        self.dist = np.empty(m)
        self.b = np.zeros((m, m + 1), dtype=complex)
        self.v, self.vt = self.b[:n, n:-1], self.b[n:, :n]
        self.diag = self.b.reshape(-1)[:: m + 2]
        self.f, self.bmat = self.b[:, -1], self.b[:, :-1]
        self.conj = np.empty((m, m), dtype=complex)
        self.prod = np.empty((m, m + 1), dtype=complex)
        self.a = np.empty((m, m))
        self.rhs = np.empty((m, 2))
        self.rhs[:, 1] = _normal_constants(n)[1]
        self.phases = np.empty(m, dtype=complex)


def _newton_step(v, ws, normal):
    """Gauss-Newton phase corrections d = (dtheta, dphi) for the residual
    F = [V 1 - 1; 1^T V - 1] of V -> diag(e^(i dtheta)) V diag(e^(i dphi)),
    given the 2n line sums (rows, then columns) and their residual
    res = lines - 1 in the workspace ``ws``. Returns d and whether the
    normal equations may serve the attempt's next step.

    The Jacobian with respect to the angles is i B with
    B = [[diag(rows), V], [V^T, diag(cols)]], so the step is the real d
    that minimizes |B d - i F|, of least norm. B g = 0 for the gauge
    g = (1, ..., 1, -1, ..., -1), the direction (theta + c, phi - c) that
    leaves V unchanged. [B | iF] is written into ``ws.b``, of shape
    (2n, 2n + 1), whose other entries stay zero: V, V^T, the diagonal and
    the last column.

    While ``normal`` is true, the step solves the 2n x 2n normal equations
    (Re(B^H B) + g g^T / 2n) d = Re(B^H i F). Where g spans the null space
    of B, which holds when the support of V is connected, the gauge term
    makes the matrix A regular and leaves d the least-norm step. One
    ``np.linalg.solve`` also solves A y = p for the fixed generic probe p,
    held in the second column of ``ws.rhs``; the step is kept when
    max|y| * max|A| < NORMAL_COND * 2n.

    A (nearly) reducible V, whose support (nearly) splits into blocks, has
    one more (near) null direction per extra block, a gauge of one block
    alone, and g does not cover it. There A is (nearly) singular: solve
    raises or the check fails, and the step is the least-norm solution of
    the (4n, 2n) real system [Re B; Im B] d = [Re iF; Im iF] by
    ``np.linalg.lstsq`` instead, which handles any rank. The iterates of
    an attempt share their entry moduli, so once the check has failed the
    caller passes ``normal`` false and the steps go straight to ``lstsq``.
    """
    n = len(v)
    ws.v[...] = v
    ws.vt[...] = v.T
    ws.diag[...] = ws.lines
    np.multiply(1j, ws.res, out=ws.f)
    if normal:
        # [Re(B^H B) | Re(B^H iF)] in one product.
        np.conjugate(ws.bmat, out=ws.conj)
        prod = np.matmul(ws.conj.T, ws.b, out=ws.prod).real
        a = np.add(prod[:, :-1], _normal_constants(n)[0], out=ws.a)
        ws.rhs[:, 0] = prod[:, -1]
        try:
            x = np.linalg.solve(a, ws.rhs)
        except np.linalg.LinAlgError:
            normal = False
        else:
            # A is positive semidefinite, so its largest entry is on its
            # diagonal. A NaN fails the check.
            normal = np.abs(x[:, 1]).max() * a.diagonal().max() < NORMAL_COND * 2 * n
        if normal:
            return x[:, 0], True
    return _lstsq_step(ws.b), False


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


def _input_tol(opts: ScalingOptions) -> float:
    """The unitarity ``zxz_scale`` asks of its input."""
    return max(UNITARY_TOL, opts.tol)


def attempt_bound(n: int, tol: float) -> int:
    """The most iterations one attempt of ``zxz_scale`` can take at size n
    and target spread tol (module docstring). Computed as a difference of
    logarithms, which stays finite for a subnormal tol."""
    halvings = math.ceil(math.log2(math.sqrt(n) + 1) - math.log2(tol))
    return MAX_SWEEPS + POLISH_STEPS + max(0, halvings)


def zxz_scale(u, opts: ScalingOptions | None = None) -> ZXZFactorization:
    """Factor a unitary matrix through the XU subgroup.

    Raises MembershipError for input not unitary at ``_input_tol(opts)``
    and ConvergenceError (carrying the best spread seen and the history of
    every attempt) if no attempt reaches opts.tol.
    """
    opts = opts or ScalingOptions()
    a = require_unitary(u, _input_tol(opts), "scaling input")
    n = a.shape[0]
    if n == 2:
        left, right, v = _scale_2x2(a)
        spread = line_sum_spread(v.sum(axis=1), v.sum(axis=0))
        if spread <= opts.tol:
            return _assemble(left, right, v, spread, 0, [])
    ws = _Workspace(n)
    rows, cols, res, phases = ws.rows, ws.cols, ws.res, ws.phases
    rng = None
    attempts = []

    for restart in range(MAX_RESTARTS + 1):
        if restart == 0:
            left, right = np.ones(n, dtype=complex), np.ones(n, dtype=complex)
        else:
            if rng is None:
                rng = np.random.Generator(np.random.Philox(opts.rng_seed))
            left = np.exp(2j * np.pi * rng.random(n))
            right = np.exp(2j * np.pi * rng.random(n))
        v = left[:, None] * a * right[None, :]
        best = np.inf
        it = misses = 0
        newton = False
        normal = True
        while True:
            v.sum(axis=1, out=rows)
            v.sum(axis=0, out=cols)
            np.subtract(ws.lines, 1.0, out=res)
            spread = float(np.abs(res, out=ws.dist).max())
            if newton and not spread <= best / 2:
                misses += 1
            best = min(best, spread)
            if spread <= opts.tol:
                return _assemble(left, right, v, spread, it, attempts)
            if misses >= POLISH_STEPS:
                break
            newton = newton or spread <= POLISH_SPREAD or it >= MAX_SWEEPS
            it += 1
            if newton:
                d, normal = _newton_step(v, ws, normal)
                np.exp(np.multiply(1j, d, out=phases), out=phases)
                row_ph, col_ph = phases[:n], phases[n:]
                v *= row_ph[:, None]
            else:
                row_ph = _conj_phases(rows)
                v *= row_ph[:, None]
                col_ph = _conj_phases(v.sum(axis=0, out=cols))
            v *= col_ph[None, :]
            left *= row_ph
            right *= col_ph
        attempts.append((it, best))

    best = min(s for _, s in attempts)
    raise ConvergenceError(
        f"no convergence to spread {opts.tol} after "
        f"{MAX_RESTARTS + 1} attempts; best spread {best:.3e}",
        best_spread=float(best),
        attempts=attempts,
    )


def _scale_2x2(a):
    """The phases (left, right) and the scaled core diag(left) a diag(right)
    of a 2x2 unitary a = [[a0, b0], [c0, d0]], in closed form.

    With p = a0 conj(b0), the right phases are r = (1, -i p/|p|), or (1, 1)
    when p = 0, and the left phases conj(a r)/|a r|. The core is then
    [[x, 1 - x], [1 - x, x]] with x = |a0|^2 + i |a0| |b0|. A 2x2 unitary
    with a0 b0 != 0 has exactly two cores, x and its conjugate, both on the
    circle |x - 1/2| = 1/2 with |x| = |a0|; this rule always picks the one
    with Im x >= 0. Where a0 b0 = 0 the two coincide, as the identity or
    the swap, and the sign of Im x is rounding.
    """
    p = a[0, 0] * np.conj(a[0, 1])
    right = np.array([1.0, -1j * p / abs(p) if p else 1.0], dtype=complex)
    left = _conj_phases(a @ right)
    return left, right, left[:, None] * a * right[None, :]


def _assemble(left, right, core, spread, iterations, attempts):
    # The input is diag(conj(left)) core diag(conj(right)); normalize the
    # leading entries of both diagonals to 1 (set, as z/z can miss 1 by an
    # ulp) and absorb their product into alpha. The phase drift relative to
    # exp(1j*alpha) is below 1e-16 and lands in the reconstruction residual.
    z1 = np.conj(left)
    z2 = np.conj(right)
    alpha = float(np.angle(z1[0] * z2[0]))
    z1 = z1 / z1[0]
    z2 = z2 / z2[0]
    z1[0] = z2[0] = 1
    return ZXZFactorization(
        alpha=alpha,
        z1=z1,
        z2=z2,
        core=core,
        spread=float(spread),
        iterations=iterations,
        attempts=tuple(attempts),
    )
