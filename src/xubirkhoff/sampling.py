"""Seeded random matrices: Haar unitaries, XU, circulant XU, and ZU samples.

All samplers draw from numpy's Philox generator, a counter-based bit
generator whose output stream is fixed by the seed alone, so samples are
reproducible across platforms and can be re-derived outside numpy if
ever needed. Equal seeds give bit-identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import check_int, dft_matrix
from .xu_group import embed_core

KINDS = ("unitary", "xu", "circulant_xu", "zu")


@dataclass(frozen=True)
class SampleSpec:
    """What to sample: dimension, matrix kind, and seed."""

    n: int
    kind: str
    seed: int

    def __post_init__(self):
        check_int(self.n, 1, "dimension n")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        check_int(self.seed, 0, "seed", ValueError)


def _rng(seed: int) -> np.random.Generator:
    """The generator of every sampler; ``seed`` must be an integer >= 0."""
    seed = check_int(seed, 0, "seed", ValueError)
    return np.random.Generator(np.random.Philox(seed))


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """A Haar-distributed n x n unitary.

    QR-orthonormalize a complex Gaussian matrix and fix the phase freedom
    by making the triangular factor's diagonal positive real (multiply
    each Q column by the phase of the corresponding diagonal entry), which
    makes the factorization unique and the distribution exactly Haar.
    """
    n = check_int(n, 1, "dimension n")
    rng = _rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_xu(n: int, seed: int) -> np.ndarray:
    """A random XU(n) matrix: the embedding of a Haar unitary of size n-1."""
    n = check_int(n, 2, "XU sampling dimension n")
    return embed_core(haar_unitary(n - 1, seed))


def random_zu(n: int, seed: int) -> np.ndarray:
    """A random ZU(n) matrix: diagonal phases with entry (1,1) = 1."""
    n = check_int(n, 1, "dimension n")
    rng = _rng(seed)
    phases = np.exp(2j * np.pi * rng.random(n))
    phases[0] = 1.0
    return np.diag(phases)


def random_circulant_xu(n: int, seed: int) -> np.ndarray:
    """A random circulant XU(n) matrix: F Z F^-1 for a random ZU member Z.

    Conjugating a diagonal matrix with leading entry 1 by the Fourier
    matrix always lands in the circulant XU matrices, and every circulant
    XU matrix is of this form.
    """
    n = check_int(n, 1, "dimension n")
    f = dft_matrix(n)
    return f @ random_zu(n, seed) @ f.conj().T


def sample(spec: SampleSpec) -> np.ndarray:
    """Dispatch on spec.kind."""
    if spec.kind == "unitary":
        return haar_unitary(spec.n, spec.seed)
    if spec.kind == "xu":
        return random_xu(spec.n, spec.seed)
    if spec.kind == "circulant_xu":
        return random_circulant_xu(spec.n, spec.seed)
    return random_zu(spec.n, spec.seed)
