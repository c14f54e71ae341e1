"""Independent check of a returned decomposition.

The check reads a decomposition as compact arrays (``Terms``: one row of
permutation images, one weight and, for complex terms, one row of phases
per term), taken either from the returned object's terms or from the
package's JSON schema (``{"n", "terms": [{"perm", "weight", "phases"?}]}``).
It rebuilds sum(w * P) with its own numpy code (each row k of a complex
term carries ``phases[k]``) and compares it to the input. It uses nothing
of the package's own ``verify`` or ``reconstruct``.

Reading the returned object straight into arrays keeps the check's memory
well below that of the decomposition itself, so ``peak_rss_mb`` stays the
op's own figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    recon_err: float
    weight_sum_dev: float
    reason: str = ""


@dataclass(frozen=True)
class Terms:
    """A decomposition as arrays: ``perms`` (T, n) images in 1..n,
    ``weights`` (T,) complex, ``phases`` (T, n) complex or None.
    Images are int16 (n < 2**15), to keep the arrays small."""

    n: int
    perms: np.ndarray
    weights: np.ndarray
    phases: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.weights)


def terms_from_sum(s) -> Terms:
    """Terms of a returned ``WeightedPermSum`` (``items()``) or
    ``ComplexPermSum`` (``terms``)."""
    n = s.n
    if hasattr(s, "items"):
        items = s.items()
        perms = np.array([p.image for p, _ in items], dtype=np.int16)
        weights = np.fromiter((w for _, w in items), complex, len(items))
        phases = None
    else:
        items = s.terms
        perms = np.array([t.perm.image for t in items], dtype=np.int16)
        weights = np.fromiter((t.weight for t in items), complex, len(items))
        phases = np.array([t.phases for t in items], dtype=complex)
    return Terms(n, perms.reshape(len(items), -1), weights, phases)


def terms_from_json(doc: dict) -> Terms:
    """Terms of a decomposition document in the package's JSON schema."""
    terms = doc["terms"]
    perms = np.array([t["perm"] for t in terms], dtype=np.int16).reshape(len(terms), -1)
    weights = np.array([complex(*t["weight"]) for t in terms])
    phases = None
    if any("phases" in t for t in terms):
        phases = np.array([[complex(*ph) for ph in t.get("phases", ())] for t in terms])
    return Terms(int(doc["n"]), perms, weights, phases)


def check_decomposition(terms: Terms, target: np.ndarray, tol: float = TOL) -> CheckResult:
    """Check a decomposition against its input matrix.

    Passes when every ``perm`` is a bijection on 1..n, every phase has
    modulus 1, the reconstruction is within ``tol`` of ``target``
    entrywise, and the weight sum is 1 (plain terms) or has modulus 1
    (complex terms) within ``tol``.
    """
    n, perms, w, phases = terms.n, terms.perms, terms.weights, terms.phases
    if n != target.shape[0]:
        return CheckResult(False, np.inf, np.inf, f"size {n} vs input {target.shape[0]}")
    if not len(terms):
        return CheckResult(False, np.inf, np.inf, "no terms")
    if perms.shape != (len(terms), n) or not np.array_equal(
        np.sort(perms, axis=1), np.broadcast_to(np.arange(1, n + 1), perms.shape)
    ):
        return CheckResult(False, np.inf, np.inf, "a term is not a permutation of 1..n")
    if phases is not None:
        if phases.shape != perms.shape:
            return CheckResult(False, np.inf, np.inf, "phases are not n per term")
        if float(np.abs(np.abs(phases) - 1.0).max()) > tol:
            return CheckResult(False, np.inf, np.inf, "a phase is not unit modulus")
        entries = w[:, None] * phases
    else:
        entries = np.broadcast_to(w[:, None], perms.shape)
    recon = np.zeros((n, n), dtype=complex)
    rows = np.broadcast_to(np.arange(n), perms.shape)
    np.add.at(recon, (rows, perms - 1), entries)
    err = float(np.abs(recon - target).max())
    wsum = complex(w.sum())
    dev = abs(abs(wsum) - 1.0) if phases is not None else abs(wsum - 1.0)
    reasons = []
    if err > tol:
        reasons.append(f"reconstruction error {err:.3e}")
    if dev > tol:
        reasons.append(f"weight-sum deviation {dev:.3e}")
    return CheckResult(not reasons, err, dev, "; ".join(reasons))


def check_sample(doc: dict, expected: np.ndarray, tol: float = TOL) -> CheckResult:
    """Check a matrix document ({"dim", "entries": [[[re, im]]]}) against
    the matrix its seed must give."""
    a = np.array(doc["entries"], dtype=float)
    n = expected.shape[0]
    if int(doc["dim"]) != n or a.shape != (n, n, 2):
        return CheckResult(False, np.inf, np.inf, f"sample has shape {a.shape}, expected ({n}, {n}, 2)")
    err = float(np.abs(a[..., 0] + 1j * a[..., 1] - expected).max())
    if err > tol:
        return CheckResult(False, err, 0.0, f"sample differs from its seed's draw by {err:.3e}")
    return CheckResult(True, err, 0.0)
