"""Digest the package's outputs, one sha256 per family of inputs, to show
that a change keeps them bit for bit.

    PYTHONPATH=src:. python3 tools/digest.py [--dump DIR] [--against DIR]

Each set runs a fixed list of cases:

* ``decompose_xu``: ``auto`` and every engine of ``METHODS`` on an XU(n)
  member at n = 1..9 and seeds 0..4 (``random_xu``; the identity at n = 1);
* ``recursive_circulant``: ``decompose_recursive`` on
  ``random_circulant_xu(n, seed)`` at n = 10, 12, 16 and seeds 0..4;
* ``prime_parts``: ``decompose_prime_parts`` at prime n = 5..31, seeds 0..4;
* ``decompose_unitary``: ``haar_unitary(n, seed)`` at seeds 0..4 and
  ``dft_matrix(n)``, at n = 1..9, 11, 13;
* ``zxz_scale``: the 767 calls of ``tools/scaling_sweep.py``;
* ``cli``: ``sample`` (``--kind xu``), ``decompose``, ``verify`` and ``scale``
  through ``cli.main`` in a temporary directory, at each entry of the
  benchmark's ``CLI_SIZES`` (``perfbench/workloads.py``) and seeds 0..4:
  180 files (x, d, v and s). n = 4 is listed twice there, so its cases run
  twice in one process.

A case records the images, weights, phases and engine label of each sum,
the fields of a factorization, the bytes of each file the CLI writes and
its exit statuses, or the class and message of the error it raised. Each
set's line gives its case count and a sha256 over every case name, array
name, dtype, shape and array bytes, in case order.

``--dump DIR`` writes each set's arrays to ``DIR/<set>.npz``. ``--against
DIR`` reads such a dump, made at another commit, and prints for each case
that differs what changed: max |delta| of a numeric array, the changed
images, shapes (term counts) or bytes. It ends with the number of cases
that differ and one line per set: how many of its cases differ, and the
largest |delta| of a weight array (the CLI set keeps its weights inside
file bytes, and ``zxz_scale`` has none). It exits 1 if any case differs.
The digests depend on the BLAS build, so compare two runs on one host.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from perfbench.workloads import CLI_SIZES
from scaling_sweep import _calls as sweep_calls
from xubirkhoff import (
    ComplexPermSum,
    decompose_prime_parts,
    decompose_recursive,
    decompose_unitary,
    decompose_xu,
    dft_matrix,
    haar_unitary,
    random_circulant_xu,
    random_xu,
    zxz_scale,
)
from xubirkhoff import cli
from xubirkhoff.birkhoff import METHODS

SEEDS = range(5)
UNITARY_SIZES = (*range(1, 10), 11, 13)


def _sum(s, prefix: str = "") -> dict:
    out = {"images": s.images, "weights": s.weights, "engine": np.array(s.engine)}
    if isinstance(s, ComplexPermSum):
        out["phases"] = s.phases
    return {prefix + k: v for k, v in out.items()}


def _factorization(fac) -> dict:
    return {
        "alpha": np.array(fac.alpha),
        "z1": fac.z1,
        "z2": fac.z2,
        "core": fac.core,
        "spread": np.array(fac.spread),
        "iterations": np.array(fac.iterations),
        "attempts": np.array(fac.attempts, dtype=float).reshape(-1, 2),
    }


def _run(call) -> dict:
    """The record of ``call()``; an error it raises is recorded."""
    try:
        return call()
    except Exception as e:  # every outcome is part of the digest
        return {"error": np.array(f"{type(e).__name__}: {e}")}


def _xu_cases():
    for n in range(1, 10):
        for seed in SEEDS:
            x = random_xu(n, seed) if n > 1 else np.eye(1)
            for method in METHODS:
                yield f"{method} n={n} seed={seed}", lambda: _sum(decompose_xu(x, method))


def _circulant_cases():
    for n in (10, 12, 16):
        for seed in SEEDS:
            x = random_circulant_xu(n, seed)
            yield f"n={n} seed={seed}", lambda: _sum(decompose_recursive(x))


def _prime_parts_cases():
    for n in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for seed in SEEDS:
            x = random_xu(n, seed)

            def parts():
                c, d = decompose_prime_parts(x)
                return {**_sum(c, "c."), **_sum(d, "d.")}

            yield f"n={n} seed={seed}", parts


def _unitary_cases():
    for n in UNITARY_SIZES:
        inputs = [(f"haar n={n} seed={seed}", haar_unitary(n, seed)) for seed in SEEDS]
        for label, u in [*inputs, (f"dft n={n}", dft_matrix(n))]:
            yield label, lambda: _sum(decompose_unitary(u))


def _scaling_cases():
    for label, _, u, opts in sweep_calls():
        yield label, lambda: _factorization(zxz_scale(u, opts))


def _cli_cases():
    for i, n in enumerate(CLI_SIZES):
        for seed in SEEDS:
            yield f"{i}: n={n} seed={seed}", lambda: _cli_files(n, seed)


def _cli_files(n: int, seed: int) -> dict:
    """The bytes of the four files the CLI writes for one sample, and the
    four exit statuses."""
    with tempfile.TemporaryDirectory() as tmp:
        path = {k: os.path.join(tmp, f"{k}.json") for k in ("x", "d", "v", "s")}
        argvs = [
            ["sample", str(n), "--kind", "xu", "--seed", str(seed), "--output", path["x"]],
            ["decompose", path["x"], "--output", path["d"]],
            ["verify", path["d"], path["x"], "--output", path["v"]],
            ["scale", path["x"], "--output", path["s"]],
        ]
        with redirect_stdout(io.StringIO()):
            status = [cli.main(argv) for argv in argvs]
        out = {k: np.frombuffer(Path(p).read_bytes(), dtype=np.uint8) for k, p in path.items()}
    return {**out, "status": np.array(status)}


# Set name -> generator of (case, call) pairs. ``main`` runs each call
# before it draws the next pair, so a call may read the loop's variables.
SETS = {
    "decompose_xu": _xu_cases,
    "recursive_circulant": _circulant_cases,
    "prime_parts": _prime_parts_cases,
    "decompose_unitary": _unitary_cases,
    "zxz_scale": _scaling_cases,
    "cli": _cli_cases,
}


def _digest(records: dict) -> str:
    h = hashlib.sha256()
    for case, rec in records.items():
        h.update(case.encode() + b"\0")
        for key in sorted(rec):
            a = np.ascontiguousarray(rec[key])
            h.update(f"{key}\0{a.dtype.str}\0{a.shape}\0".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _differences(key: str, a: np.ndarray, b: np.ndarray) -> str | None:
    """What differs between this run's ``a`` and the dump's ``b``, or None
    when they agree bit for bit."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if a.dtype.kind == b.dtype.kind == "U":
        return f"{key}: {b.item()!r} -> {a.item()!r}"
    if a.dtype == b.dtype == np.uint8:
        return f"{key}: file of {b.size} bytes -> {a.size} bytes, contents differ"
    if a.shape != b.shape:
        return f"{key}: shape {b.shape} -> {a.shape}"
    if a.dtype != b.dtype:
        return f"{key}: dtype {b.dtype} -> {a.dtype}"
    if a.dtype.kind in "fc":
        delta = np.abs(a - b).max()
        # Equal values in different bytes differ in the sign of a zero.
        return f"{key}: max |delta| {delta:.3g}" + (" (signed zeros)" if delta == 0 else "")
    if a.dtype.kind in "iu" and a.ndim == 2:
        rows = np.count_nonzero((a != b).any(axis=1))
        return f"{key}: {rows} of {len(a)} rows changed"
    return f"{key}: {np.count_nonzero(a != b)} of {a.size} entries changed"


def _compare(name: str, records: dict, dump: Path) -> tuple[int, float | None]:
    """Print every case of set ``name`` that differs from the dump; return
    how many do, and the largest |delta| of a weight array of one shape in
    both (None where the set records no weights)."""
    with np.load(dump / f"{name}.npz") as z:
        old: dict = {}
        for k in z.files:
            case, key = k.rsplit("::", 1)
            old.setdefault(case, {})[key] = z[k]
    changed = 0
    weight_delta = None
    for case in [*records, *sorted(old.keys() - records.keys())]:
        if case not in records or case not in old:
            print(f"  {name} {case}: only in {'the dump' if case in old else 'this run'}")
            changed += 1
            continue
        new_rec, old_rec = records[case], old[case]
        notes = [
            f"{key}: only in {'the dump' if key in old_rec else 'this run'}"
            for key in sorted(new_rec.keys() ^ old_rec.keys())
        ]
        for key in sorted(new_rec.keys() & old_rec.keys()):
            a, b = np.asarray(new_rec[key]), old_rec[key]
            note = _differences(key, a, b)
            notes += [note] if note else []
            if key.endswith("weights") and a.shape == b.shape:
                delta = float(np.abs(a - b).max(initial=0.0))
                weight_delta = max(delta, weight_delta or 0.0)
        if notes:
            print(f"  {name} {case}: " + "; ".join(notes))
            changed += 1
    return changed, weight_delta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", type=Path, help="write each set's arrays here")
    parser.add_argument("--against", type=Path, help="compare with a dump made here")
    args = parser.parse_args(argv)
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    summary = []
    for name, cases in SETS.items():
        records = {case: _run(call) for case, call in cases()}
        print(f"{name}: {len(records)} cases sha256 {_digest(records)}", flush=True)
        if args.dump:
            np.savez(
                args.dump / f"{name}.npz",
                **{f"{c}::{k}": v for c, rec in records.items() for k, v in rec.items()},
            )
        if args.against:
            summary.append((name, len(records), *_compare(name, records, args.against)))
    changed = sum(row[2] for row in summary)
    if args.against:
        print(f"cases that differ from {args.against}: {changed}")
        for name, total, differ, delta in summary:
            weights = "no weights" if delta is None else f"max |delta weight| {delta:.3g}"
            print(f"  {name}: {differ} of {total} cases differ, {weights}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
