"""Benchmark runner for xubirkhoff.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Runs each workload in its own fresh interpreter (``perfbench/worker.py``),
one after another, with BLAS pinned to one thread, against the package in
this checkout's ``src/``. ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``. With ``--trace 0`` it reports the end-to-end metrics,
``setup_s`` being the median of SETUP_PROBES fresh interpreters that
import the package and run the warm-up op; with ``--trace 1`` the
per-layer metrics of an outside-in traced run. End-to-end times are wall
times scaled to a fixed host speed, which cancels most of the speed
changes of a shared host (see ``worker.py``). A table with units and
sample counts goes to stderr. For each workload, in the order of
``BENCHMARK.json``, stdout gets one line holding one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Exits non-zero, printing no result, if the package source is missing or
a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    """A worker failed or the checkout cannot be benchmarked."""


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    setup = []
    if not trace:
        for _ in range(1 if smoke else SETUP_PROBES):
            setup.append(_worker(common + ["--probe"], 60)["setup_s"])
    out = _worker(common + ["--trace", str(trace)], WORKER_TIMEOUT_S)
    if not trace:
        out["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        out["detail"]["setup_samples"] = len(setup)
    return out


def _report(name: str, out: dict) -> None:
    d = out["detail"]
    print(
        f"== {name}: {out['attempted']} ops in {d['rounds']} rounds, "
        f"{out['failed']} failed, correct={out['correct']}, "
        f"run {d['run_s']:.1f} s",
        file=sys.stderr,
    )
    for key, m in out["metrics"].items():
        print(f"   {key:42s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if "setup_samples" in d:
        print(f"   (latencies over {out['attempted']} ops; setup_s median of "
              f"{d['setup_samples']} interpreters)", file=sys.stderr)
    print(f"   raw wall-clock ops_per_s {d['raw_ops_per_s']:.4g}; the host ran "
          f"{d['host_slowdown']:.3f}x slower than the reference speed", file=sys.stderr)
    by_label = ", ".join(f"{k} {v:.4g}" for k, v in d["p50_ms_by_label"].items())
    print(f"   median raw ms by input: {by_label}", file=sys.stderr)
    if "zxz_scale_iterations_median_by_n" in d:
        print(f"   zxz_scale median iterations by n: "
              f"{d['zxz_scale_iterations_median_by_n']}", file=sys.stderr)
    for key, count in sorted(d["failures"].items()):
        print(f"   failure {key} x{count}", file=sys.stderr)
    for miss in d["misses"]:
        print(f"   check miss {miss}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the xubirkhoff benchmark.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a handful of ops per workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "xubirkhoff" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'xubirkhoff'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            _report(name, out)
            results.append({k: out[k] for k in ("correct", "attempted", "failed", "metrics")})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
