"""Measure one workload in this interpreter and print the figures as JSON.

``run.py`` starts this file once per workload in a fresh interpreter, so
peak memory and set-up time belong to that workload alone. The loop is
closed: one caller, each op issued after the previous one returned. An op
is a ``decompose_*`` call plus ``verify`` (API workloads) or the CLI
triple ``sample -> decompose -> verify``; only that is timed. After every
op, untimed, ``perfbench.check`` checks the returned decomposition. It
reads the result straight into compact arrays, which need far less
memory than the result itself, so ``peak_rss_mb`` is the op's own peak.
(A forked checker would not count at all, but it write-protects the
parent's pages, and the copy-on-write faults then add ~2 ms to the next
op.)

Times are reported at a fixed host speed. The machine this benchmark
was written on shares its cores with other tenants and runs the same
code up to twice as slowly in spells of a fraction of a second to
minutes; a 20 s run's throughput then moves by 20-30% from run to run.
So the worker also times a fixed reference block of the benchmark's own
numpy code (``Speedometer``): REF_REPS times before and after every op,
untimed, and once every SAMPLE_PERIOD_S while an op runs, from a SIGALRM
handler whose time is taken out of the op's. Each op's wall time is
multiplied by the mean of REF_MS / (reference time) over those samples.
The scaled figure is the op's time on a host that runs the reference
block in REF_MS: it keeps every change of the package's own speed and
cancels most of the host's: over ten 20 s runs of one workload, the
quartile spread of the throughput was 0.08-0.22 raw and 0.01-0.03
scaled. Raw wall times stay in the run's detail.

With ``--probe`` it only measures set-up: ``import xubirkhoff`` plus the
workload's warm-up op, printed in seconds and scaled the same way by the
reference time taken right after the warm-up op (numpy, which the
reference block needs, is part of what set-up imports).
"""

import os

# BLAS threads are fixed before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / "perfbench" / ".work"
MIN_OPS = 100
# About the fastest time of the reference block seen on the 2.0 GHz
# x86-64 machine the baseline was recorded on: scaled times are close to
# wall times there when the host is quiet.
REF_MS = 0.2
REF_REPS = 3
SAMPLE_PERIOD_S = 0.03


def _reference_block(a, np) -> None:
    """Small complex matrix products and row normalizations, the kind of
    work the package's scaling and checks do."""
    for _ in range(40):
        a = a @ a.conj().T
        a = a / np.abs(a).sum(axis=1, keepdims=True)


def _reference_s(a, np) -> float:
    """Time of the reference block run warm: the first run after other
    work reads about 10% slower, from cold caches."""
    _reference_block(a, np)
    t0 = perf_counter()
    _reference_block(a, np)
    return perf_counter() - t0


def _reference_input():
    import numpy as np  # not at module level: set-up, which is timed, imports it

    return np.random.Generator(np.random.Philox(0)).standard_normal((8, 8)) + 0j, np


def host_ms() -> float:
    """Median wall time of REF_REPS runs of the reference block, in ms."""
    a, np = _reference_input()
    return statistics.median(_reference_s(a, np) for _ in range(REF_REPS)) * 1e3


class Speedometer:
    """Samples the host's speed around and during timed ops.

    A sample is REF_MS over the reference block's time. ``arm`` starts a
    SIGALRM timer that takes one sample every SAMPLE_PERIOD_S while the
    op runs; ``busy_s`` adds up the time spent sampling, so that it can
    be taken out of the op's wall time.
    """

    def __init__(self):
        self.a, self.np = _reference_input()
        self.samples: list[float] = []
        self.busy_s = 0.0
        self.armed = False

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(REF_MS * 1e-3 / _reference_s(self.a, self.np))
        self.busy_s += perf_counter() - t0

    def between_ops(self) -> None:
        """REF_REPS samples, kept as their median."""
        k = len(self.samples)
        for _ in range(REF_REPS):
            self.sample()
        self.samples[k:] = [statistics.median(self.samples[k:])]

    def _on_alarm(self, signum, frame) -> None:
        if self.armed:
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def disarm(self) -> None:
        # A handler that is already running finishes before this line, and
        # one that is still pending returns at once.
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_package():
    """Import ``xubirkhoff`` from this checkout's ``src``, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import xubirkhoff

    if src.resolve() not in Path(xubirkhoff.__file__).resolve().parents:
        raise SystemExit(f"xubirkhoff imported from {xubirkhoff.__file__}, not {src}")
    return xubirkhoff


class OpFailed(Exception):
    """A CLI step exited non-zero."""


class Executor:
    """Runs and checks ops of every kind."""

    def __init__(self, xb, tmp: Path, with_cli: bool):
        self.xb = xb
        # Only the CLI workload pays for importing the CLI module.
        self.cli = importlib.import_module("xubirkhoff.cli") if with_cli else None
        self.files = [tmp / f"{part}.json" for part in ("matrix", "decomposition", "report")]

    def run(self, op):
        """The timed part of an op; returns what ``document`` needs."""
        xb = self.xb
        if op.api == "xu":
            s = xb.decompose_xu(op.matrix)
            xb.verify(s, op.matrix)
            return s
        if op.api == "unitary":
            s = xb.decompose_unitary(op.matrix)
            xb.verify(s, op.matrix)
            return s
        m, d, v = (str(f) for f in self.files)
        steps = (
            ["sample", str(op.n), "--kind", "xu", "--seed", str(op.sample_seed), "--output", m],
            ["decompose", m, "--method", "auto", "--output", d],
            ["verify", d, m, "--output", v],
        )
        for argv in steps:
            code = self.cli.main(argv)
            if code != 0:
                raise OpFailed(f"{argv[0]} exited {code}")
        return None

    def terms(self, op, handle):
        """The op's decomposition as ``perfbench.check.Terms`` (untimed)."""
        from perfbench.check import terms_from_json, terms_from_sum

        if op.api != "cli":
            return terms_from_sum(handle)
        with open(self.files[1], encoding="utf-8") as fh:
            return terms_from_json(json.load(fh))

    def check(self, op, terms):
        """Independent check of ``terms`` (and, for the CLI, of the sample)."""
        from perfbench.check import check_decomposition, check_sample

        if op.api == "cli":
            with open(self.files[0], encoding="utf-8") as fh:
                result = check_sample(json.load(fh), op.matrix)
            if not result.ok:
                return result
        return check_decomposition(terms, op.matrix)

    def discard(self) -> None:
        """Delete the op's CLI files, so that the next op creates them anew.

        Truncating a file that holds data makes ext4 flush the new data to
        disk at close (auto_da_alloc); the op would then time the disk.
        """
        for f in self.files:
            f.unlink(missing_ok=True)


class Tally:
    """Outcomes of a measured loop.

    ``times`` are raw wall times; ``scaled`` the same times at the host
    speed REF_MS (see the module docstring).
    """

    def __init__(self):
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.terms: list[int] = []
        self.failures: dict[str, int] = {}
        self.misses: list[str] = []
        self.crashed = False

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, key: str) -> None:
        self.failures[key] = self.failures.get(key, 0) + 1

    def ops_per_s(self, scaled: bool = False) -> float:
        return (self.attempted - self.failed) / sum(self.scaled if scaled else self.times)


def run_loop(executor, rounds, tally, tracer=None):
    """Run and check every op of ``rounds``; time only ``executor.run``.

    Untraced runs also record each op's time at host speed REF_MS in
    ``tally.scaled``.
    """
    from xubirkhoff import XUBirkhoffError

    from perfbench.check import CheckResult

    op_id = 0
    speed = Speedometer() if tracer is None else None
    with speed or contextlib.nullcontext():
        if speed is not None:
            speed.between_ops()
        for ops in rounds:
            for op in ops:
                handle, error = None, None
                if speed is not None:
                    busy_s = speed.busy_s
                    speed.arm()
                t0 = perf_counter()
                try:
                    if tracer is None:
                        handle = executor.run(op)
                    else:
                        with tracer.op(op_id):
                            handle = executor.run(op)
                except (XUBirkhoffError, OpFailed) as e:
                    error = type(e).__name__
                except Exception:
                    error = "crash"
                    tally.crashed = True
                    traceback.print_exc()
                if speed is not None:
                    speed.disarm()
                wall = perf_counter() - t0
                if speed is not None:
                    wall -= speed.busy_s - busy_s
                tally.times.append(wall)
                tally.by_label.setdefault(op.label, []).append(wall)
                op_id += 1
                if error is not None:
                    tally.fail(f"{op.label}:{error}")
                else:
                    try:
                        terms = executor.terms(op, handle)
                        handle = None  # free the result before the check runs
                        result = executor.check(op, terms)
                    except (KeyError, OverflowError, TypeError, ValueError) as e:
                        result = CheckResult(False, math.inf, math.inf, f"unreadable result: {e}")
                    if result.ok:
                        tally.terms.append(len(terms))
                        terms = None  # free the arrays before the next op
                    else:
                        tally.fail(f"{op.label}:check")
                        tally.misses.append(f"{op.label}: {result.reason}")
                executor.discard()
                if speed is not None:
                    # Samples before, during and after the op.
                    speed.between_ops()
                    tally.scaled.append(wall * statistics.fmean(speed.samples))
                    del speed.samples[:-1]


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``values``.

    A mean of all order statistics, weighted by the beta distribution of
    the ``p``-quantile's rank. Where the heavy tail of the scaling cost
    leaves the ops near the 90th percentile far apart, it moves much
    less with the host's noise than the one or two order statistics that
    ``statistics.quantiles`` interpolates.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def end_to_end(tally) -> dict:
    # Read before scipy is imported, which would raise the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times_ms = [t * 1e3 for t in tally.scaled]
    ok = tally.attempted - tally.failed
    return {
        "ops_per_s": (tally.ops_per_s(scaled=True), "op/s"),
        "latency_p50_ms": (hd_quantile(times_ms, 0.5), "ms"),
        "latency_p90_ms": (hd_quantile(times_ms, 0.9), "ms"),
        "success_share": (ok / tally.attempted, "ratio"),
        "terms_mean": (statistics.fmean(tally.terms) if tally.terms else 0.0, "terms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    xb = load_package()
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    from perfbench.tracer import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        executor = Executor(xb, Path(tmp), args.workload == "cli_closed_form")
        executor.run(workloads.warmup_op(args.workload))
        if args.probe:
            setup_s = perf_counter() - t0
            print(json.dumps({"setup_s": setup_s * REF_MS / host_ms(),
                              "raw_setup_s": setup_s}))
            return 0

        source = workloads.rounds(args.workload, args.seed)
        used = []
        tally = Tally()
        start = perf_counter()
        if args.smoke:
            used.append(workloads.smoke_round(args.workload, args.seed))
            run_loop(executor, used, tally)
        else:
            while perf_counter() - start < args.seconds or tally.attempted < MIN_OPS:
                used.append(next(source))
                run_loop(executor, used[-1:], tally)
        run_s = perf_counter() - start

        out = {
            "correct": not tally.misses and not tally.crashed,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "detail": {
                "rounds": len(used),
                "run_s": run_s,
                "failures": tally.failures,
                "misses": tally.misses[:10],
                "raw_ops_per_s": tally.ops_per_s(),
                "host_slowdown": sum(tally.times) / sum(tally.scaled),
                "p50_ms_by_label": {
                    label: statistics.median(ts) * 1e3
                    for label, ts in sorted(tally.by_label.items())
                },
            },
        }
        if not args.trace:
            out["metrics"] = end_to_end(tally)
        else:
            tracer = Tracer()
            traced = Tally()
            tracer.install()
            try:
                run_loop(executor, used, traced, tracer=tracer)
            finally:
                tracer.uninstall()
            out["correct"] = out["correct"] and not traced.misses and not traced.crashed
            units = dict(LAYER_METRICS)
            metrics = {
                name: (value, units[name])
                for name, value in tracer.layer_metrics(traced.attempted).items()
            }
            metrics["trace.untraced_ops_per_s"] = (tally.ops_per_s(), "op/s")
            metrics["trace.traced_ops_per_s"] = (traced.ops_per_s(), "op/s")
            metrics["trace.overhead_ratio"] = (tally.ops_per_s() / traced.ops_per_s(), "ratio")
            out["metrics"] = metrics
            out["detail"]["zxz_scale_iterations_median_by_n"] = {
                n: statistics.median(its) for n, its in sorted(tracer.iterations.items())
            }
            spans = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            out["detail"]["spans_file"] = str(spans.relative_to(ROOT))
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
