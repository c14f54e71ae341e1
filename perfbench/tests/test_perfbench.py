"""Tests of the benchmark itself: inputs, checker, tracer and runner.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import xubirkhoff as xb  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.check import (  # noqa: E402
    check_decomposition,
    check_sample,
    terms_from_json,
    terms_from_sum,
)
from perfbench.tracer import LAYER_METRICS, Tracer  # noqa: E402
from perfbench.worker import (  # noqa: E402
    REF_MS,
    Executor,
    Tally,
    hd_quantile,
    host_ms,
    run_loop,
)


def _first_rounds(workload, seed, k=2):
    source = workloads.rounds(workload, seed)
    return [next(source) for _ in range(k)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_bit_identical_per_seed(workload):
    a = _first_rounds(workload, 7)
    b = _first_rounds(workload, 7)
    c = _first_rounds(workload, 8)
    for ra, rb in zip(a, b):
        assert [op.label for op in ra] == [op.label for op in rb]
        for x, y in zip(ra, rb):
            assert x.sample_seed == y.sample_seed
            assert x.matrix.tobytes() == y.matrix.tobytes()
    assert any(
        x.matrix.tobytes() != z.matrix.tobytes()
        for x, z in zip(a[0], c[0])
        if not x.label.startswith("dft")
    )


def test_round_composition():
    cli, xu, uni = (next(workloads.rounds(w, 3)) for w in workloads.WORKLOADS)
    assert [op.n for op in cli] == list(workloads.CLI_SIZES)
    assert sorted(op.n for op in xu) == [6] * 98 + [8] * 2
    labels = [op.label for op in uni]
    assert labels.count("dft6") == 1 and len(labels) == 224


def test_inputs_are_in_their_class():
    for op in next(workloads.rounds("xu_composite", 3))[:5]:
        assert xb.classify(op.matrix, 1e-9).is_xu
    for op in next(workloads.rounds("unitary_mixed", 3))[:5]:
        assert xb.classify(op.matrix, 1e-9).is_unitary
    diff = workloads.sampled_xu(6, 11) - xb.random_xu(6, 11)
    assert float(np.abs(diff).max()) <= 1e-12


def test_left_phases_keep_scaling_cost():
    """The symmetry the scaling workloads rely on: diag(d) U scales with
    the same iterations and restarts as U."""
    rng = np.random.Generator(np.random.Philox(5))
    for n in (5, 7):
        u = workloads.haar(n, rng)
        d = np.exp(2j * np.pi * rng.random(n))
        a, b = xb.zxz_scale(u), xb.zxz_scale(d[:, None] * u)
        assert (a.iterations, a.restarts) == (b.iterations, b.restarts)


@pytest.mark.parametrize("complex_terms", [False, True])
def test_checker_rejects_one_perturbed_weight(complex_terms):
    if complex_terms:
        target = workloads.haar(5, np.random.Generator(np.random.Philox(2)))
        s = xb.decompose_unitary(target)
    else:
        target = workloads.sampled_xu(7, 2)
        s = xb.decompose_xu(target)
    terms = terms_from_sum(s)
    assert check_decomposition(terms, target).ok
    terms.weights[3] += 1e-6
    result = check_decomposition(terms, target)
    assert not result.ok
    assert result.recon_err == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("complex_terms", [False, True])
def test_checker_reads_the_json_schema_like_the_object(complex_terms):
    if complex_terms:
        s = xb.decompose_unitary(workloads.haar(5, np.random.Generator(np.random.Philox(3))))
    else:
        s = xb.decompose_xu(workloads.sampled_xu(5, 3))
    a, b = terms_from_sum(s), terms_from_json(xb.perm_sum_to_json(s))
    assert (a.n, len(a)) == (b.n, len(b))
    assert np.array_equal(a.perms, b.perms) and np.array_equal(a.weights, b.weights)
    assert (a.phases is None) == (b.phases is None) == (not complex_terms)
    if complex_terms:
        assert np.array_equal(a.phases, b.phases)


def test_checker_rejects_a_non_permutation():
    target = workloads.sampled_xu(5, 4)
    doc = xb.perm_sum_to_json(xb.decompose_xu(target))
    doc["terms"][0]["perm"] = [1, 1, 3, 4, 5]
    assert not check_decomposition(terms_from_json(doc), target).ok


def test_sample_check():
    a = workloads.sampled_xu(4, 9)
    doc = xb.matrix_to_json(a)
    assert check_sample(doc, a).ok
    assert not check_sample(doc, workloads.sampled_xu(4, 10)).ok


def test_traced_self_times_fit_in_op_wall_time(tmp_path):
    originals = (xb.birkhoff.zxz_scale, xb.permsum.WeightedPermSum.pruned)
    ops = [op for w in workloads.WORKLOADS for op in workloads.smoke_round(w, 1)]
    executor = Executor(xb, tmp_path, with_cli=True)
    tracer = Tracer()
    tracer.install()
    walls = []
    try:
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                with tracer.op(i):
                    executor.run(op)
            except xb.ConvergenceError:
                assert op.label == "dft6"
            walls.append(perf_counter() - t0)
    finally:
        tracer.uninstall()
    assert (xb.birkhoff.zxz_scale, xb.permsum.WeightedPermSum.pruned) == originals

    per_op = [0.0] * len(ops)
    for row, self_s in zip(tracer.spans, tracer.self_times()):
        assert self_s >= -1e-9
        if row[0] != "op":
            per_op[row[4]] += self_s
    for layered, wall in zip(per_op, walls):
        assert layered <= wall
    metrics = tracer.layer_metrics(len(ops))
    assert set(metrics) == {name for name, _ in LAYER_METRICS}
    assert metrics["scaling.zxz_scale.calls"] > 0
    assert metrics["cli.decompose.self_ms"] > 0


def test_every_op_gets_a_host_scaled_time(tmp_path):
    ops = workloads.smoke_round("xu_composite", 1)
    tally = Tally()
    run_loop(Executor(xb, tmp_path, with_cli=False), [ops], tally)
    assert len(tally.scaled) == len(tally.times) == len(ops)
    # Each scaled time is the raw time at the speed that runs the
    # reference block in REF_MS; the host's speed stays within 10x of it.
    for raw, scaled in zip(tally.times, tally.scaled):
        assert 0.1 < raw / scaled < 10
    assert 0.1 < host_ms() / REF_MS < 10


def test_hd_quantile():
    assert hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert hd_quantile([5.0], 0.9) == pytest.approx(5.0)
    assert hd_quantile(list(range(1001)), 0.9) == pytest.approx(900, abs=0.5)


def _run(args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _results(proc) -> dict:
    """One result line per workload, in the order of BENCHMARK.json."""
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == len(workloads.WORKLOADS)
    return dict(zip(workloads.WORKLOADS, map(json.loads, lines)))


def test_smoke_runs_every_workload():
    proc = _run(["--smoke"])
    assert proc.returncode == 0, proc.stderr
    results = _results(proc)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, r in results.items():
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] and r["attempted"] >= 1
        assert {k: m["unit"] for k, m in r["metrics"].items()} == units
        assert all(m["value"] > 0 for m in r["metrics"].values())
    # The one failure allowed is the known DFT_6 defect (ROADMAP item 3).
    failures = [line.split() for line in proc.stderr.splitlines()
                if line.strip().startswith("failure ")]
    assert {f[1] for f in failures} <= {"dft6:ConvergenceError"}
    assert sum(r["failed"] for r in results.values()) == sum(int(f[2][1:]) for f in failures)


def test_smoke_trace_bypass_predictions():
    proc = _run(["--smoke", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    results = _results(proc)
    m = {w: {k: v["value"] for k, v in r["metrics"].items()} for w, r in results.items()}
    units = {x["name"]: x["unit"] for x in SPEC["per_layer"]}
    for r in results.values():
        assert {k: v["unit"] for k, v in r["metrics"].items()} == units
    assert m["cli_closed_form"]["scaling.zxz_scale.calls"] == 0
    assert m["cli_closed_form"]["birkhoff.product.calls"] == 0
    assert m["cli_closed_form"]["numerics.dumps_json.self_ms"] > 0
    for api in ("xu_composite", "unitary_mixed"):
        assert m[api]["numerics.dumps_json.self_ms"] == 0
        assert m[api]["scaling.zxz_scale.calls"] > 0
    assert m["xu_composite"]["birkhoff.product.calls"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_closed_form",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
