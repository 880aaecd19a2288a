"""Tests of the benchmark itself, at tiny run sizes.

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import timefuse
import timefuse.evidence
import timefuse.fusion

import run
import tracer
import worker
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TINY = 60


def tiny(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](seed, tmp_path, epochs=TINY)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_tiny_and_passes_its_checks(name, tmp_path):
    rep = tiny(name, tmp_path).rep()
    assert workloads.golden_failures(rep.checks, None) == 0, [c.problems for c in rep.checks]
    labels = set(workloads.ARTIFACTS)
    if name == "day_run":
        labels |= {"report_summary", "report_tdev"}
    assert rep.checks and all(set(c.digests) == labels for c in rep.checks)
    assert rep.cells > 0 and rep.run_s > 0 and rep.emit_s > 0 and rep.report_s > 0
    assert rep.wall_s >= rep.run_s + rep.emit_s


def test_rep_outputs_repeat_exactly(tmp_path):
    workload = tiny("wide_paths", tmp_path)
    first, second = workload.rep(), workload.rep()
    assert [(c.key, c.digests) for c in first.checks] == [
        (c.key, c.digests) for c in second.checks
    ]


def test_digest_mismatch_raises_fail_share(tmp_path):
    workload = tiny("wide_paths", tmp_path)
    rep = workload.rep()
    golden = {c.key: dict(c.digests) for c in rep.checks}
    args = SimpleNamespace(mode="measure", seconds=0.0)
    clean = worker.measure(workload, args, golden)
    assert clean["failed"] == 0 and clean["attempted"] == 2

    golden[rep.checks[0].key]["tdev"] = "0" * 64
    tampered = worker.measure(workload, args, golden)
    assert tampered["failed"] / tampered["attempted"] == 0.5
    assert tampered["reps"][0]["checks"][0]["problems"] == ["tdev digest differs from golden"]


def test_a_broken_invariant_counts_as_failed(tmp_path, monkeypatch):
    workload = tiny("wide_paths", tmp_path)
    monkeypatch.setattr(workload, "invariants", lambda scenario, result: ["broken"])
    rep = workload.rep()
    assert workloads.golden_failures(rep.checks, None) == 2


def test_committed_golden_covers_every_variant():
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(workloads.WORKLOADS)
    per_seed = {"preset_sweep": 35, "wide_paths": 2, "day_run": 1}
    for name, runs in golden.items():
        assert len(runs) == per_seed[name] * workloads.N_VARIANTS
        assert all(set(workloads.ARTIFACTS) <= set(d) for d in runs.values())


def test_self_time_excludes_wrapped_children(monkeypatch):
    original = timefuse.evidence.bpa_from_residual

    def slow_bpa(*args, **kwargs):
        time.sleep(0.002)
        return original(*args, **kwargs)

    for module in (timefuse, timefuse.evidence, timefuse.fusion):
        monkeypatch.setattr(module, "bpa_from_residual", slow_bpa)
    calibs = timefuse.preset("exp3").calibrations()
    with tracer.Tracer() as tr:
        timefuse.fusion.classify_paths([1e-11, -2e-11, 5e-12], calibs, 0.0, 1.0, "DS2")
    assert tr.calls["fusion.classify_paths"] == 1
    assert tr.calls["evidence.bpa_from_residual"] == 9
    bpa_ns = tr.self_ns["evidence.bpa_from_residual"]
    assert bpa_ns >= 9 * 2_000_000
    assert tr.self_ns["fusion.classify_paths"] < bpa_ns / 10
    assert timefuse.fusion.bpa_from_residual is slow_bpa


def test_missing_target_is_reported_absent(tmp_path):
    targets = tracer.TARGETS + ("evidence.no_such_function", "nosuchlayer.f")
    run_scenario = timefuse.harness.run_scenario
    init = timefuse.clocksim.RngStreams.__dict__["__init__"]
    with tracer.Tracer(targets=targets) as tr:
        assert timefuse.cli.run_scenario is not run_scenario
        tiny("wide_paths", tmp_path).rep()
    assert tr.absent == ["evidence.no_such_function", "nosuchlayer.f"]
    assert "evidence.no_such_function" not in tr.counts()
    assert tr.counts()["harness.run_scenario"] == 2
    assert timefuse.cli.run_scenario is run_scenario
    assert timefuse.clocksim.RngStreams.__dict__["__init__"] is init


def test_traced_call_counts_repeat_exactly(tmp_path):
    workload = tiny("preset_sweep", tmp_path)
    out = worker.measure(workload, SimpleNamespace(mode="trace", seconds=0.0), None)
    first, second = (t["calls"] for t in out["traced"])
    assert first == second
    assert first["harness.run_scenario"] == 35 and first["harness.csv_bytes"] > 0
    spans = out["traced"][0]["spans"]
    names = {s[0] for s in spans}
    assert {"harness.run_scenario", "harness.emit", "harness.parse_run_csv"} <= names
    by_id = dict(enumerate(spans))
    assert all(by_id[s[3]][0] == "harness.emit" for s in spans if s[0] == "harness.run_csv_text")


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(35))
    p, value = run.tail_percentile(samples)
    assert (p, value) == (71, 24)
    assert sum(s > value for s in samples) == 10
    assert run.tail_percentile(list(range(10))) is None


def test_benchmark_json_lists_what_the_bench_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    expected = [f"{t}.{k}" for t in tracer.TARGETS for k in ("calls", "self_s")]
    assert names[: len(expected)] == expected
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(run.PREDICTIONS) == set(tracer.LAYERS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    # full size, so the committed golden digests are checked too
    proc = bench("--workload", "day_run", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wide_paths", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
