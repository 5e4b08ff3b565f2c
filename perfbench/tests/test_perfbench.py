"""Tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (path set up above)
import workloads  # noqa: E402
from repro.core.apps import HeavyHitterAlert  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

SEED = 3


@pytest.fixture(autouse=True)
def spans_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.fixture(scope="module")
def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool) -> dict:
    return run.run_benchmark(name, SEED, 0.0, trace, workloads.TINY)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name):
    result = tiny_run(name, trace=False)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[metric]
        assert entry["value"] > 0, metric


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    result = tiny_run(name, trace=True)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.PER_LAYER[metric]
        assert isinstance(entry["value"], (int, float)), metric
    assert result["metrics"]["controller.windows"]["value"] > 0


def test_benchmark_json_names_what_the_command_prints(spec):
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_self_times_add_up_to_traced_wall():
    workload = workloads.make_workload("fleet-dense", SEED, workloads.TINY)
    workload.setup()
    recorder = SpanRecorder()
    counts: dict = {}
    workload.instrument(recorder, counts)
    try:
        traced = workload.run_pass(recorder)
    finally:
        recorder.restore()
    self_total = sum(seconds for _calls, seconds
                     in recorder.self_times().values())
    assert self_total == pytest.approx(recorder.root_seconds(), rel=1e-9)
    assert recorder.root_seconds() <= traced.wall_s
    assert counts["channel.renders"] > 0


def test_corrupted_pass_fails_the_run(monkeypatch):
    original = workloads.FleetWorkload.run_pass
    calls = []

    def corrupt_second_pass(self, recorder=None):
        result = original(self, recorder)
        calls.append(result)
        if len(calls) == 2:
            result = dataclasses.replace(result, digest="0" * 64)
        return result

    monkeypatch.setattr(workloads.FleetWorkload, "run_pass",
                        corrupt_second_pass)
    assert tiny_run("fleet-dense", trace=False)["correct"] is False


def test_process_fleet_must_equal_serial(monkeypatch):
    workload = workloads.make_workload("fleet-process", SEED, workloads.TINY)
    workload.setup()
    passes = [workload.run_pass(), workload.run_pass()]
    assert workload.check(passes) == []
    real_run_fleet = workloads.run_fleet

    def lossy_serial(spec, **kwargs):
        report = real_run_fleet(spec, **kwargs)
        report.shards[0].rooms[0].delivered -= 1
        return report

    monkeypatch.setattr(workloads, "run_fleet", lossy_serial)
    problems = workload.check(passes)
    assert any("serial" in problem for problem in problems)


def test_telemetry_must_equal_heavy_hitter_experiment(monkeypatch):
    workload = workloads.make_workload("telemetry-hh", SEED, workloads.TINY)
    assert workload.cross_check() == []
    real_experiment = workloads.heavy_hitter_experiment

    def extra_alert(**kwargs):
        result = real_experiment(**kwargs)
        result.alerts.append(result.alerts[0] if result.alerts else
                             HeavyHitterAlert(0.0, 400.0, 9))
        return result

    monkeypatch.setattr(workloads, "heavy_hitter_experiment", extra_alert)
    assert any("alerts" in problem for problem in workload.cross_check())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
