"""Tests of the benchmark harness itself, at the smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(*argv: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = _benchmark()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.metric_units(workloads.REGISTRY_IDS)
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = _run("--smoke", "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_frac = 0.0 ratio" in done.stdout
    setups = next(line for line in done.stdout.splitlines()
                  if line.startswith("set-ups (s, measured/rescaled): "))
    assert len(setups.split(":", 1)[1].split(",")) == run.SETUP_PROBES + 1


def test_traced_run_prints_every_per_layer_metric():
    done = _run("--smoke", "--workload", "peering-war", "--seed", "0",
                "--seconds", "0.5", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == layers.metric_units(workloads.SMOKE_IDS)
    assert os.path.isfile(os.path.join(ROOT, ".perfbench",
                                       "trace-peering-war.jsonl"))


def test_fail_frac_rises_when_an_output_is_perturbed(monkeypatch):
    import tussle.experiments.p02_depeering_war as p02

    seed, pins = workloads.resolve(workloads.load_pins(), "smoke",
                                   layers.PEERING, 0)
    _, attempted, failed = workloads.checked_pass(
        layers.PEERING, "smoke", seed, pins)
    assert (attempted, failed) == (1, 0)

    original = p02.run_p02

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        result.tables[-1].rows[0]["value"] = "0-0"
        return result

    monkeypatch.setattr(p02, "run_p02", perturbed)
    _, attempted, failed = workloads.checked_pass(
        layers.PEERING, "smoke", seed, pins)
    assert (attempted, failed) == (1, 1)


def _peering_coverage_error(bypass: bool) -> str:
    import tussle.peering.dynamics as dynamics

    original = dynamics.route_volumes
    recorder = layers.Recorder()
    with layers.install(recorder):
        if bypass:  # the loop stops calling the wrapped name
            dynamics.route_volumes = original
        workloads.run_pass(layers.PEERING, "smoke", 0)
    assert dynamics.route_volumes is original
    with pytest.raises(layers.CoverageError) as info:
        # Only the peering-war pass ran, so the other layers are absent.
        layers.span_metrics({layers.PEERING: recorder}, ())
    return str(info.value)


def test_coverage_check_fires_when_a_wrapper_is_bypassed():
    assert "value.route_volumes_calls" not in _peering_coverage_error(False)
    assert "value.route_volumes_calls" in _peering_coverage_error(True)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "population", "--seed", "0", "--seconds", "1",
                cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
