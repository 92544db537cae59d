"""Smoke test of the benchmark: tiny runs of both workloads, traced and untraced.

    python3 -m pytest perfbench -q

The first run trains small cached checkpoints (about half a minute); later
runs take seconds.
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
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> dict:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(workload, 1)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "generate":
        assert value["autograd.backward.calls"] == 0
        assert value["nn.adam_step.calls"] == 0
        assert value["pointer.decoder_states.calls_per_example"] > 1
        assert value["decoding.iterate.calls"] > 0
    else:
        assert value["autograd.backward.calls"] > 0
        assert value["nn.adam_step.calls"] > 0
        assert value["pointer.decoder_states.calls_per_example"] == 1
        assert value["decoding.iterate.calls"] == 0
        assert value["pointer.beam_search.ms_per_call"] == 0


def test_fails_cleanly_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "train", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
