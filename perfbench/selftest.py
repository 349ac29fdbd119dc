"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py

They take about a minute: each traced run executes its fixed request prefix
twice, untraced and traced.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    return result


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_across_traced_runs(workload):
    first, second = (_result(_run(workload, 3, 1))["metrics"] for _ in range(2))
    assert set(first) == {m for m, _, _ in tracer.PER_LAYER}
    for m in tracer.COUNT_METRICS:
        assert first[m]["value"] == second[m]["value"], m


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _result(_run("spectrum-powerlaw", 5, 0))["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in metrics.values())


def test_timed_q4_stream_succeeds_and_the_known_defect_is_probed():
    proc = _run("spectrum-q4", 6, 0)
    assert _result(proc)["failed"] == 0
    assert "known_defect.count13_q0.25" in proc.stdout


def test_streams_are_seeded_and_blocked():
    take = lambda wl, seed: list(itertools.islice(workloads.requests(wl, seed), 12))  # noqa: E731
    assert take("spectrum-q4", 1) == take("spectrum-q4", 1)
    assert take("spectrum-q4", 1) != take("spectrum-q4", 2)
    block = take("spectrum-q4", 4)[:5]
    assert sorted(r["count"] for r in block) == list(range(8, 13))
    assert len({r["p"] for r in take("spectrum-powerlaw", 1)}) == 12


def test_spectrum_check_rejects_wrong_outputs():
    # q = k = 1/2 gives a = (2, 12) and the 2-row section [[2, 1], [1, 12.5]]
    req = {"family": "geometric", "q": 0.5, "k": 0.5, "count": 2}
    disc = (10.5 ** 2 + 4.0) ** 0.5
    lo, hi = (14.5 - disc) / 2, (14.5 + disc) / 2
    good = {"lambdas": [lo, hi], "masses": [0.6, 0.4], "N_used": 2}
    assert workloads.check_spectrum(req, good) is None
    assert "Sturm" in workloads.check_spectrum(req, dict(good, lambdas=[lo * (1 + 3e-9), hi]))
    assert "sum" in workloads.check_spectrum(req, dict(good, masses=[0.6, 0.5]))
    assert "non-positive" in workloads.check_spectrum(req, dict(good, masses=[1.0, 0.0]))
    assert workloads.check_verify(0, "15/15 criteria passed\n") is None
    assert workloads.check_verify(0, "14/15 criteria passed\n") is not None


def test_refuses_to_run_without_jspec_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("spectrum-q4", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
