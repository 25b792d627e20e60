"""Smoke test of the benchmark at tiny scale.

Run from the repository root with
``python -m pytest perfbench/tests/check_smoke.py``. The file name keeps it
out of the engine's default test collection: it starts endpoint processes
and takes about half a minute.

Each workload, including ``query`` which ``BENCHMARK.json`` does not list,
runs once untraced and once traced with the same seed. The test asserts
that every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
emitted with its unit, and that both runs report the same output digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("build", "query", "answer", "augment")


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split(" = ")[1] for line in lines if line.startswith(f"{workload} digest"))
    return json.loads(lines[-1]), digest


def test_benchmark_lists_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_repeats(workload):
    untraced, digest_untraced = _run(workload, 0)
    traced, digest_traced = _run(workload, 1)
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert digest_untraced == digest_traced


def test_missing_engine_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
