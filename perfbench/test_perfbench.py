"""Smoke self-test of the benchmark: every workload, traced and untraced.

Run from the repository root with ``python3 -m pytest -q perfbench``.
Each case runs ``run.py --smoke`` in its own process (a few frames per
workload) and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600, check=False,
    )


def test_spec_entries_have_unit_and_direction():
    for group in ("end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert entry["unit"], entry
            assert entry["better"] in ("higher", "lower"), entry
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--trace", trace,
                "--smoke")
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-4000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = "per_layer" if trace == "1" else "end_to_end"
    names = {m["name"]: m for m in SPEC[group]}
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == names[name]["unit"], name


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files (no src/), it
    exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "paper_16u", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
