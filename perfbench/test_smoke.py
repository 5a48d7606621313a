"""Smoke test of the benchmark itself, on tiny ladders.

Checks that every workload runs in both modes, that the last line of output
names exactly the metrics ``BENCHMARK.json`` declares, with their units, and
that no op fails.  Not part of the library's test suite; run it with::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    out = ROOT / "perfbench" / "out" / f"smoke-{workload}-{trace}.json"
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_and_no_op_fails(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    full = json.loads((ROOT / "perfbench" / "out" / f"smoke-{workload}-{trace}.json").read_text())
    assert full["fail_ratio"] == 0
    if trace and workload == "rooted-gap2":
        assert last["metrics"]["isomorphism.equivalence_table.calls"]["value"] == 0


def test_instances_do_not_depend_on_string_hashing():
    digests = set()
    for hashseed in ("1", "2"):
        proc = bench("cli-docs", 0, env={**os.environ, "PYTHONHASHSEED": hashseed})
        assert proc.returncode == 0, proc.stderr
        digests.update(line.split()[-1] for line in proc.stdout.splitlines() if line.startswith("# workload"))
    assert len(digests) == 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("rooted-gap2", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
