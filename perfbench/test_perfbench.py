"""Checks on the benchmark itself: gate, determinism, metric names, coverage.

Run from the repository root:

    python3 -m pytest perfbench

Each check runs ``run.py`` in its own process on the workloads' own
episodes, with a short time budget, so a run is one measured episode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import LAYER_MAP, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TIME_UNITS = ("ms", "us", "s")

HELD_OUT_SEED = 20191
ALL = sorted(WORKLOADS)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.5",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return info, result


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def is_time(unit: str) -> bool:
    return unit.split("/")[0] in TIME_UNITS


def test_spec_matches_workloads_and_layer_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(LAYER_MAP) == set(PER_LAYER)
    for name, (e2e, workloads) in LAYER_MAP.items():
        assert set(e2e) <= set(END_TO_END), name
        assert set(workloads) <= set(WORKLOADS), name


@pytest.mark.parametrize("workload", ALL)
def test_traced_runs_repeat_and_cover_wall_time(workload):
    first_info, first = bench(workload, 0, trace=1)
    second_info, second = bench(workload, 0, trace=1)
    plain_info, plain = bench(workload, 0, trace=0)

    # Tracing changes no behaviour, and repeats exactly.
    assert first_info["digest"] == second_info["digest"] == plain_info["digest"]
    counts = [
        {k: v for k, v in values(r).items() if not is_time(PER_LAYER[k])}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]

    for name, metric in first["metrics"].items():
        assert metric["unit"] == PER_LAYER.get(name)
    assert set(first["metrics"]) == set(PER_LAYER)
    for name, metric in plain["metrics"].items():
        assert metric["unit"] == END_TO_END.get(name)
        assert metric["value"] > 0, name
    assert set(plain["metrics"]) == set(END_TO_END)

    # Every layer metric meant to move on this workload is measured here.
    traced = values(first)
    for name, (_, workloads) in LAYER_MAP.items():
        if workload in workloads:
            assert traced[name] > 0, name

    for info in (first_info, second_info):
        assert abs(info["coverage"] - 1.0) <= 0.05
        assert info["rounds_per_s"] > 0


@pytest.mark.parametrize("workload", ALL)
def test_gate_passes_on_held_out_seed(workload):
    info, _ = bench(workload, HELD_OUT_SEED, trace=0)
    assert info["seed"] == HELD_OUT_SEED
    assert {"nproc", "python", "numpy"} <= set(info)
