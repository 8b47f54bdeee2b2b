"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Three requests per workload (plan_grid keeps one past d_lim) and a
    single timed setup spawn."""
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    for name, w in run.WORKLOADS.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(
            w, requests=w.requests[:2] + w.requests[-1:]))


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_unit(tiny, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["trace.missing"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_plan_grid_trace_records_no_simulation(tiny, capsys):
    m = bench(capsys, "plan_grid", 1)["metrics"]
    for name in ("protocol.quantum_phase.calls", "reconcile.cascade.calls",
                 "extract.calls"):
        assert m[name]["value"] == 0
    assert m["planner.share"]["value"] > 0.9


def test_stage_self_times_account_for_ops(tiny, capsys):
    m = bench(capsys, "short_keys", 1)["metrics"]
    layers = ("planner", "protocol", "reconcile", "extract")
    total = sum(m[f"{layer}.share"]["value"] for layer in layers)
    assert total + m["bench.op_self_share"]["value"] == pytest.approx(1.0)
    assert m["bench.op_self_share"]["value"] < 0.01


@pytest.mark.parametrize("corrupt", ["flip_key_bit", "wrong_m"])
def test_corrupted_output_is_counted(tiny, capsys, monkeypatch, corrupt):
    protocol = run.load_program()["protocol"]
    honest = protocol.run_from_plan

    def corrupted(*args):
        record = honest(*args)
        if corrupt == "flip_key_bit":
            record.final_key[0] ^= 1
        else:
            record.m += 1
        return record

    monkeypatch.setattr(protocol, "run_from_plan", corrupted)
    result = bench(capsys, "short_keys", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == \
        pytest.approx(1 - result["failed"] / result["attempted"])


def test_missing_stage_is_reported_not_fatal(tiny, capsys, monkeypatch):
    monkeypatch.setattr(spans, "STAGES",
                        spans.STAGES + (("protocol", "no_such_stage", "protocol"),))
    result = bench(capsys, "long_keys", 1)
    assert result["correct"]
    assert result["metrics"]["trace.missing"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "short_keys",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
