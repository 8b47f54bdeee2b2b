import ast
import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

from vlbb84 import LinkParams, SecurityParams, plan

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "planner_ab.py"
_spec = importlib.util.spec_from_file_location("planner_ab", TOOL)
planner_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(planner_ab)

SRC = ROOT / "src"
# A feasible plan of each kind, one past d_lim, one at d = 0 with m_F = 1,
# and one at a given noise.
TINY = ["--request", "30:1000:count", "--request", "5:100:sqrt",
        "--request", "0:1:fraction", "--request", "80:1000:count",
        "--request", "30:1000:sqrt:0.02", "--rounds", "2"]


def test_same_tree_is_identical_on_every_request(capsys):
    assert planner_ab.main(["--baseline", str(SRC), *TINY]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline"] == str(SRC)
    assert list(doc["sets"]) == ["30:1000:count", "5:100:sqrt",
                                 "0:1:fraction", "80:1000:count",
                                 "30:1000:sqrt:0.02"]
    for group in doc["sets"].values():
        assert (group["requests"], group["identical"], group["differing"],
                group["rounds"]) == (1, True, 0, 2)
        assert group["baseline_s"] > 0 and group["change_s"] > 0
        assert 0 <= group["change_faster_rounds"] <= 2
    assert not any(name.startswith(planner_ab.BASELINE_PACKAGE)
                   for name in sys.modules)


def test_a_perturbed_constant_fails_the_comparison(capsys, tmp_path):
    # A baseline whose golden section stops at twice the width moves the
    # optimized noise of every feasible request; a given noise, and a
    # request past d_lim, are untouched.
    baseline = tmp_path / "src"
    shutil.copytree(SRC / "vlbb84", baseline / "vlbb84",
                    ignore=shutil.ignore_patterns("__pycache__"))
    planner = baseline / "vlbb84" / "planner.py"
    source = planner.read_text()
    assert source.count("_NOISE_TOL = 1e-6\n") == 1
    planner.write_text(source.replace("_NOISE_TOL = 1e-6\n",
                                      "_NOISE_TOL = 2e-6\n"))
    assert planner_ab.main(["--baseline", str(baseline), *TINY]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [g["identical"] for g in doc["sets"].values()] == [
        False, False, False, True, True]
    [example] = doc["sets"]["30:1000:count"]["differing_examples"]
    assert example["baseline"] != example["change"]


def test_both_sets_are_identical_on_one_round(capsys):
    assert planner_ab.main(["--baseline", str(SRC), "--rounds", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {name: (g["requests"], g["identical"])
            for name, g in doc["sets"].items()} == {
        "plan_grid": (300, True), "wide": (1080, True)}


def test_plan_grid_set_is_the_bench_workload():
    requests = planner_ab.plan_grid_requests()
    assert len(requests) == 300
    assert {(d, m_f, kind) for d, m_f, kind, _, _ in requests} == {
        (float(d), m_f, kind) for d in range(2, 79, 4)
        for m_f in (100, 1000, 10_000, 100_000, 1_000_000)
        for kind in ("fraction", "count", "sqrt")}
    assert all(p_extra is None and sec == {}
               for _, _, _, p_extra, sec in requests)


def test_wide_set_covers_the_edges():
    requests = planner_ab.wide_requests()
    distances = {r[0] for r in requests}
    assert {0.0, 1e-300, 0.5, 88.0} <= distances
    assert {r[1] for r in requests} >= {1, 100_000_000}
    assert {r[2] for r in requests} == {"fraction", "count", "sqrt"}
    assert {r[3] for r in requests} == {None, 0.02}
    # The default security parameters and two edge sets, each valid.
    assert planner_ab.SECS[0] == {} and len(planner_ab.SECS) == 3
    assert {repr(r[4]) for r in requests} == set(map(repr, planner_ab.SECS))
    for sec in planner_ab.SECS:
        SecurityParams(**sec)
    assert len(requests) == len(set(map(repr, requests)))


@pytest.mark.parametrize("args, want", [
    ((30.0, 1000, "count", LinkParams(), SecurityParams(), 1 / 3, None),
     None),
    ((80.0, 1000, "count", LinkParams(), SecurityParams(), 1 / 3, None),
     ("InfeasibleError", "optimal_extra_noise")),
    ((30.0, 0, "count", LinkParams(), SecurityParams(), 1 / 3, None),
     ("ValueError", None)),
])
def test_a_result_is_the_plan_or_the_error(args, want):
    _, out = planner_ab.run_plan(plan, args)
    if want is None:
        assert out == repr(plan(*args).as_dict())
    else:
        kind, stage, message = ast.literal_eval(out)
        assert (kind, stage) == want and message
