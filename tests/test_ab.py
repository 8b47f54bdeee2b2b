import ast
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vlbb84 import LinkParams, SecurityParams, plan, reconcile
from vlbb84.protocol import run_from_plan

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SRC = ROOT / "src"
# A feasible plan of each kind, one past d_lim, one at d = 0 with m_F = 1,
# and one at a given noise.
PLAN_TINY = ["--group", "30:1000:count", "--group", "5:100:sqrt",
             "--group", "0:1:fraction", "--group", "80:1000:count",
             "--group", "30:1000:sqrt:0.02", "--rounds", "2"]
CASCADE_TINY = ["--group", "30:1000:count", "--group", "5:1000:sqrt",
                "--run-seeds", "1-2", "--rounds", "2"]


def _copy_src(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of the checkout's src/ tree with `old` replaced by `new`, once,
    in vlbb84/`module`."""
    baseline = tmp_path / "src"
    shutil.copytree(SRC / "vlbb84", baseline / "vlbb84",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = baseline / "vlbb84" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return baseline


def test_plan_same_tree_is_identical_on_every_request(capsys):
    assert ab.main(["plan", "--baseline", str(SRC), *PLAN_TINY]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["baseline"], doc["target"]) == (str(SRC), "plan")
    assert list(doc["groups"]) == ["30:1000:count", "5:100:sqrt",
                                   "0:1:fraction", "80:1000:count",
                                   "30:1000:sqrt:0.02"]
    for group in doc["groups"].values():
        assert (group["items"], group["identical"], group["differing"],
                group["rounds"]) == (1, True, 0, 2)
        assert group["baseline_s"] > 0 and group["change_s"] > 0
        assert 0 <= group["change_faster_rounds"] <= 2
    assert not any(name.startswith(ab.BASELINE_PACKAGE)
                   for name in sys.modules)


def test_plan_perturbed_constant_fails_the_comparison(capsys, tmp_path):
    # A baseline whose golden section stops at twice the width moves the
    # optimized noise of every feasible request; a given noise, and a
    # request past d_lim, are untouched.
    baseline = _copy_src(tmp_path, "planner.py", "_NOISE_TOL = 1e-6\n",
                         "_NOISE_TOL = 2e-6\n")
    assert ab.main(["plan", "--baseline", str(baseline), *PLAN_TINY]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [g["identical"] for g in doc["groups"].values()] == [
        False, False, False, True, True]
    [example] = doc["groups"]["30:1000:count"]["differing_examples"]
    assert example["baseline"] != example["change"]


def test_plan_default_groups_are_identical_on_one_round(capsys):
    assert ab.main(["plan", "--baseline", str(SRC), "--rounds", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {name: (g["items"], g["identical"])
            for name, g in doc["groups"].items()} == {
        "plan_grid": (300, True), "wide": (1080, True)}


def test_plan_grid_group_is_the_bench_workload():
    requests = ab.bench_requests("plan_grid")
    assert len(requests) == 300
    assert {(d, m_f, kind) for d, m_f, kind, _, _ in requests} == {
        (float(d), m_f, kind) for d in range(2, 79, 4)
        for m_f in (100, 1000, 10_000, 100_000, 1_000_000)
        for kind in ("fraction", "count", "sqrt")}
    assert all(p_extra is None and sec == {}
               for _, _, _, p_extra, sec in requests)


def test_wide_group_covers_the_edges():
    requests = ab.wide_requests()
    distances = {r[0] for r in requests}
    assert {0.0, 1e-300, 0.5, 88.0} <= distances
    assert {r[1] for r in requests} >= {1, 100_000_000}
    assert {r[2] for r in requests} == {"fraction", "count", "sqrt"}
    assert {r[3] for r in requests} == {None, 0.02}
    # The default security parameters and two edge sets, each valid.
    assert ab.SECS[0] == {} and len(ab.SECS) == 3
    assert {repr(r[4]) for r in requests} == set(map(repr, ab.SECS))
    for sec in ab.SECS:
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
def test_a_plan_result_is_the_plan_or_the_error(args, want):
    _, out = ab.run_plan(plan, args)
    if want is None:
        assert out == repr(plan(*args).as_dict())
    else:
        kind, stage, message = ast.literal_eval(out)
        assert (kind, stage) == want and message


def test_cascade_same_tree_is_identical_on_every_call(capsys):
    assert ab.main(["cascade", "--baseline", str(SRC), *CASCADE_TINY]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["baseline"], doc["target"]) == (str(SRC), "cascade")
    assert list(doc["groups"]) == ["30:1000:count", "5:1000:sqrt"]
    for group in doc["groups"].values():
        assert (group["items"], group["identical"], group["rounds"]) == (
            2, True, 2)
        assert group["baseline_s"] > 0 and group["change_s"] > 0
        assert 0 <= group["change_faster_rounds"] <= 2
    assert not any(name.startswith(ab.BASELINE_PACKAGE)
                   for name in sys.modules)


def test_cascade_differing_field_fails_the_comparison(capsys, tmp_path):
    # A baseline that reports one more disclosed parity on every call.
    baseline = _copy_src(tmp_path, "reconcile.py", "n_exp = sum(leak)\n",
                         "n_exp = sum(leak) + 1\n")
    assert ab.main(["cascade", "--baseline", str(baseline),
                    *CASCADE_TINY]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [g["identical"] for g in doc["groups"].values()] == [False, False]
    example = doc["groups"]["30:1000:count"]["differing_examples"][0]
    assert example["item"].endswith("seed 1")


def test_run_seeds_give_one_call_each(capsys):
    assert ab.main(["cascade", "--baseline", str(SRC), "--group",
                    "30:1000:fraction", "--run-seeds", "1-3",
                    "--rounds", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["groups"]["30:1000:fraction"]["items"] == 3


def test_cascade_default_groups_are_the_bench_workloads():
    # The bench's request lists, read from bench/run.py itself.
    assert ab.bench_requests("short_keys") == [
        (d, 1000, k, None, {}) for d in (5.0, 30.0, 65.0)
        for k in ("fraction", "count", "sqrt")]
    assert ab.bench_requests("long_keys") == [
        (5.0, 100_000, "count", None, {}), (30.0, 100_000, "count", None, {})]
    assert ab.CASCADE_RUNS == {"short_keys": 20, "long_keys": 10}


def test_captured_call_replays_the_run():
    # A captured call, run on the checkout's Cascade, gives the run's own
    # Cascade fields.
    link, sec = LinkParams(), SecurityParams()
    [label], [call] = ab.capture_calls([(30.0, 1000, "count", None, {})],
                                       None, [7])
    assert label == "(30.0, 1000, 'count', None, {}) seed 7"
    _, fields = ab.run_call(reconcile.cascade, call)
    record = run_from_plan(plan(30.0, 1000, "count", link, sec), link, sec, 7)
    assert ast.literal_eval(fields)[:3] == (
        record.n_exp, record.f_realized, record.verified)


def _aborting_seed(request: str) -> int:
    """The first run seed whose planned run of `request` aborts before
    Cascade."""
    link, sec = LinkParams(), SecurityParams()
    d, m_f, kind = request.split(":")
    the_plan = plan(float(d), int(m_f), kind, link, sec)
    return next(s for s in range(1000)
                if run_from_plan(the_plan, link, sec, s).aborted)


@pytest.mark.parametrize("seeds", ["5-3", "aborting"])
def test_a_group_with_no_call_is_an_error(capsys, seeds):
    # An empty seed range, or a seed whose run aborts before Cascade,
    # leaves nothing to compare.
    request = "75:1000:count"
    if seeds == "aborting":
        seeds = str(_aborting_seed(request))
    assert ab.main(["cascade", "--baseline", str(SRC), "--group", request,
                    "--run-seeds", seeds, "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "error": f"group {request}: no item to compare"}


def test_an_unplannable_cascade_request_is_an_error():
    # Past d_lim, the tool run as a script answers one JSON error line
    # that names the request, and no traceback.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(TOOL), "cascade", "--baseline", str(SRC),
         "--group", "80:1000:count"], capture_output=True, text=True,
        env=env, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.count("\n") == 1
    error = json.loads(proc.stdout)["error"]
    assert error.startswith("request (80.0, 1000, 'count', None, {}): ")
    assert "optimal_extra_noise" in error


@pytest.mark.parametrize("target", ["plan", "cascade"])
@pytest.mark.parametrize("args, message", [
    (["--rounds", "0"], "--rounds must be at least 1"),
    (["--rounds", "-3"], "--rounds must be at least 1"),
    (["--baseline", "/nonexistent/src"],
     "--baseline /nonexistent/src has no vlbb84/__init__.py"),
], ids=["rounds-0", "rounds-negative", "missing-baseline"])
def test_a_bad_option_is_a_parse_error(capsys, target, args, message):
    argv = [target, "--baseline", str(SRC), "--group", "30:1000:count", *args]
    with pytest.raises(SystemExit) as exit_:
        ab.main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.rstrip().endswith(f"error: {message}")
