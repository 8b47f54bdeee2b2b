import importlib.util
import json
from pathlib import Path

from vlbb84 import LinkParams, SecurityParams, reconcile
from vlbb84.planner import plan
from vlbb84.protocol import run_from_plan

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cascade_ab.py"
_spec = importlib.util.spec_from_file_location("cascade_ab", TOOL)
cascade_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cascade_ab)

RECONCILE = ROOT / "src" / "vlbb84" / "reconcile.py"
TINY = ["--group", "30:1000:count", "--group", "5:1000:sqrt", "--run-seeds",
        "1-2", "--rounds", "2"]


def test_same_reconcile_is_identical_on_every_call(capsys):
    assert cascade_ab.main(["--baseline", str(RECONCILE), *TINY]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["baseline"] == str(RECONCILE)
    assert list(doc["groups"]) == ["30:1000:count", "5:1000:sqrt"]
    for group in doc["groups"].values():
        assert (group["calls"], group["identical"], group["rounds"]) == (
            2, True, 2)
        assert group["baseline_s"] > 0 and group["change_s"] > 0
        assert 0 <= group["change_faster_rounds"] <= 2


def test_a_differing_field_fails_the_comparison(capsys, tmp_path):
    # A baseline that reports one more disclosed parity on every call.
    baseline = tmp_path / "reconcile.py"
    source = RECONCILE.read_text()
    assert source.count("n_exp = sum(leak)\n") == 1
    baseline.write_text(source.replace("n_exp = sum(leak)\n",
                                       "n_exp = sum(leak) + 1\n"))
    assert cascade_ab.main(["--baseline", str(baseline), *TINY]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [g["identical"] for g in doc["groups"].values()] == [False, False]


def test_run_seeds_give_one_call_each(capsys):
    assert cascade_ab.main(["--baseline", str(RECONCILE), "--group",
                            "30:1000:fraction", "--run-seeds", "1-3",
                            "--rounds", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["groups"]["30:1000:fraction"]["calls"] == 3


def test_default_groups_are_the_bench_workloads():
    # The bench's request lists, read from bench/run.py itself.
    assert cascade_ab._group("short_keys") == (
        "short_keys", [(d, 1000, k) for d in (5.0, 30.0, 65.0)
                       for k in ("fraction", "count", "sqrt")], 20)
    assert cascade_ab._group("long_keys") == (
        "long_keys", [(5.0, 100_000, "count"), (30.0, 100_000, "count")], 10)


def test_captured_call_replays_the_run():
    # A captured call, run on the checkout's Cascade, gives the run's own
    # Cascade fields.
    link, sec = LinkParams(), SecurityParams()
    [call] = cascade_ab.capture_calls([(30.0, 1000, "count")], 1, [7])
    _, fields = cascade_ab.run_call(reconcile.cascade, call)
    record = run_from_plan(plan(30.0, 1000, "count", link, sec), link, sec, 7)
    assert fields[:3] == (record.n_exp, record.f_realized, record.verified)
