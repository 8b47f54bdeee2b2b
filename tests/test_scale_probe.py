import hashlib
import importlib.util
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from vlbb84.cli import main as vlbb84

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_probe.py"
_spec = importlib.util.spec_from_file_location("scale_probe", TOOL)
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)

# Only m_F = 1000 here: a probe of m_F >= 5e7 needs several GB.
RUN = ["run", "--distance", "30", "--mf", "1000", "--strategy", "count",
       "--seed", "3", "--emit-keys"]


def probe(capsys, argv: list[str]) -> tuple[int, dict]:
    """The probe's exit status and its one JSON line, with an empty stderr."""
    code = scale_probe.main(argv)
    out, err = capsys.readouterr()
    assert err == "" and len(out.splitlines()) == 1
    return code, json.loads(out)


def test_probe_answers_what_the_command_prints(capsys):
    code, doc = probe(capsys, RUN)
    assert code == 0
    assert set(doc) == {"argv", "exit_code", "wall_s", "maxrss_mb", "answer"}
    assert doc["argv"] == RUN and doc["exit_code"] == 0
    assert doc["wall_s"] > 0 and doc["maxrss_mb"] > 0
    assert vlbb84(RUN) == 0
    want = json.loads(capsys.readouterr().out)
    want["key_sha256"] = hashlib.sha256(
        bytes.fromhex(want.pop("final_key"))).hexdigest()
    assert doc["answer"] == want
    assert want["m"] >= 1000 and want["verified"]


def test_a_limit_binds_the_child_only(capsys):
    before = resource.getrlimit(resource.RLIMIT_AS)
    code, doc = probe(capsys, ["--max-as-mb", "1000", "run", "--distance",
                               "5", "--n", "10000000000"])
    assert code == 0 and doc["exit_code"] == 2
    assert doc["answer"]["error"] == "infeasible"
    assert doc["answer"]["stage"] == "quantum_phase"
    assert resource.getrlimit(resource.RLIMIT_AS) == before


@pytest.mark.parametrize("limit, child, exit_code", [
    ("1", scale_probe.CHILD, 1),        # too small for numpy's lazy imports
    (None, "import os, signal; os.kill(os.getpid(), signal.SIGKILL)", -9),
], ids=["tiny-limit", "killed"])
def test_a_child_without_an_answer_is_one_json_error(capsys, monkeypatch,
                                                    limit, child, exit_code):
    monkeypatch.setattr(scale_probe, "CHILD", child)
    argv = ["run", "--distance", "30", "--mf", "1000"]
    code, doc = probe(capsys, (["--max-as-mb", limit] if limit else []) + argv)
    assert code == 1
    assert set(doc) == {"argv", "exit_code", "wall_s", "maxrss_mb", "error",
                        "stderr"}
    assert doc["argv"] == argv and doc["exit_code"] == exit_code
    if limit:
        assert "Error" in doc["stderr"]


def test_a_sweep_probe_writes_what_the_sweep_writes(capsys, tmp_path):
    sweep = ["sweep", "--distances", "5,30", "--strategies", "count,sqrt",
             "--mf", "1000", "--iterations", "2", "--seed", "7", "--out"]
    code, doc = probe(capsys, [*sweep, str(tmp_path / "probe.csv")])
    assert code == 0 and doc["exit_code"] == 0
    assert doc["answer"] == {"written": str(tmp_path / "probe.csv"),
                             "points": 4}
    assert vlbb84([*sweep, str(tmp_path / "direct.csv")]) == 0
    assert ((tmp_path / "probe.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())


def test_each_probe_reports_its_own_peak():
    # A fresh, small process runs both probes: a child's ru_maxrss counts
    # the peak RSS of the process that spawns it, which for this test
    # process could exceed both runs' own.
    script = (f"import sys; sys.path.insert(0, {str(TOOL.parent)!r}); "
              "import scale_probe; "
              "scale_probe.main(['run', '--distance', '5', '--n', '30000000',"
              " '--seed', '1']); "
              "scale_probe.main(['plan', '--distance', '30', '--mf', '1000'])")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True).stdout
    large, small = (json.loads(line) for line in out.splitlines())
    assert large["exit_code"] == small["exit_code"] == 0
    assert small["maxrss_mb"] < large["maxrss_mb"] / 2
