import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from vlbb84 import LinkParams, SecurityParams
from vlbb84.planner import plan
from vlbb84.protocol import run_from_plan

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_probe.py"
_spec = importlib.util.spec_from_file_location("scale_probe", TOOL)
scale_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_probe)


def test_probe_reports_the_run_of_its_child(capsys):
    # Only m_F = 1000 here: a probe of m_F >= 5e7 needs several GB.
    assert scale_probe.main(["--mf", "1000", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"d", "m_F", "seed", "wall_s", "maxrss_mb", "m",
                        "key_sha256"}
    assert (doc["d"], doc["m_F"], doc["seed"]) == (30.0, 1000, 3)
    assert doc["wall_s"] > 0 and doc["maxrss_mb"] > 0
    link, sec = LinkParams(), SecurityParams()
    record = run_from_plan(plan(30.0, 1000, "count", link, sec), link, sec, 3)
    assert doc["m"] == record.m >= 1000
    assert doc["key_sha256"] == hashlib.sha256(
        np.packbits(record.final_key).tobytes()).hexdigest()
