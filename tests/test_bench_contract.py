"""What bench/ needs of the program, checked in tier-1.

The benchmark times the program's stages by wrapping module attributes
from outside and calls the program positionally, so a refactor can break
it without failing a test under tests/. bench/spans.py is read, never
imported, so this leaves no file under bench/.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from vlbb84 import (LinkParams, SecurityParams, channel_at, extract, planner,
                    protocol)

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    # Registered first: its dataclasses look their module up by name.
    spans = sys.modules["bench_spans"] = types.ModuleType("bench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"),
         spans.__dict__)
    return spans


STAGES = load_spans().STAGES


@pytest.mark.parametrize("module, function",
                         [stage[:2] for stage in STAGES],
                         ids=[".".join(stage[:2]) for stage in STAGES])
def test_every_timed_stage_exists(module, function):
    assert callable(getattr(importlib.import_module(f"vlbb84.{module}"),
                            function, None))


def test_plan_and_run_take_the_bench_positional_calls():
    link, sec = LinkParams(), SecurityParams()
    the_plan = planner.plan(30.0, 1000, "count", link, sec)
    record = protocol.run_from_plan(the_plan, link, sec, 7)
    assert record.N == the_plan.N_F
    assert record.m >= 1000


def test_quantum_phase_outcomes_count_detections():
    result = protocol.quantum_phase(10_000, channel_at(LinkParams(), 5.0), 3)
    assert int(result[1].detected.sum()) > 0


def test_same_run_seed_hashes_the_same_input(monkeypatch):
    # The bench's dense Toeplitz oracle re-runs an op with its run seed and
    # expects the extractor to see the same input and seed again: no
    # generator state may carry from one run into the next.
    calls = []
    toeplitz = extract.toeplitz_extract

    def recording(input_bits, seed_bits, m):
        calls.append((np.array(input_bits), np.array(seed_bits), m))
        return toeplitz(input_bits, seed_bits, m)

    monkeypatch.setattr(extract, "toeplitz_extract", recording)
    link, sec = LinkParams(), SecurityParams()
    the_plan = planner.plan(30.0, 1000, "count", link, sec)
    for _ in range(2):
        protocol.run_from_plan(the_plan, link, sec, 7)
    (x1, s1, m1), (x2, s2, m2) = calls
    assert m1 == m2 > 0
    assert np.array_equal(x1, x2)
    assert np.array_equal(s1, s2)


def test_chunked_extraction_is_one_call_of_the_dense_product(monkeypatch):
    # The bench's oracle captures the one toeplitz_extract call of a run,
    # as (input, seed bits, m), and compares the run's key with the dense
    # GF(2) product of that call. A chunk limit of 2^10 - 1 bits splits the
    # ~1.3k-bit input of a planned m_F = 1000 run into two chunks inside
    # that one call.
    monkeypatch.setattr(extract, "_PACK_BITS", 10)
    calls = []
    toeplitz = extract.toeplitz_extract

    def recording(*args):
        calls.append(args)
        return toeplitz(*args)

    monkeypatch.setattr(extract, "toeplitz_extract", recording)
    link, sec = LinkParams(), SecurityParams()
    the_plan = planner.plan(30.0, 1000, "count", link, sec)
    record = protocol.run_from_plan(the_plan, link, sec, 7)
    (x, seed_bits, m), = calls
    assert len(x) > 2 ** 10 - 1
    assert m == record.m >= 1000
    windows = np.lib.stride_tricks.sliding_window_view(seed_bits, len(x))
    assert np.array_equal(record.final_key, (windows[m - 1::-1] @ x) % 2)
