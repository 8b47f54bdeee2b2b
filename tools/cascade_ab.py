"""A/B two Cascade implementations call by call, on the calls of real runs.

The tool plans and runs fixed requests and captures the input of every
Cascade call (both keys, q_ref and the generator's state); the run stops
there, since nothing after Cascade is compared. It then loads a baseline
`reconcile.py` from a path, beside the `vlbb84.reconcile` that PYTHONPATH
provides, and runs every captured call on both:

- it checks that n_exp, f_realized, verified, leak_per_pass and
  searches_per_pass are identical on every call, and
- it times the two interleaved, call by call, on one CPU: each round
  runs every call once on each version, the version that goes first
  alternating from call to call, and sums each version's time per group.

    PYTHONPATH=src python tools/cascade_ab.py --baseline OLD/reconcile.py
        [--group short_keys] [--group 65:1000000:count]
        [--run-seeds 1-5] [--rounds 10]

A group is a workload of `bench/run.py`, whose requests it takes from
that file's WORKLOADS: `short_keys` (20 calls per request) or
`long_keys` (10 calls per request); or one request `D:MF:KIND`
(5 calls). The default is the two workloads. Run seeds are drawn from a
generator seeded with 0, and a run that aborts before Cascade is
skipped, unless `--run-seeds A-B` gives the seeds of a request's runs
(one call per seed that reaches Cascade).

Prints one JSON object: per group its calls, whether every call was
identical, and, over the rounds, the median summed seconds of each
version, the change's relative difference and the rounds it was faster
in. Exits with status 1 when any call differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from vlbb84 import LinkParams, SecurityParams, protocol, reconcile
from vlbb84.planner import plan

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"
GROUP_RUNS = {"short_keys": 20, "long_keys": 10}   # calls per request
REQUEST_RUNS = 5
SEED = 0            # draws the run seeds
FIELDS = ("n_exp", "f_realized", "verified", "leak_per_pass",
          "searches_per_pass")


class _Captured(Exception):
    """Raised in place of Cascade, carrying its arguments."""

    def __init__(self, call: tuple):
        super().__init__()
        self.call = call


def _raise_captured(key_a, key_b, q_ref, rng):
    raise _Captured((np.array(key_a), np.array(key_b), q_ref,
                     rng.bit_generator.state))


def _capture(the_plan, link, sec, run_seed: int) -> tuple | None:
    """The Cascade call of one run, or None if the run aborts before."""
    try:
        protocol.run_from_plan(the_plan, link, sec, run_seed)
    except _Captured as captured:
        return captured.call
    return None


def capture_calls(requests: list, runs: int,
                  run_seeds: list[int] | None) -> list[tuple]:
    """The Cascade calls of planned runs of each (d, m_F, kind) request:
    `runs` calls per request from run seeds drawn from SEED, or the
    calls of the runs with the given run seeds."""
    link, sec = LinkParams(), SecurityParams()
    seeds = np.random.default_rng(SEED)
    calls: list[tuple] = []
    real = protocol.cascade
    protocol.cascade = _raise_captured
    try:
        for d, m_f, kind in requests:
            the_plan = plan(d, m_f, kind, link, sec)
            if run_seeds is not None:
                got = [_capture(the_plan, link, sec, s) for s in run_seeds]
                calls += [call for call in got if call is not None]
                continue
            wanted = len(calls) + runs
            while len(calls) < wanted:
                call = _capture(the_plan, link, sec,
                                int(seeds.integers(0, 2**63)))
                if call is not None:
                    calls.append(call)
    finally:
        protocol.cascade = real
    return calls


def load_module(name: str, path: Path):
    """The source file `path`, imported as module `name`. A baseline
    `reconcile.py` is named inside the vlbb84 package, so that its
    relative imports resolve to the checkout's modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def run_call(cascade, call: tuple) -> tuple[float, tuple]:
    """Run one captured call; returns its seconds and reported fields."""
    key_a, key_b, q_ref, state = call
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    start = time.perf_counter()
    res = cascade(key_a, key_b, q_ref, rng)
    elapsed = time.perf_counter() - start
    return elapsed, tuple(getattr(res, f) for f in FIELDS)


def compare(calls: list[tuple], baseline, change, rounds: int) -> dict:
    """Time `rounds` interleaved rounds of every call on both versions."""
    identical = True
    totals: list[list[float]] = []   # per round: [baseline, change] seconds
    for r in range(rounds):
        gc.collect()
        total = [0.0, 0.0]
        for i, call in enumerate(calls):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            out = {}
            for which in order:
                elapsed, out[which] = run_call((baseline, change)[which], call)
                total[which] += elapsed
            identical &= out[0] == out[1]
        totals.append(total)
    base = statistics.median(t[0] for t in totals)
    new = statistics.median(t[1] for t in totals)
    return {"calls": len(calls), "identical": identical, "rounds": rounds,
            "baseline_s": base, "change_s": new,
            "change_vs_baseline": new / base - 1.0 if base else 0.0,
            "change_faster_rounds": sum(t[1] < t[0] for t in totals)}


def _group(text: str) -> tuple[str, list, int]:
    if text in GROUP_RUNS:
        # bench/run.py imports spans.py from its own directory.
        sys.path.insert(0, str(BENCH.parent))
        try:
            workload = load_module("bench_run", BENCH).WORKLOADS[text]
        finally:
            sys.path.remove(str(BENCH.parent))
        requests = [(r.d, r.m_f, r.kind) for r in workload.requests]
        return text, requests, GROUP_RUNS[text]
    d, m_f, kind = text.split(":")
    return text, [(float(d), int(float(m_f)), kind)], REQUEST_RUNS


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="the reconcile.py to compare against")
    parser.add_argument("--group", action="append", type=_group,
                        help="short_keys, long_keys or D:MF:KIND")
    parser.add_argument("--run-seeds", type=_seed_range, default=None,
                        help="run seeds A-B, used for every request")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    groups = args.group or [_group(name) for name in GROUP_RUNS]
    baseline = load_module("vlbb84._baseline_reconcile",
                           args.baseline).cascade

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        report = {}
        for name, requests, runs in groups:
            calls = capture_calls(requests, runs, args.run_seeds)
            report[name] = compare(calls, baseline, reconcile.cascade,
                                   args.rounds)
    finally:
        os.sched_setaffinity(0, affinity)
    print(json.dumps({"baseline": str(args.baseline), "groups": report}))
    return 0 if all(g["identical"] for g in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
