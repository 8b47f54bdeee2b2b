"""A/B two planners request by request: identical plans, and time per plan.

The tool loads a baseline `src/` tree under the package name
`vlbb84_baseline`, beside the `vlbb84` that PYTHONPATH provides, and
calls `plan()` of both on fixed request sets:

- it checks that every request gives the same result on both: the plan's
  `as_dict()`, or the exception's type name, stage and message, compared
  by repr, so that floats must match bit for bit;
- it times the two interleaved, request by request, on one CPU: each
  round plans every request once on each tree, the tree that goes first
  alternating from request to request, and sums each tree's time.

    PYTHONPATH=src python tools/planner_ab.py --baseline OLD/src
        [--set plan_grid] [--set wide] [--request D:MF:KIND[:P_EXTRA]]
        [--rounds 20]

A set is `plan_grid`, the requests of that workload in `bench/run.py`
(default link and security parameters, noise optimized), or `wide`, a
fixed grid of edge requests (see WIDE_*); or one request `D:MF:KIND`, with
an optional given noise. The default is the two sets.

Prints one JSON object: per set its requests, whether every result was
identical (with up to five differing requests), and, over the rounds,
the median summed seconds of each tree, the median microseconds per
plan, the change's relative difference and the rounds it was faster in.
Exits with status 1 when any result differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

import vlbb84

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"
BASELINE_PACKAGE = "vlbb84_baseline"
KINDS = ("fraction", "count", "sqrt")
# The wide grid: d = 0, a subnormal-scale distance and 0.5-88 km (d_lim is
# 77.9 km); m_F from 1 to 1e8; every kind with the noise optimized and
# given; the default security parameters, one whose entropy denominator
# turns non-positive inside the noise range, and one whose accuracy
# floor overflows. Each entry of SECS is a SecurityParams field dict.
WIDE_DISTANCES = (0.0, 1e-300, 0.5, 5.0, 17.0, 30.0, 45.0, 65.0, 75.0,
                  77.9, 80.0, 88.0)
WIDE_MF = (1, 100, 10_000, 1_000_000, 100_000_000)
WIDE_NOISE = (None, 0.02)
SECS = ({}, {"f_max": 6.0}, {"Q_t": 0.2, "eps": 1e-300})


def load_tree(src: Path, name: str = BASELINE_PACKAGE):
    """The vlbb84 package of the `src/` tree `src`, imported as `name`; its
    relative imports resolve inside that package."""
    init = src / "vlbb84" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def plan_grid_requests() -> list[tuple]:
    """The plan_grid workload of bench/run.py, as (d, m_F, kind, p_extra,
    sec) requests."""
    # bench/run.py imports spans.py from its own directory.
    sys.path.insert(0, str(BENCH.parent))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH)
        bench = importlib.util.module_from_spec(spec)
        sys.modules["bench_run"] = bench
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(BENCH.parent))
        sys.modules.pop("bench_run", None)
    return [(r.d, r.m_f, r.kind, None, {})
            for r in bench.WORKLOADS["plan_grid"].requests]


def wide_requests() -> list[tuple]:
    """The wide grid, as (d, m_F, kind, p_extra, sec) requests."""
    return [(d, m_f, kind, p_extra, sec) for sec, d, m_f, kind, p_extra in
            itertools.product(SECS, WIDE_DISTANCES, WIDE_MF, KINDS,
                              WIDE_NOISE)]


SETS = {"plan_grid": plan_grid_requests, "wide": wide_requests}


def bind(tree, requests: list[tuple]) -> list[tuple]:
    """Each request as the arguments of `tree.plan`, with the tree's own
    LinkParams and SecurityParams."""
    link, g = tree.LinkParams(), tree.planner.DEFAULT_FRACTION
    return [(d, m_f, kind, link, tree.SecurityParams(**sec), g, p_extra)
            for d, m_f, kind, p_extra, sec in requests]


def run_plan(plan, args: tuple) -> tuple[float, str]:
    """Plan one request; returns its seconds and the repr of its result."""
    start = time.perf_counter()
    try:
        out = plan(*args).as_dict()
    except (ValueError, ArithmeticError) as exc:
        out = (type(exc).__name__, getattr(exc, "stage", None), str(exc))
    elapsed = time.perf_counter() - start
    return elapsed, repr(out)


def compare(requests: list[tuple], baseline, change, rounds: int) -> dict:
    """Time `rounds` interleaved rounds of every request on both trees."""
    calls = (bind(baseline, requests), bind(change, requests))
    plans = (baseline.plan, change.plan)
    differing = {}
    totals: list[list[float]] = []   # per round: [baseline, change] seconds
    for r in range(rounds):
        gc.collect()
        total = [0.0, 0.0]
        for i, request in enumerate(requests):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            out = {}
            for which in order:
                elapsed, out[which] = run_plan(plans[which], calls[which][i])
                total[which] += elapsed
            if out[0] != out[1]:
                differing[i] = {"request": repr(request), "baseline": out[0],
                                "change": out[1]}
        totals.append(total)
    base = statistics.median(t[0] for t in totals)
    new = statistics.median(t[1] for t in totals)
    per_plan = 1e6 / len(requests)
    return {"requests": len(requests), "identical": not differing,
            "differing": len(differing),
            "differing_examples": list(differing.values())[:5],
            "rounds": rounds, "baseline_s": base, "change_s": new,
            "baseline_us_per_plan": base * per_plan,
            "change_us_per_plan": new * per_plan,
            "change_vs_baseline": new / base - 1.0 if base else 0.0,
            "change_faster_rounds": sum(t[1] < t[0] for t in totals)}


def _request(text: str) -> tuple[str, list]:
    d, m_f, kind, *noise = text.split(":")
    p_extra = float(noise[0]) if noise else None
    return text, [(float(d), int(float(m_f)), kind, p_extra, {})]


def _set(text: str) -> tuple[str, list]:
    if text not in SETS:
        raise argparse.ArgumentTypeError(
            f"unknown set {text!r}; choose from {sorted(SETS)}")
    return text, SETS[text]()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="the src/ directory of the baseline tree")
    parser.add_argument("--set", dest="groups", action="append", type=_set,
                        help="plan_grid or wide")
    parser.add_argument("--request", dest="groups", action="append",
                        type=_request, help="one request D:MF:KIND[:P_EXTRA]")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    groups = args.groups or [_set(name) for name in SETS]
    baseline = load_tree(args.baseline)

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        report = {name: compare(requests, baseline, vlbb84, args.rounds)
                  for name, requests in groups}
    finally:
        os.sched_setaffinity(0, affinity)
        for name in [n for n in sys.modules
                     if n.partition(".")[0] == BASELINE_PACKAGE]:
            del sys.modules[name]
    print(json.dumps({"baseline": str(args.baseline), "sets": report}))
    return 0 if all(g["identical"] for g in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
