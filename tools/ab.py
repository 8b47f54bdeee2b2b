"""A/B a baseline `src/` tree against the checkout, item by item: identical
results, and time per item.

The tool loads a baseline `src/` tree under the package name
`vlbb84_baseline`, beside the `vlbb84` that PYTHONPATH provides, runs
fixed items on both and

- checks that every item gives the same result on both, compared by
  repr, so that floats must match bit for bit;
- times the two interleaved, item by item, on one CPU: each round runs
  every item once on each tree, the tree that goes first alternating
  from item to item, and sums each tree's time.

    PYTHONPATH=src python tools/ab.py plan --baseline OLD/src
        [--group plan_grid|wide|D:MF:KIND[:P_EXTRA]] [--rounds 20]
    PYTHONPATH=src python tools/ab.py cascade --baseline OLD/src
        [--group short_keys|long_keys|D:MF:KIND[:P_EXTRA]]
        [--run-seeds A-B] [--rounds 10]

`plan` compares `plan()`: an item is a request, bound to each tree's own
LinkParams and SecurityParams, and its result is the plan's `as_dict()`,
or the exception's type name, stage and message. `cascade` compares
`reconcile.cascade`: the checkout plans and runs each request and
captures the input of its Cascade call (both keys, q_ref and the
generator's state), stopping the run there; an item is one captured
call, and its result is the five fields of its `ReconcileResult`.

A group named after a workload of `bench/run.py` holds that workload's
requests, read from that file's WORKLOADS (default link and security
parameters, noise optimized); `wide` is a fixed grid of edge requests
(see WIDE_*); `D:MF:KIND` is one request, with an optional given noise.
The default groups are plan_grid and wide, or short_keys and long_keys.
`cascade` captures 20 calls per short_keys request, 10 per long_keys
request and 5 for a single request, from run seeds drawn from a
generator seeded with 0, skipping a run that aborts before Cascade;
`--run-seeds A-B` gives instead the run seeds of every request.

Prints one JSON object: per group its items, whether every result was
identical (with up to five differing items), and, over the rounds, the
median summed seconds of each tree, the median microseconds per item,
the change's relative difference and the rounds it was faster in.
Exits with status 1 when any result differs. A group with no item, or a
`cascade` request that cannot be planned, prints one JSON error line
instead and exits with status 1.
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

import numpy as np

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
CASCADE_RUNS = {"short_keys": 20, "long_keys": 10}   # calls per request
REQUEST_RUNS = 5
SEED = 0            # draws the run seeds
FIELDS = ("n_exp", "f_realized", "verified", "leak_per_pass",
          "searches_per_pass")


class GroupError(Exception):
    """A group that cannot be compared; its message names the group or
    the request."""


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


def bench_requests(workload: str) -> list[tuple]:
    """The requests of a workload of bench/run.py, as (d, m_F, kind,
    p_extra, sec) requests."""
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
            for r in bench.WORKLOADS[workload].requests]


def wide_requests() -> list[tuple]:
    """The wide grid, as (d, m_F, kind, p_extra, sec) requests."""
    return [(d, m_f, kind, p_extra, sec) for sec, d, m_f, kind, p_extra in
            itertools.product(SECS, WIDE_DISTANCES, WIDE_MF, KINDS,
                              WIDE_NOISE)]


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


class _Captured(Exception):
    """Raised in place of Cascade, carrying its arguments."""

    def __init__(self, call: tuple):
        super().__init__()
        self.call = call


def _raise_captured(key_a, key_b, q_ref, rng):
    raise _Captured((np.array(key_a), np.array(key_b), q_ref,
                     rng.bit_generator.state))


def _capture(the_plan, link, sec, seed: int) -> tuple | None:
    """The run seed and Cascade call of one run, or None if the run aborts
    before Cascade."""
    try:
        vlbb84.protocol.run_from_plan(the_plan, link, sec, seed)
    except _Captured as captured:
        return seed, captured.call
    return None


def capture_calls(requests: list[tuple], runs: int | None,
                  run_seeds: list[int] | None) -> tuple[list, list]:
    """The labels and Cascade calls of the checkout's planned runs of each
    request: `runs` calls per request from run seeds drawn from SEED, or
    one per given run seed whose run reaches Cascade."""
    draw = np.random.default_rng(SEED)
    labels, calls = [], []
    real, vlbb84.protocol.cascade = vlbb84.protocol.cascade, _raise_captured
    try:
        for request, args in zip(requests, bind(vlbb84, requests)):
            try:
                the_plan = vlbb84.plan(*args)
            except (ValueError, ArithmeticError) as exc:
                raise GroupError(f"request {request!r}: {exc}") from None
            link, sec = args[3:5]
            seeds = (run_seeds if run_seeds is not None else
                     iter(lambda: int(draw.integers(0, 2**63)), None))
            reached = filter(None, (_capture(the_plan, link, sec, s)
                                    for s in seeds))
            for seed, call in itertools.islice(
                    reached, runs if run_seeds is None else None):
                labels.append(f"{request!r} seed {seed}")
                calls.append(call)
    finally:
        vlbb84.protocol.cascade = real
    return labels, calls


def run_call(cascade, call: tuple) -> tuple[float, str]:
    """Run one captured call; returns its seconds and the repr of its
    reported fields."""
    key_a, key_b, q_ref, state = call
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    start = time.perf_counter()
    res = cascade(key_a, key_b, q_ref, rng)
    elapsed = time.perf_counter() - start
    return elapsed, repr(tuple(getattr(res, f) for f in FIELDS))


def compare(labels: list[str], run, rounds: int) -> dict:
    """Time `rounds` interleaved rounds of every item on both trees;
    `run(which, i)` runs item i on the baseline (0) or the change (1) and
    returns its seconds and the repr of its result."""
    differing = {}
    totals: list[list[float]] = []   # per round: [baseline, change] seconds
    for r in range(rounds):
        gc.collect()
        total = [0.0, 0.0]
        for i, label in enumerate(labels):
            out = [None, None]
            for which in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                elapsed, out[which] = run(which, i)
                total[which] += elapsed
            if out[0] != out[1]:
                differing[i] = {"item": label, "baseline": out[0],
                                "change": out[1]}
        totals.append(total)
    base = statistics.median(t[0] for t in totals)
    new = statistics.median(t[1] for t in totals)
    per_item = 1e6 / len(labels)
    return {"items": len(labels), "identical": not differing,
            "differing": len(differing),
            "differing_examples": list(differing.values())[:5],
            "rounds": rounds, "baseline_s": base, "change_s": new,
            "baseline_us_per_item": base * per_item,
            "change_us_per_item": new * per_item,
            "change_vs_baseline": new / base - 1.0 if base else 0.0,
            "change_faster_rounds": sum(t[1] < t[0] for t in totals)}


def plan_items(trees: tuple, name: str, requests: list[tuple],
               args) -> tuple:
    """A plan group's labels and its run on `trees`."""
    calls = [bind(tree, requests) for tree in trees]
    return ([repr(request) for request in requests],
            lambda which, i: run_plan(trees[which].plan, calls[which][i]))


def cascade_items(trees: tuple, name: str, requests: list[tuple],
                  args) -> tuple:
    """A cascade group's labels and its run on `trees`."""
    labels, calls = capture_calls(
        requests, CASCADE_RUNS.get(name, REQUEST_RUNS), args.run_seeds)
    cascades = [tree.reconcile.cascade for tree in trees]
    return labels, lambda which, i: run_call(cascades[which], calls[i])


# Per target: its named groups, its default rounds and how it builds a
# group's items.
TARGETS = {
    "plan": ({"plan_grid": lambda: bench_requests("plan_grid"),
              "wide": wide_requests}, 20, plan_items),
    "cascade": ({name: (lambda name=name: bench_requests(name))
                 for name in CASCADE_RUNS}, 10, cascade_items),
}


def _request(text: str) -> list[tuple]:
    d, m_f, kind, *noise = text.split(":")
    p_extra = float(noise[0]) if noise else None
    return [(float(d), int(float(m_f)), kind, p_extra, {})]


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    targets = parser.add_subparsers(dest="target", required=True)
    for target, (named, rounds, _) in TARGETS.items():
        sub = targets.add_parser(target)
        sub.add_argument("--baseline", type=Path, required=True,
                         help="the src/ directory of the baseline tree")
        sub.add_argument("--group", action="append",
                         help=f"{' or '.join(named)} or D:MF:KIND[:P_EXTRA]")
        sub.add_argument("--rounds", type=int, default=rounds)
        if target == "cascade":
            sub.add_argument("--run-seeds", type=_seed_range, default=None,
                             help="run seeds A-B, used for every request")
    args = parser.parse_args(argv)
    named, _, items = TARGETS[args.target]
    try:
        requests = {name: named[name]() if name in named else _request(name)
                    for name in args.group or named}
    except ValueError:
        parser.error(f"a group is {', '.join(named)} or D:MF:KIND[:P_EXTRA]")

    trees = (load_tree(args.baseline), vlbb84)
    affinity = os.sched_getaffinity(0)
    try:
        groups = {}
        for name, group in requests.items():
            labels, run = items(trees, name, group, args)
            if not labels:
                raise GroupError(f"group {name}: no item to compare")
            groups[name] = (labels, run)
        os.sched_setaffinity(0, {min(affinity)})
        report = {name: compare(labels, run, args.rounds)
                  for name, (labels, run) in groups.items()}
    except GroupError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    finally:
        os.sched_setaffinity(0, affinity)
        for name in [n for n in sys.modules
                     if n.partition(".")[0] == BASELINE_PACKAGE]:
            del sys.modules[name]
    print(json.dumps({"baseline": str(args.baseline), "target": args.target,
                      "groups": report}))
    return 0 if all(g["identical"] for g in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
