"""vlbb84 benchmark: planned protocol runs and plan-only sizing, in one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload short_keys --seed 1 --seconds 20 --trace 0

Each op is one closed-loop call with a single caller: `plan()` then
`run_from_plan()` on the simulation workloads (what `vlbb84 run --mf` does
after start-up), one `plan()` on `plan_grid`. The run measures whole
cycles over the workload's requests until `--seconds` have passed, checks
every output after its op's timer stops, and prints one JSON object as the
last line of stdout. Op times are in reference seconds (see SpeedProbe).
`--trace 0` reports the end-to-end metrics; `--trace 1` wraps the layers
from outside (see spans.py) on two of every three cycles and reports the
per-layer metrics, writing the spans to bench/out/.

The program is imported from src/ of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_SPAWNS = 9          # timed `import vlbb84.cli` spawns
SETTLE_PROBES = 7         # probe samples taken, and medianed, around each spawn
# Reference speed: a machine on which the speed probe takes 4 ms.
PROBE_REF_S = 4.0e-3
ORACLE_EVERY = 10         # dense Toeplitz oracle on every 10th short_keys op
ABORT_CAUSES = (None, "no-signal", "qber-threshold", "key-too-short")
KINDS = ("fraction", "count", "sqrt")
MODULES = ("planner", "protocol", "reconcile", "extract", "link_model")
# A traced run rotates over these cycle modes; see spans.py.
PLAIN, SPANS, COUNTS = "plain", "spans", "counts"
TRACE_MODES = (SPANS, PLAIN, COUNTS)


@dataclass(frozen=True)
class Request:
    d: float
    m_f: int
    kind: str


@dataclass(frozen=True)
class Workload:
    requests: tuple
    simulate: bool
    oracle: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "short_keys": Workload(
        tuple(Request(d, 1000, k) for d in (5.0, 30.0, 65.0) for k in KINDS),
        simulate=True, oracle=True),
    "long_keys": Workload(
        tuple(Request(d, 100_000, "count") for d in (5.0, 30.0)),
        simulate=True),
    # 2 .. 78 km: the last distance lies just past d_lim = 77.9 km.
    "plan_grid": Workload(
        tuple(Request(float(d), m, k) for d in range(2, 79, 4)
              for m in (100, 1000, 10_000, 100_000, 1_000_000) for k in KINDS),
        simulate=False),
}


class ProgramMissing(RuntimeError):
    pass


def load_program() -> dict:
    """Import vlbb84 from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "vlbb84" / "__init__.py").is_file():
        raise ProgramMissing(f"no vlbb84 package under {src}")
    sys.path.insert(0, str(src))
    vlbb84 = importlib.import_module("vlbb84")
    if Path(vlbb84.__file__).resolve().parent != (src / "vlbb84").resolve():
        raise ProgramMissing(f"imported vlbb84 from {vlbb84.__file__}, not {src}")
    return {name: importlib.import_module(f"vlbb84.{name}") for name in MODULES}


class SpeedProbe:
    """Fixed interpreter and NumPy work that never touches vlbb84, timed
    between ops.

    On a shared machine the CPU's speed changes by up to 1.8x for seconds
    at a time. Every time the benchmark reports is therefore in reference
    seconds: wall seconds times PROBE_REF_S over the mean probe time just
    before and just after the timed work. Raw wall rates are printed beside
    the result. The host's slow state slows interpreter loops by about
    1.6x and NumPy array passes by less, and the ops mix both, so the
    probe does each for about half its time. Over four minutes of
    alternating ops and spawns, scaling by this mixed probe left a
    per-item spread of 8.5-9.5% on short_keys, long_keys and setup,
    where a pure interpreter probe left 10-15% and raw wall time 19-23%.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.bits = rng.integers(0, 2, 80_000, dtype=np.uint8)
        self.values = rng.random(32_000)
        self.samples: list[float] = []
        for _ in range(5):
            self.sample()

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(8000):
            acc += math.sqrt(_probe_step(i)) + math.log1p(i)
        np.cumsum(self.bits)
        np.flatnonzero(self.bits)
        np.sort(self.values)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def settled(self) -> float:
        """Median of SETTLE_PROBES fresh samples, for work that runs
        seconds at a time."""
        return statistics.median(self.sample() for _ in range(SETTLE_PROBES))


def _probe_step(x: int) -> float:
    return x * 0.5 + 1.0


def to_reference(wall_s: float, before: float, after: float) -> float:
    return wall_s * PROBE_REF_S / (0.5 * (before + after))


def measure_setup(spawns: int, probe: SpeedProbe) -> float:
    """Median time, in reference seconds, of a fresh interpreter running
    `import vlbb84.cli`.

    Each spawn is scaled by the settled probe times just before and just
    after it. The host's slow and fast states last tens of seconds and
    change an import by up to 1.8x; within one state spawns agree to a
    few percent, and the probe follows the state. The median of the
    scaled spawns drops the one that compiles bytecode in a fresh checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import vlbb84.cli"]
    times = []
    before = probe.settled()
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = probe.settled()
        times.append(to_reference(wall, before, after))
        before = after
    return statistics.median(times)


def dense_toeplitz(x: np.ndarray, seed_bits: np.ndarray, m: int) -> np.ndarray:
    """GF(2) product with the materialized m-by-l Toeplitz matrix
    T[i, j] = seed[m-1-i+j] (the criterion-8 oracle)."""
    windows = np.lib.stride_tricks.sliding_window_view(seed_bits, len(x))
    return (windows[m - 1::-1] @ x) % 2


@dataclass
class OpResult:
    request: Request
    mode: str
    latency: float = 0.0        # wall seconds
    ref_s: float = 0.0          # reference seconds, see SpeedProbe
    plan: object = None
    record: object = None
    infeasible: bool = False
    error: str = ""
    leak_bound: float = 0.0     # f_max * l * h(p_hat) of a reconciled run


@dataclass
class Tally:
    results: list = field(default_factory=list)     # OpResult per checked op
    attempted: int = 0
    failed: int = 0
    oracle_checks: int = 0
    errors: list = field(default_factory=list)


class Runner:
    """One workload run against the loaded program."""

    def __init__(self, mods: dict, workload: Workload, seed: int,
                 probe: SpeedProbe, tracer=None):
        self.mods = mods
        self.workload = workload
        self.tracer = tracer
        self.link = mods["link_model"].LinkParams()
        self.sec = mods["link_model"].SecurityParams()
        self.d_lim = mods["link_model"].limit_distance(self.link, self.sec)
        order_ss, seed_ss = np.random.SeedSequence(seed).spawn(2)
        self.order_rng = np.random.default_rng(order_ss)
        self.seed_rng = np.random.default_rng(seed_ss)
        self.probe = probe
        self.tally = Tally()

    def op(self, req: Request, run_seed: int, mode: str) -> OpResult:
        planner, protocol = self.mods["planner"], self.mods["protocol"]
        tr = self.tracer if mode == SPANS else None
        res = OpResult(req, mode)
        t0 = time.perf_counter()
        if mode != PLAIN:
            self.tracer.op = self.tally.attempted
        if tr:
            op_span = tr.open("op", "bench")
        try:
            args = (req.d, req.m_f, req.kind, self.link, self.sec)
            res.plan = (tr.call("plan", "planner", planner.plan, *args) if tr
                        else planner.plan(*args))
            if self.workload.simulate:
                args = (res.plan, self.link, self.sec, run_seed)
                res.record = (tr.call("run", "protocol", protocol.run_from_plan, *args)
                              if tr else protocol.run_from_plan(*args))
        except planner.InfeasibleError:
            res.infeasible = True
        except Exception:   # any other exception is a failed op, not a crash
            res.error = traceback.format_exc()
        finally:
            if tr:
                tr.close(op_span)
            res.latency = time.perf_counter() - t0
            if mode != PLAIN:
                self.tracer.op = None
        return res

    def check(self, res: OpResult, run_seed: int, oracle: bool) -> str:
        """Checks that hold for any random stream; '' when all pass."""
        if res.error:
            return res.error
        req, p = res.request, res.plan
        if res.infeasible:
            return "" if req.d >= self.d_lim else f"{req}: infeasible below d_lim"
        if req.d >= self.d_lim:
            return f"{req}: planned beyond d_lim"
        if not (p.N_F >= 1 and 0.0 <= p.P_success <= 1.0 and p.expected_m >= req.m_f):
            return f"{req}: bad plan N_F={p.N_F} P_success={p.P_success} E[m]={p.expected_m}"
        if not self.workload.simulate:
            return ""
        rec = res.record
        key_len = 0 if rec.final_key is None else len(rec.final_key)
        if key_len != rec.m:
            return f"{req}: len(final_key)={key_len} != m={rec.m}"
        if rec.N != p.N_F or rec.n_sifted != rec.sample_size + rec.l:
            return f"{req}: N={rec.N} n_sifted={rec.n_sifted} sample={rec.sample_size} l={rec.l}"
        if rec.abort_cause not in ABORT_CAUSES or rec.aborted != (rec.abort_cause is not None):
            return f"{req}: aborted={rec.aborted} cause={rec.abort_cause!r}"
        if rec.aborted:
            return "" if rec.m == 0 else f"{req}: aborted with m={rec.m}"
        lm = self.mods["link_model"]
        p_hat = lm.effective_flip(lm.channel_at(self.link, req.d).P_flip,
                                  p.P_extra_opt)
        res.leak_bound = self.mods["reconcile"].leakage_upper_bound(rec.l, p_hat, self.sec)
        m_expected = self.mods["extract"].secure_length(rec.l, p_hat, self.sec)[1]
        if rec.m != m_expected:
            return f"{req}: m={rec.m} != secure_length={m_expected}"
        if oracle and rec.m > 0:
            return self.toeplitz_oracle(res, run_seed)
        return ""

    def toeplitz_oracle(self, res: OpResult, run_seed: int) -> str:
        """Re-run the op to capture the extractor's input and seed, and
        compare the dense GF(2) product with the timed op's key."""
        extract = self.mods["extract"]
        fn = getattr(extract, "toeplitz_extract", None)
        if fn is None:
            return ""
        seen = []

        def capture(x, seed_bits, m):
            seen.append((np.asarray(x, dtype=np.uint8),
                         np.asarray(seed_bits, dtype=np.uint8), m))
            return fn(x, seed_bits, m)

        extract.toeplitz_extract = capture
        try:
            self.mods["protocol"].run_from_plan(res.plan, self.link, self.sec, run_seed)
        finally:
            extract.toeplitz_extract = fn
        if len(seen) != 1:
            return f"{res.request}: extractor called {len(seen)} times on re-run"
        x, seed_bits, m = seen[0]
        self.tally.oracle_checks += 1
        if not np.array_equal(dense_toeplitz(x, seed_bits, m), res.record.final_key):
            return f"{res.request}: final key differs from the dense Toeplitz product"
        return ""

    def run(self, seconds: float) -> Tally:
        reqs = self.workload.requests
        # Warm-up op: lazy imports and first-call costs, not measured.
        self.op(reqs[0], 0, PLAIN)
        self.probe.sample()
        # Traced runs rotate spans, plain and counts cycles, so all three
        # see the same request mix; spans vs plain gives the overhead.
        modes = TRACE_MODES if self.tracer else (PLAIN,)
        cycle = 0
        t_end = time.perf_counter() + seconds
        while cycle < len(modes) or time.perf_counter() < t_end:
            mode = modes[cycle % len(modes)]
            if mode != PLAIN:
                self.tracer.install(mode)
            try:
                for j in self.order_rng.permutation(len(reqs)):
                    self.one(reqs[j], mode)
            finally:
                if mode != PLAIN:
                    self.tracer.uninstall()
            cycle += 1
        return self.tally

    def one(self, req: Request, mode: str) -> None:
        t = self.tally
        run_seed = int(self.seed_rng.integers(0, 2**63))
        oracle = self.workload.oracle and t.attempted % ORACLE_EVERY == 0
        before = self.probe.samples[-1]
        res = self.op(req, run_seed, mode)
        res.ref_s = to_reference(res.latency, before, self.probe.sample())
        t.attempted += 1
        problem = self.check(res, run_seed, oracle)
        if problem:
            t.failed += 1
            if len(t.errors) < 5:
                t.errors.append(problem)
        if res.record is not None:
            # Keep the counts, not the key, so memory does not grow with ops.
            res.record = dataclasses.replace(res.record, final_key=None)
        t.results.append(res)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(t: Tally, setup_s: float) -> dict:
    """Metrics a user of vlbb84 would see, times in reference seconds.

    op_latency_p90_s is over every op. op_latency_p50_s is over the
    workload's requests, each timed by the median of its ops: long_keys
    mixes two requests whose times form two clusters, and a median over
    ops would fall in the gap between them. Rates divide by the summed op
    time. On plan_grid, where nothing is simulated, pulses_per_s counts
    one per feasible plan and key_bits_per_s the m_F it sizes, so that
    neither rises when a plan sizes more pulses.
    """
    by_request = defaultdict(list)
    pulses = key_bits = 0
    for r in t.results:
        by_request[r.request].append(r.ref_s)
        if r.record is not None:
            pulses += r.record.N
            key_bits += r.record.m
        elif r.plan is not None and not r.infeasible:
            pulses += 1
            key_bits += r.request.m_f
    typical = [statistics.median(v) for v in by_request.values()]
    busy = sum(r.ref_s for r in t.results)
    done = t.attempted - t.failed
    return {
        "setup_s": metric(setup_s, "s"),
        "op_latency_p50_s": metric(np.percentile(typical, 50), "s"),
        "op_latency_p90_s": metric(np.percentile([r.ref_s for r in t.results], 90), "s"),
        "ops_per_s": metric(done / busy, "1/s"),
        "pulses_per_s": metric(pulses / busy, "1/s"),
        "key_bits_per_s": metric(key_bits / busy, "bit/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": metric(done / t.attempted, "ratio"),
    }


def per_layer(t: Tally, tracer: Tracer) -> dict:
    """Per-layer metrics. Times come from the spans cycles and are
    reference seconds per op; helper calls, detections and allocation from
    the counts cycles; bit counts and outcome ratios from the records of
    every op."""
    def ops(mode):
        return [r for r in t.results if r.mode == mode]

    def busy(mode):
        return sum(r.ref_s for r in ops(mode))

    def ratio(a, b):
        return a / b if b else 0.0

    s = tracer.summary({i: r.ref_s / r.latency for i, r in enumerate(t.results)})
    incl, self_s, count = s["incl"], s["self"], s["count"]
    n = len(ops(SPANS))
    op_s = busy(SPANS)
    counted = ops(COUNTS)
    runs = [r for r in t.results if r.record is not None]
    reconciled = [r for r in runs if not r.record.aborted]
    l_sum = sum(r.record.l for r in reconciled)
    leaked = sum(r.record.n_exp for r in reconciled)
    span_pulses = sum(r.record.N for r in ops(SPANS) if r.record is not None)
    traced_rate = ratio(n, op_s)
    plain_rate = ratio(len(ops(PLAIN)), busy(PLAIN))

    def per_op(name, totals=self_s):
        return (ratio(totals[name], n), "s")

    def share(layer):
        return (ratio(s["layer_self"][layer], incl["op"]), "ratio")

    m = {
        "planner.plan_s": per_op("plan", incl),
        "planner.optimal_extra_noise_s": per_op("planner.optimal_extra_noise", incl),
        "planner.forecast_s": (ratio(s["forecast_s"], n), "s"),
        "planner.channel_at_calls":
            (ratio(tracer.calls["planner.channel_at"],
                   sum(1 for r in counted if not r.error)), "count"),
        "planner.share": share("planner"),
        "protocol.quantum_phase_s": per_op("protocol.quantum_phase"),
        "protocol.quantum_phase.calls": (ratio(count["protocol.quantum_phase"], n), "count"),
        "protocol.quantum_phase.ns_per_pulse":
            (ratio(incl["protocol.quantum_phase"] * 1e9, span_pulses), "ns"),
        "protocol.quantum_phase.detected_ratio":
            (ratio(tracer.detected, tracer.pulses), "ratio"),
        "protocol.quantum_phase.peak_alloc_mb": (tracer.peak_alloc_bytes / 2**20, "MB"),
        "protocol.sift_s": per_op("protocol.sift"),
        "protocol.sift.sifted_ratio":
            (ratio(sum(r.record.n_sifted for r in counted if r.record is not None),
                   tracer.detected), "ratio"),
        "protocol.randomize_s": per_op("protocol.controlled_randomization"),
        "protocol.estimate_s": per_op("protocol.estimate_parameters"),
        "protocol.estimate.abort_ratio":
            (ratio(sum(r.record.abort_cause in ("no-signal", "qber-threshold")
                       for r in runs), len(runs)), "ratio"),
        "protocol.target_met_ratio":
            (ratio(sum(r.record.m >= r.request.m_f for r in runs), len(runs)), "ratio"),
        "protocol.run_self_s": per_op("run"),
        "protocol.share": share("protocol"),
        "reconcile.cascade_s": per_op("protocol.cascade"),
        "reconcile.cascade.calls": (ratio(count["protocol.cascade"], n), "count"),
        "reconcile.cascade.input_bits": (ratio(l_sum, len(reconciled)), "bit"),
        "reconcile.cascade.leaked_bits": (ratio(leaked, len(reconciled)), "bit"),
        "reconcile.cascade.leak_to_bound":
            (ratio(leaked, sum(r.leak_bound for r in reconciled)), "ratio"),
        "reconcile.cascade.verified_ratio":
            (ratio(sum(r.record.verified for r in reconciled), len(reconciled)), "ratio"),
        "reconcile.share": share("reconcile"),
        "extract.extract_key_s": per_op("protocol.extract_key"),
        "extract.toeplitz_s": per_op("extract.toeplitz_extract"),
        "extract.calls": (ratio(count["protocol.extract_key"], n), "count"),
        "extract.input_bits": (ratio(l_sum, len(reconciled)), "bit"),
        "extract.output_bits":
            (ratio(sum(r.record.m for r in reconciled), len(reconciled)), "bit"),
        "extract.share": share("extract"),
        "link_model.calls_per_op": (ratio(tracer.calls["link_model"], len(counted)), "count"),
        "numerics.calls_per_op": (ratio(tracer.calls["numerics"], len(counted)), "count"),
        "bench.op_self_share": share("bench"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (plain_rate, "1/s"),
        "trace.overhead_ratio": (1.0 - ratio(traced_rate, plain_rate), "ratio"),
        "trace.missing": (len(tracer.missing), "count"),
    }
    return {name: metric(v, unit) for name, (v, unit) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        mods = load_program()
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    # One CPU for the whole run, so the speed probe samples the CPU that
    # runs the ops.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    setup_s = 0.0 if args.trace else measure_setup(SETUP_SPAWNS, probe)
    tracer = Tracer(mods) if args.trace else None
    runner = Runner(mods, WORKLOADS[args.workload], args.seed, probe, tracer)
    tally = runner.run(args.seconds)
    if tracer:
        metrics = per_layer(tally, tracer)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        if tracer.missing:
            print(f"benchmark: not traced, missing: {', '.join(sorted(tracer.missing))}",
                  file=sys.stderr)
    else:
        metrics = end_to_end(tally, setup_s)
    for err in tally.errors:
        print(f"benchmark: failed op: {err}", file=sys.stderr)
    wall = [r.latency for r in tally.results]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "oracle_checks": tally.oracle_checks,
                      "probe_median_s": statistics.median(probe.samples),
                      "wall_ops_per_s": len(wall) / sum(wall)}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
