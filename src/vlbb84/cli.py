"""Command-line driver: link inspection, planning, single runs, sweeps.

Exit codes: 0 success, 2 infeasible request, 1 other error. All command
output is JSON on stdout except `sweep`, which writes a CSV file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .link_model import (LinkParams, SecurityParams, channel_at,
                         limit_distance)
from .planner import (DEFAULT_FRACTION, STRATEGY_KINDS, InfeasibleError,
                      expected_output, fixed_n_strategy, kbr_stats, plan,
                      success_probability)
from .protocol import derive_seed, run_protocol

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

DEFAULT_ITERATIONS_PLANNED = 20
DEFAULT_ITERATIONS_FIXED_N = 50


@dataclass
class SweepSpec:
    """One sweep request: either m_F-driven planning or fixed-N mode."""

    d_values: list[float]
    strategies: list[str]
    iterations: int
    base_seed: int
    output_path: Path
    m_f: Optional[int] = None
    n_pulses: Optional[int] = None
    g: float = DEFAULT_FRACTION
    p_extra: Optional[float] = None     # None = optimize (planned mode only)
    plan_only: bool = False

    def __post_init__(self) -> None:
        if (self.m_f is None) == (self.n_pulses is None):
            raise ValueError("exactly one of m_F and N must be set")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        for kind in self.strategies:
            if kind not in STRATEGY_KINDS:
                raise ValueError(f"unknown strategy {kind!r}")


def _fmt(x) -> str:
    """CSV cell: floats at 9 significant digits, everything else as str."""
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def load_config(path: Optional[str]) -> tuple[LinkParams, SecurityParams]:
    if path is None:
        return LinkParams(), SecurityParams()
    doc = json.loads(Path(path).read_text())
    link = LinkParams.from_json(doc.get("link", {}))
    sec = SecurityParams.from_json(doc.get("security", {}))
    return link, sec


def cmd_link_info(args) -> int:
    link, sec = load_config(args.config)
    d = args.distance if args.distance is not None else link.d
    channel = channel_at(link, d)
    doc = {"d": d, **channel.as_dict(), "d_lim": limit_distance(link, sec)}
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _parse_p_extra(raw: Optional[str]) -> Optional[float]:
    if raw is None or raw == "opt":
        return None
    return float(raw)


def cmd_plan(args) -> int:
    link, sec = load_config(args.config)
    result = plan(args.distance, args.mf, args.strategy, link, sec,
                  g=args.g, p_extra=_parse_p_extra(args.p_extra))
    print(json.dumps(result.as_dict(), indent=2))
    return EXIT_OK


def cmd_run(args) -> int:
    link, sec = load_config(args.config)
    p_extra = _parse_p_extra(args.p_extra)
    if args.n is not None:
        if p_extra is None:
            p_extra = 0.0
        strategy = fixed_n_strategy(channel_at(link, args.distance),
                                    args.strategy, args.n, p_extra, sec, args.g)
        n_pulses = args.n
    else:
        the_plan = plan(args.distance, args.mf, args.strategy, link, sec,
                        g=args.g, p_extra=p_extra)
        strategy, n_pulses, p_extra = (the_plan.strategy, the_plan.N_F,
                                       the_plan.P_extra_opt)
    record = run_protocol(link, sec, args.distance, n_pulses, strategy,
                          p_extra, args.seed)
    print(json.dumps(record.to_json_dict(emit_keys=args.emit_keys,
                                         include_wall_time=args.timings),
                     indent=2))
    return EXIT_OK


def _sim_point(link: LinkParams, sec: SecurityParams, d: float, kind: str,
               spec: SweepSpec, run_index_base: int) -> dict:
    """Simulate one (d, strategy) sweep point and aggregate its runs."""
    row: dict = {"d_km": d, "strategy": kind, "m_F": spec.m_f}
    channel = channel_at(link, d)
    try:
        if spec.m_f is not None:
            the_plan = plan(d, spec.m_f, kind, link, sec, g=spec.g,
                            p_extra=spec.p_extra)
            strategy, n_pulses = the_plan.strategy, the_plan.N_F
            p_extra = the_plan.P_extra_opt
            m_pred = the_plan.expected_m
            p_succ = the_plan.P_success
            kbr_pred = the_plan.expected_kbr
        else:
            n_pulses = spec.n_pulses
            p_extra = spec.p_extra if spec.p_extra is not None else 0.0
            strategy = fixed_n_strategy(channel, kind, n_pulses, p_extra, sec,
                                        spec.g)
            m_pred, std_m = expected_output(channel, n_pulses, strategy,
                                            p_extra, sec)
            p_succ = success_probability(channel, n_pulses, strategy, p_extra,
                                         sec)
            kbr_pred, _ = kbr_stats(n_pulses, p_succ, m_pred, std_m)
    except InfeasibleError as exc:
        row.update({"status": f"infeasible:{exc.stage}"})
        return row

    records = [run_protocol(link, sec, d, n_pulses, strategy, p_extra,
                            derive_seed(spec.base_seed, run_index_base + i))
               for i in range(spec.iterations)]
    q = np.array([r.Q_inferred for r in records])
    m = np.array([r.m for r in records], dtype=float)
    kbr = m / n_pulses      # m is already 0 for aborted runs
    row.update({
        "N": n_pulses,
        "P_extra": p_extra,
        "n_sifted_mean": float(np.mean([r.n_sifted for r in records])),
        "Q_mean": float(q.mean()),
        "Q_std": float(q.std(ddof=1)) if len(q) > 1 else 0.0,
        "abort_rate": float(np.mean([r.aborted for r in records])),
        "m_mean": float(m.mean()),
        "m_std": float(m.std(ddof=1)) if len(m) > 1 else 0.0,
        "m_min": int(m.min()),
        "kbr_mean": float(kbr.mean()),
        "kbr_std": float(kbr.std(ddof=1)) if len(kbr) > 1 else 0.0,
        "t_quantum_mean": float(np.mean([r.t_quantum for r in records])),
        "t_post_mean": float(np.mean([r.t_post for r in records])),
        "p": channel.p,
        "P_flip": channel.P_flip,
        "P_success_pred": p_succ,
        "m_pred": m_pred,
        "kbr_pred": kbr_pred,
        "status": "ok",
    })
    return row


SIM_COLUMNS = ["d_km", "strategy", "m_F", "N", "P_extra", "n_sifted_mean",
               "Q_mean", "Q_std", "abort_rate", "m_mean", "m_std", "m_min",
               "kbr_mean", "kbr_std", "t_quantum_mean", "t_post_mean",
               "p", "P_flip", "P_success_pred", "m_pred", "kbr_pred",
               "status"]

PLAN_COLUMNS = ["d_km", "strategy", "m_F", "N_F", "P_extra_opt", "A0", "l_F",
                "expected_m", "P_success", "kbr_mean", "kbr_std", "status"]


def run_sweep(spec: SweepSpec, link: LinkParams, sec: SecurityParams) -> Path:
    """Execute a sweep and write its CSV; rows in (d, strategy) order."""
    rows = []
    run_index = 0
    for d in spec.d_values:
        for kind in spec.strategies:
            if spec.plan_only:
                rows.append(_plan_point(link, sec, d, kind, spec))
            else:
                rows.append(_sim_point(link, sec, d, kind, spec, run_index))
                run_index += spec.iterations
    columns = PLAN_COLUMNS if spec.plan_only else SIM_COLUMNS
    with open(spec.output_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
    return spec.output_path


def _plan_point(link: LinkParams, sec: SecurityParams, d: float,
                kind: str, spec: SweepSpec) -> dict:
    row: dict = {"d_km": d, "strategy": kind, "m_F": spec.m_f}
    try:
        p = plan(d, spec.m_f, kind, link, sec, g=spec.g, p_extra=spec.p_extra)
    except InfeasibleError as exc:
        row["status"] = f"infeasible:{exc.stage}"
        return row
    row.update({"N_F": p.N_F, "P_extra_opt": p.P_extra_opt, "A0": p.A_0,
                "l_F": p.l_F, "expected_m": p.expected_m,
                "P_success": p.P_success, "kbr_mean": p.expected_kbr,
                "kbr_std": p.kbr_std, "status": "ok"})
    return row


def cmd_sweep(args) -> int:
    link, sec = load_config(args.config)
    d_values = [float(x) for x in args.distances.split(",") if x.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if args.iterations is not None:
        iterations = args.iterations
    else:
        iterations = (DEFAULT_ITERATIONS_PLANNED if args.mf is not None
                      else DEFAULT_ITERATIONS_FIXED_N)
    spec = SweepSpec(d_values=d_values, strategies=strategies,
                     iterations=iterations, base_seed=args.seed,
                     output_path=Path(args.out), m_f=args.mf,
                     n_pulses=args.n, g=args.g,
                     p_extra=_parse_p_extra(args.p_extra),
                     plan_only=args.plan_only)
    path = run_sweep(spec, link, sec)
    print(json.dumps({"written": str(path), "points": len(d_values) * len(strategies)}))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a malformed command line as ValueError, so main() reports it
    as a JSON error with exit 1 instead of usage text with exit 2 (the
    infeasible code). Subparsers are created with the same class."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="vlbb84",
        description="Variable-length BB84: link analysis, sizing, simulation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file with link/security params")

    p = sub.add_parser("link-info", help="Derived channel quantities and d_lim.")
    add_common(p)
    p.add_argument("--distance", type=float, default=None, help="km")
    p.set_defaults(func=cmd_link_info)

    p = sub.add_parser("plan", help="Size the quantum phase for a target m_F.")
    add_common(p)
    p.add_argument("--distance", type=float, required=True, help="km")
    p.add_argument("--mf", type=int, required=True, help="target key bits")
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default="fraction")
    p.add_argument("--g", type=float, default=DEFAULT_FRACTION,
                   help="sample fraction for the fraction strategy")
    p.add_argument("--p-extra", default=None,
                   help="artificial noise, a float or 'opt' (default: opt)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="Execute one protocol run.")
    add_common(p)
    p.add_argument("--distance", type=float, required=True, help="km")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="pulse count (fixed-N mode)")
    group.add_argument("--mf", type=int, help="target key bits (planned mode)")
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default="fraction")
    p.add_argument("--g", type=float, default=DEFAULT_FRACTION)
    p.add_argument("--p-extra", default=None,
                   help="float or 'opt'; fixed-N mode defaults to 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-keys", action="store_true",
                   help="include final_key regardless of size")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock post-processing time")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="Batch runs over distances; writes CSV.")
    add_common(p)
    p.add_argument("--distances", required=True,
                   help="comma-separated list of km values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="pulse count (fixed-N mode)")
    group.add_argument("--mf", type=int, help="target key bits (planned mode)")
    p.add_argument("--strategies", default="fraction",
                   help="comma-separated subset of fraction,count,sqrt")
    p.add_argument("--g", type=float, default=DEFAULT_FRACTION)
    p.add_argument("--p-extra", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=None,
                   help="runs per point (default 20 planned / 50 fixed-N)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plan-only", action="store_true",
                   help="emit planner predictions without simulating")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InfeasibleError as exc:
        print(json.dumps({"error": "infeasible", "stage": exc.stage,
                          "message": str(exc)}), file=sys.stdout)
        return EXIT_INFEASIBLE
    except (ValueError, ArithmeticError, OSError) as exc:
        print(json.dumps({"error": "invalid", "message": str(exc)}),
              file=sys.stdout)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
