"""Command-line driver: link inspection, planning, single runs, sweeps.

Exit codes: 0 success, 2 infeasible request, 1 other error. All command
output is JSON on stdout except `sweep`, which writes a CSV file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .link_model import (ChannelDerived, LinkParams, SecurityParams,
                         channel_at, limit_distance)
from .planner import (DEFAULT_FRACTION, STRATEGY_KINDS, InfeasibleError,
                      Strategy, fixed_n_strategy, forecast, plan)
from .protocol import derive_seed, run_protocol

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

DEFAULT_ITERATIONS_PLANNED = 20
DEFAULT_ITERATIONS_FIXED_N = 50


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
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - {"link", "security"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    for name, section in doc.items():
        if not isinstance(section, dict):
            raise ValueError(f"config section {name} must be a JSON object")
    link = LinkParams.from_json(doc.get("link", {}))
    sec = SecurityParams.from_json(doc.get("security", {}))
    return link, sec


def cmd_link_info(args) -> int:
    link, sec = load_config(args.config)
    channel = channel_at(link, args.distance)
    doc = {"d": args.distance, **channel.as_dict(),
           "d_lim": limit_distance(link, sec)}
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


def _size(link: LinkParams, sec: SecurityParams, d: float,
          channel: ChannelDerived, kind: str, args,
          p_extra: Optional[float]) -> tuple[int, Strategy, float]:
    """Pulse count, strategy and noise of one request at d, whose link is
    channel: plan() sizes it with --mf, otherwise it runs --n pulses.

    Without a target there is nothing to optimize the noise for, so at a
    fixed N an unset p_extra means 0.
    """
    if args.mf is not None:
        the_plan = plan(d, args.mf, kind, link, sec, g=args.g, p_extra=p_extra)
        return the_plan.N_F, the_plan.strategy, the_plan.P_extra_opt
    if p_extra is None:
        p_extra = 0.0
    strategy = fixed_n_strategy(channel, kind, args.n, p_extra, sec, args.g)
    return args.n, strategy, p_extra


def cmd_run(args) -> int:
    link, sec = load_config(args.config)
    d = args.distance
    sizing = _size(link, sec, d, channel_at(link, d), args.strategy, args,
                   _parse_p_extra(args.p_extra))
    record = run_protocol(link, sec, d, *sizing, args.seed)
    print(json.dumps(record.to_json_dict(emit_keys=args.emit_keys), indent=2))
    return EXIT_OK


def _sim_point(link: LinkParams, sec: SecurityParams, d: float,
               channel: ChannelDerived, kind: str, args,
               p_extra: Optional[float], seeds: list[int]) -> dict:
    """Simulate one (d, strategy) sweep point, one run per seed, and
    aggregate its runs with the planner's forecast for them; channel is
    the link at d."""
    n_pulses, strategy, p_extra = _size(link, sec, d, channel, kind, args,
                                        p_extra)
    m_pred, _, p_succ, kbr_pred, _ = forecast(channel, n_pulses, strategy,
                                              p_extra, sec)

    records = [run_protocol(link, sec, d, n_pulses, strategy, p_extra, seed)
               for seed in seeds]
    q = np.array([r.Q_inferred for r in records])
    m = np.array([r.m for r in records], dtype=float)
    kbr = m / n_pulses      # m is already 0 for aborted runs
    return {
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
        "p": channel.p,
        "P_flip": channel.P_flip,
        "P_success_pred": p_succ,
        "m_pred": m_pred,
        "kbr_pred": kbr_pred,
        "status": "ok",
    }


def _plan_point(link: LinkParams, sec: SecurityParams, d: float,
                kind: str, args, p_extra: Optional[float]) -> dict:
    p = plan(d, args.mf, kind, link, sec, g=args.g, p_extra=p_extra)
    return {"N_F": p.N_F, "P_extra_opt": p.P_extra_opt, "A0": p.A_0,
            "l_F": p.l_F, "expected_m": p.expected_m,
            "P_success": p.P_success, "kbr_mean": p.expected_kbr,
            "kbr_std": p.kbr_std, "status": "ok"}


SIM_COLUMNS = ["d_km", "strategy", "m_F", "N", "P_extra", "n_sifted_mean",
               "Q_mean", "Q_std", "abort_rate", "m_mean", "m_std", "m_min",
               "kbr_mean", "kbr_std", "t_quantum_mean", "p", "P_flip",
               "P_success_pred", "m_pred", "kbr_pred", "status"]

PLAN_COLUMNS = ["d_km", "strategy", "m_F", "N_F", "P_extra_opt", "A0", "l_F",
                "expected_m", "P_success", "kbr_mean", "kbr_std", "status"]


def cmd_sweep(args) -> int:
    """Plan or simulate every (distance, strategy) point, in that order, and
    write one CSV row per point; an infeasible point is a row, not an error.

    Run seeds come from --seed and a run index that advances by the
    iteration count at every simulated point, infeasible ones included.
    """
    link, sec = load_config(args.config)
    d_values = [float(x) for x in args.distances.split(",") if x.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    p_extra = _parse_p_extra(args.p_extra)
    if args.iterations is not None:
        iterations = args.iterations
    else:
        iterations = (DEFAULT_ITERATIONS_PLANNED if args.mf is not None
                      else DEFAULT_ITERATIONS_FIXED_N)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    for kind in strategies:
        if kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {kind!r}")
    if args.plan_only and args.mf is None:
        raise ValueError("--plan-only needs --mf")
    # Rejects a bad distance before the first point is simulated.
    channels = [channel_at(link, d) for d in d_values]

    rows = []
    for d, channel in zip(d_values, channels):
        for kind in strategies:
            row: dict = {"d_km": d, "strategy": kind, "m_F": args.mf}
            try:
                if args.plan_only:
                    row.update(_plan_point(link, sec, d, kind, args, p_extra))
                else:
                    first = len(rows) * iterations
                    seeds = [derive_seed(args.seed, first + i)
                             for i in range(iterations)]
                    row.update(_sim_point(link, sec, d, channel, kind, args,
                                          p_extra, seeds))
            except InfeasibleError as exc:
                row["status"] = f"infeasible:{exc.stage}"
            rows.append(row)
    columns = PLAN_COLUMNS if args.plan_only else SIM_COLUMNS
    path = Path(args.out)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
    print(json.dumps({"written": str(path), "points": len(rows)}))
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
    p.add_argument("--distance", type=float, default=0.0, help="km")
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
    p.add_argument("--p-extra", default=None,
                   help="float or 'opt'; fixed-N mode defaults to 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=None,
                   help="runs per point (default 20 planned / 50 fixed-N)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plan-only", action="store_true",
                   help="emit planner predictions without simulating "
                        "(needs --mf)")
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
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(json.dumps({"error": "invalid", "message": str(exc)}),
              file=sys.stdout)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
