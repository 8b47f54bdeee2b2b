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


def cmd_link_info(args, link: LinkParams, sec: SecurityParams) -> int:
    channel = channel_at(link, args.distance)
    doc = {"d": args.distance, **channel.as_dict(),
           "d_lim": limit_distance(link, sec)}
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_plan(args, link: LinkParams, sec: SecurityParams) -> int:
    result = plan(args.distance, args.mf, args.strategy, link, sec,
                  g=args.g, p_extra=args.p_extra)
    print(json.dumps(result.as_dict(), indent=2))
    return EXIT_OK


def _size(link: LinkParams, sec: SecurityParams, d: float,
          channel: ChannelDerived, kind: str,
          args) -> tuple[int, Strategy, float]:
    """Pulse count, strategy and noise of one request at d, whose link is
    channel: plan() sizes it with --mf, otherwise it runs --n pulses.

    Without a target there is nothing to optimize the noise for, so at a
    fixed N an unset --p-extra means 0.
    """
    p_extra = args.p_extra
    if args.mf is not None:
        the_plan = plan(d, args.mf, kind, link, sec, g=args.g, p_extra=p_extra)
        return the_plan.N_F, the_plan.strategy, the_plan.P_extra_opt
    if p_extra is None:
        p_extra = 0.0
    strategy = fixed_n_strategy(channel, kind, args.n, p_extra, sec, args.g)
    return args.n, strategy, p_extra


def cmd_run(args, link: LinkParams, sec: SecurityParams) -> int:
    d = args.distance
    sizing = _size(link, sec, d, channel_at(link, d), args.strategy, args)
    record = run_protocol(link, sec, d, *sizing, args.seed)
    print(json.dumps(record.to_json_dict(emit_keys=args.emit_keys), indent=2))
    return EXIT_OK


def _sim_point(link: LinkParams, sec: SecurityParams, d: float,
               channel: ChannelDerived, kind: str, args,
               seeds: list[int]) -> dict:
    """Simulate one (d, strategy) sweep point, one run per seed, and
    aggregate its runs with the planner's forecast for them; channel is
    the link at d."""
    n_pulses, strategy, p_extra = _size(link, sec, d, channel, kind, args)
    m_pred, _, p_succ, kbr_pred, _ = forecast(channel, n_pulses, strategy,
                                              p_extra, sec)

    # Each run keeps only the fields its row reads, so the point's memory
    # does not grow with its runs' keys.
    runs = [(r.Q_inferred, r.m, r.n_sifted, r.aborted, r.t_quantum)
            for r in (run_protocol(link, sec, d, n_pulses, strategy, p_extra,
                                   seed) for seed in seeds)]
    q, m, n_sifted, aborted, t_quantum = (np.array(x, dtype=float)
                                          for x in zip(*runs))
    row = {
        "N": n_pulses,
        "P_extra": p_extra,
        "n_sifted_mean": float(np.mean(n_sifted)),
        "abort_rate": float(np.mean(aborted)),
        "m_min": int(m.min()),
        "t_quantum_mean": float(np.mean(t_quantum)),
        "p": channel.p,
        "P_flip": channel.P_flip,
        "P_success_pred": p_succ,
        "m_pred": m_pred,
        "kbr_pred": kbr_pred,
        "status": "ok",
    }
    # m is already 0 for aborted runs; a single run has no spread.
    for name, values in (("Q", q), ("m", m), ("kbr", m / n_pulses)):
        row[f"{name}_mean"] = float(values.mean())
        row[f"{name}_std"] = (float(values.std(ddof=1)) if len(values) > 1
                              else 0.0)
    return row


def _plan_point(link: LinkParams, sec: SecurityParams, d: float,
                kind: str, args) -> dict:
    p = plan(d, args.mf, kind, link, sec, g=args.g, p_extra=args.p_extra)
    return {"N_F": p.N_F, "P_extra_opt": p.P_extra_opt, "A0": p.A_0,
            "l_F": p.l_F, "expected_m": p.expected_m,
            "P_success": p.P_success, "kbr_mean": p.expected_KBR,
            "kbr_std": p.KBR_std, "status": "ok"}


SIM_COLUMNS = ["d_km", "strategy", "m_F", "N", "P_extra", "n_sifted_mean",
               "Q_mean", "Q_std", "abort_rate", "m_mean", "m_std", "m_min",
               "kbr_mean", "kbr_std", "t_quantum_mean", "p", "P_flip",
               "P_success_pred", "m_pred", "kbr_pred", "status"]

PLAN_COLUMNS = ["d_km", "strategy", "m_F", "N_F", "P_extra_opt", "A0", "l_F",
                "expected_m", "P_success", "kbr_mean", "kbr_std", "status"]


def cmd_sweep(args, link: LinkParams, sec: SecurityParams) -> int:
    """Plan or simulate every (distance, strategy) point, in that order, and
    write one CSV row per point; an infeasible point is a row, not an error.

    Run seeds come from --seed and a run index that advances by the
    iteration count at every simulated point, infeasible ones included.
    """
    d_values = [float(x) for x in args.distances.split(",") if x.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    iterations = args.iterations
    if iterations is None:
        iterations = (DEFAULT_ITERATIONS_PLANNED if args.mf is not None
                      else DEFAULT_ITERATIONS_FIXED_N)
    if iterations < 1 and not args.plan_only:    # a plan-only sweep runs none
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
                    row.update(_plan_point(link, sec, d, kind, args))
                else:
                    first = len(rows) * iterations
                    seeds = [derive_seed(args.seed, first + i)
                             for i in range(iterations)]
                    row.update(_sim_point(link, sec, d, channel, kind, args,
                                          seeds))
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


def float_or_opt(text: str) -> Optional[float]:
    """--p-extra: a noise level, or None for 'opt' (optimize it)."""
    return None if text == "opt" else float(text)


def _add_request(p, simulates: bool) -> None:
    """The sizing options of one request: a target --mf (run and sweep
    simulate, so they take a pulse count --n in its place and a --seed),
    the sample fraction --g and the artificial noise --p-extra."""
    if simulates:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=int, help="pulse count (fixed-N mode)")
        group.add_argument("--mf", type=int,
                           help="target key bits (planned mode)")
        p.add_argument("--seed", type=int, default=0)
    else:
        p.add_argument("--mf", type=int, required=True, help="target key bits")
    p.add_argument("--g", type=float, default=DEFAULT_FRACTION,
                   help="sample fraction for the fraction strategy")
    p.add_argument("--p-extra", type=float_or_opt, default=None,
                   help="artificial noise, a float or 'opt' (default: opt; "
                        "fixed-N mode: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="vlbb84",
        description="Variable-length BB84: link analysis, sizing, simulation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name: str, func, help: str):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with link/security params")
        p.set_defaults(func=func)
        return p

    p = command("link-info", cmd_link_info,
                "Derived channel quantities and d_lim.")
    p.add_argument("--distance", type=float, default=0.0, help="km")

    p = command("plan", cmd_plan, "Size the quantum phase for a target m_F.")
    p.add_argument("--distance", type=float, required=True, help="km")
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default="fraction")
    _add_request(p, simulates=False)

    p = command("run", cmd_run, "Execute one protocol run.")
    p.add_argument("--distance", type=float, required=True, help="km")
    p.add_argument("--strategy", choices=STRATEGY_KINDS, default="fraction")
    _add_request(p, simulates=True)
    p.add_argument("--emit-keys", action="store_true",
                   help="include final_key regardless of size")

    p = command("sweep", cmd_sweep, "Batch runs over distances; writes CSV.")
    p.add_argument("--distances", required=True,
                   help="comma-separated list of km values")
    p.add_argument("--strategies", default="fraction",
                   help="comma-separated subset of fraction,count,sqrt")
    _add_request(p, simulates=True)
    p.add_argument("--iterations", type=int, default=None,
                   help="runs per point (default 20 planned / 50 fixed-N)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plan-only", action="store_true",
                   help="emit planner predictions without simulating "
                        "(needs --mf)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, *load_config(args.config))
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
