"""Run one planned request in a child process and report its cost.

The child plans a count-strategy request for m_F key bits at distance d,
runs it with the given run seed and reports the run's wall time (plan and
run, interpreter start and imports excluded), its peak RSS (ru_maxrss) and
the SHA-256 of the final key packed MSB first. With --max-as-mb the child,
and only the child, limits its own address space with
setrlimit(RLIMIT_AS) before planning, so an oversize request ends in an
answer instead of exhausting the host's memory.

    PYTHONPATH=src python tools/scale_probe.py --mf 10000000 [--distance 30]
        [--seed 1] [--max-as-mb 1500]

Prints one JSON line: d, m_F, seed, wall_s, maxrss_mb, m and key_sha256,
or, for a request that does not run, d, m_F, seed and the error, stage
and message of the infeasible or invalid answer. The child imports
vlbb84 from PYTHONPATH, so the same probe measures any checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

CHILD = """
import hashlib, json, resource, sys, time
import numpy as np
from vlbb84 import LinkParams, SecurityParams
from vlbb84.planner import InfeasibleError, plan
from vlbb84.protocol import run_from_plan

d, m_f, seed, max_as_mb = json.loads(sys.argv[1])
if max_as_mb is not None:
    limit = max_as_mb * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
link, sec = LinkParams(), SecurityParams()
start = time.perf_counter()
try:
    record = run_from_plan(plan(d, m_f, "count", link, sec), link, sec, seed)
except InfeasibleError as exc:
    doc = {"error": "infeasible", "stage": exc.stage, "message": str(exc)}
except (ValueError, ArithmeticError, MemoryError) as exc:
    doc = {"error": "invalid", "message": str(exc)}
else:
    key = record.final_key if record.final_key is not None else []
    doc = {"wall_s": time.perf_counter() - start,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024,
           "m": record.m,
           "key_sha256": hashlib.sha256(np.packbits(
               np.asarray(key, dtype=np.uint8)).tobytes()).hexdigest()}
print(json.dumps(doc))
"""


def probe(d: float, m_f: int, seed: int,
          max_as_mb: int | None = None) -> dict:
    """Run the request in a child process; returns the JSON line's fields."""
    params = json.dumps([d, m_f, seed, max_as_mb])
    out = subprocess.run([sys.executable, "-c", CHILD, params],
                         capture_output=True, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        raise RuntimeError(f"the child exited with {out.returncode}: "
                           f"{out.stderr.strip()}")
    return {"d": d, "m_F": m_f, "seed": seed, **json.loads(out.stdout)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mf", type=int, required=True,
                        help="target key bits m_F")
    parser.add_argument("--distance", type=float, default=30.0, help="km")
    parser.add_argument("--seed", type=int, default=1, help="run seed")
    parser.add_argument("--max-as-mb", type=int, default=None,
                        help="address-space limit of the child, in MiB")
    args = parser.parse_args(argv)
    print(json.dumps(probe(args.distance, args.mf, args.seed,
                           args.max_as_mb)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
