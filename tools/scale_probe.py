"""Run one `vlbb84` command in a child process and report its cost.

    PYTHONPATH=src python tools/scale_probe.py [--max-as-mb N] COMMAND ...

COMMAND and everything after it are a `vlbb84` command line: `run`,
`sweep`, `plan` or `link-info` with that command's own options. A child
interpreter runs it through `vlbb84.cli.main`, importing vlbb84 from
PYTHONPATH, so the same probe measures any checkout. With --max-as-mb
the child, and only the child, limits its own address space with
setrlimit(RLIMIT_AS) once vlbb84 is imported, so an oversize request
ends in an answer instead of exhausting the host's memory.

Prints one JSON line: argv (the command line); exit_code, the child's
exit status; wall_s, from spawn to exit, interpreter start and imports
included; maxrss_mb, the child's own peak RSS (its ru_maxrss, read by
wait4); and answer, the command's JSON output, with any final_key
replaced by key_sha256, the SHA-256 of the key's bytes (null when the
answer holds no key). Exits with status 0 whatever the command answered.
A child that leaves no JSON answer, such as one killed by a signal or
one whose limit is too small for the imports its command makes, gives
instead argv, exit_code, wall_s, maxrss_mb, an error and the last line
of the child's stderr, and the probe exits with status 1.

Linux counts the peak RSS of the process that spawns the child in the
child's ru_maxrss, so the probe itself imports nothing large.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time

CHILD = """
import resource, sys
from vlbb84.cli import main
if sys.argv[1]:    # the limit in bytes, or "" for none
    resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
sys.exit(main(sys.argv[2:]))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-as-mb", type=int, default=None,
                        help="address-space limit of the child, in MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="a vlbb84 command line")
    args = parser.parse_args(argv)
    limit = "" if args.max_as_mb is None else str(args.max_as_mb * 2 ** 20)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [
            sys.executable, "-c", CHILD, limit, *args.command], os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        doc = {"argv": args.command,
               "exit_code": os.waitstatus_to_exitcode(status),
               "wall_s": time.perf_counter() - start,
               "maxrss_mb": usage.ru_maxrss / 1024}
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace")
    try:
        answer = json.loads(stdout)
    except ValueError:
        print(json.dumps({**doc, "error": "the child left no JSON answer",
                          "stderr": stderr.strip().rpartition("\n")[2]}))
        return 1
    if "final_key" in answer:
        key = answer.pop("final_key")
        answer["key_sha256"] = (None if key is None else
                                hashlib.sha256(bytes.fromhex(key)).hexdigest())
    print(json.dumps({**doc, "answer": answer}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
