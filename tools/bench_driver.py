"""A long-lived benchmark driver: one workload, one pass per request.

Run from the root of a checkout, with a scratch directory for the passes:

    python3 tools/bench_driver.py report_all 21 .bench_out/driver

It imports the `src` and `bench/workloads.py` of the checkout it runs from,
whichever checkout this file sits in, so one copy of it drives two
checkouts alike. It sets the workload up as `bench/worker.py` does, runs
one untimed warm-up pass whose output gets the workload's full check, and
prints "ready". Then it runs one timed pass for each line it reads on
standard input, each after a full garbage collection and timed around
`run_pass` alone, and prints one JSON line per pass:
{"wall_s": seconds, "cpu_s": seconds, "correct": bool}. cpu_s is the
process's CPU time over the pass, in all its threads; both times are null
for a pass that raised. The pass's output is checked against the warm-up's and removed
outside its timing. The driver exits at the end of its input.

tools/bench_pair.py starts one driver per side and alternates their passes.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path


def one_pass(wl, index: int) -> dict:
    """Run, time and check pass `index` of workload `wl`."""
    from checks import CheckError

    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = wl.run_pass(index)
    except Exception:
        traceback.print_exc()
        return {"wall_s": None, "cpu_s": None, "correct": False}
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    try:
        wl.check(out)
        correct = True
    except CheckError as exc:
        print(f"{wl.name} pass {index}: {exc}", file=sys.stderr)
        correct = False
    finally:
        wl.discard(out)
    return {"wall_s": wall, "cpu_s": cpu, "correct": correct}


def main(argv=None) -> int:
    workload, seed, out = (argv if argv is not None else sys.argv[1:])
    # The replies go out on a copy of standard output; what the program
    # prints goes to /dev/null, as a bench/worker.py run's does.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import WORKLOADS

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](int(seed), out_dir)
    wl.setup()
    wl.prepare()
    warm = one_pass(wl, 0)
    print("ready" if warm["correct"] else "failed", file=replies, flush=True)
    for index, _ in enumerate(sys.stdin, start=1):
        print(json.dumps(one_pass(wl, index)), file=replies, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
