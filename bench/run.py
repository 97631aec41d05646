"""rootspiral benchmark: one workload, one fresh single-threaded process.

Run from the root of a checkout:

    python3 bench/run.py --workload report_all --seed 1 --seconds 32 --trace 0

`--trace 0` prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
`--trace 1` prints the per-layer metrics of a separate traced run. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Scratch output goes to `.bench_out/` and is
removed at the end; the traced run leaves its spans there as
`trace-<workload>-seed<seed>.json`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

#: Set-up probes before and after the worker; one more, first, only warms the
#: file cache. Splitting them spreads them over the run, so that one slow
#: stretch of the shared host does not set their median.
SETUP_PROBES = 3
#: A worker that runs this much longer than --seconds is stopped.
WORKER_GRACE_S = 120.0
PROBE_TIMEOUT_S = 30.0

def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def probe_setup(cmd: list[str], env: dict[str, str]) -> float:
    """Seconds from starting a fresh process until its workload is set up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--probe"], stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)  # a hung probe ends readline with EOF
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        timer.cancel()
        stop(proc)
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def per_layer_units() -> dict[str, str]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rootspiral" / "__init__.py").is_file():
        print(f"error: {root} holds no rootspiral sources (src/rootspiral); run from a checkout's root",
              file=sys.stderr)
        return 2
    work = root / ".bench_out" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(root)
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(work / "out")]
    try:
        metrics: dict[str, dict] = {}
        probes = []
        if not args.trace:
            probe_setup(cmd, env)
            probes += [probe_setup(cmd, env) for _ in range(SETUP_PROBES)]
        result_file = work / "result.json"
        trace_file = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        proc = subprocess.Popen(
            cmd + ["--trace", str(args.trace), "--result", str(result_file), "--trace-file", str(trace_file)],
            stdout=subprocess.DEVNULL, env=env,
        )
        try:
            proc.wait(timeout=args.seconds + WORKER_GRACE_S)
        finally:
            stop(proc)
        if proc.returncode != 0 or not result_file.is_file():
            print(f"error: {args.workload} worker exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text())
        if not args.trace:
            probes += [probe_setup(cmd, env) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = {"value": statistics.median(probes), "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
        layer = result["per_layer"]
        missing = sorted(set(units) - set(layer))
        if missing:
            print(f"error: traced run reported no {missing}", file=sys.stderr)
            return 1
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    else:
        if result["wall_s"] is None:
            print(f"error: no {args.workload} pass completed", file=sys.stderr)
            return 1
        metrics["wall_s"] = {"value": result["wall_s"], "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
