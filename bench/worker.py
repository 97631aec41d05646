"""One benchmark process: set up one workload, run timed passes, check every output.

Started by run.py with numpy's thread pools held at one thread and with
the checkout's `src` on PYTHONPATH. Modes:

* `--probe`: set up, print "ready" and exit; run.py times it from process
  start, which is the workload's set-up time.
* `--trace 0`: an untimed warm-up pass, then timed passes until `--seconds`
  have passed; writes the median pass time and the peak resident set.
* `--trace 1`: the same, but the tracer is installed for the set-up and
  for the last two thirds of the passes, and one more pass measures
  allocation peaks under tracemalloc; writes per-layer metrics, the
  tracing overhead, and the spans to `--trace-file`.

Each pass starts after a full garbage collection, outside its timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import CheckError
from workloads import WORKLOADS

#: Fewest timed passes a run makes, however long its passes take.
MIN_PASSES = 3
#: Share of a traced run's time spent on untraced passes, the base of the overhead.
UNTRACED_SHARE = 1.0 / 3.0


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.index = 0

    def one_pass(self, tracer=None):
        """Run, time and check one pass; its (wall, cpu) seconds, or None if it raised."""
        self.index += 1
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.begin_pass(self.index)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.wl.run_pass(self.index)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        try:
            self.wl.check(out)
        except CheckError as exc:
            if self.correct:
                print(f"{self.wl.name} pass {self.index}: {exc}", file=sys.stderr)
            self.correct = False
        finally:
            self.wl.discard(out)
        return wall, cpu

    def timed(self, seconds: float, tracer=None) -> list[tuple[int, float, float]]:
        """Passes until `seconds` have passed: (index, wall, cpu) of each that ran."""
        done = []
        deadline = time.perf_counter() + seconds
        while len(done) < MIN_PASSES or time.perf_counter() < deadline:
            timing = self.one_pass(tracer)
            if timing is not None:
                done.append((self.index, *timing))
            elif self.failed > self.attempted // 2:
                break  # a program that keeps failing would never reach MIN_PASSES
        return done


def untraced(wl, seconds: float) -> dict:
    wl.setup()
    wl.prepare()
    runner = Runner(wl)
    runner.one_pass()
    passes = runner.timed(seconds)
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wall_s": statistics.median(w for _, w, _ in passes) if passes else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, seconds: float, trace_file: Path) -> dict:
    import rootspiral  # noqa: F401  (the tracer patches loaded modules)

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    wl.setup()
    tracer.uninstall()
    wl.prepare()

    runner = Runner(wl)
    runner.one_pass()
    base = runner.timed(seconds * UNTRACED_SHARE)
    tracer.install()
    try:
        passes = runner.timed(seconds * (1.0 - UNTRACED_SHARE), tracer)
        rows = [tracer.per_layer(i, cpu) for i, _, cpu in passes]
        metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]} if rows else {}
        # Peak allocations are measured on one more pass, so tracemalloc slows no timed pass.
        if metrics and (metrics["spiral.build_entries"] or metrics["spiral.csv_rows"]):
            tracer.measure_alloc = True
            runner.one_pass(tracer)
            tracer.measure_alloc = False
            for name in ("spiral.build_alloc_peak_mb", "spiral.csv_alloc_peak_mb"):
                metrics[name] = tracer.peaks[runner.index].get(name, 0.0)
    finally:
        tracer.uninstall()
    if metrics:
        # The table is built in set-up unless a pass builds its own. Its
        # allocation peak is measured only on a pass (tracemalloc would slow it).
        if not metrics["spiral.build_entries"]:
            setup = tracer.per_layer(0, 0.0)
            for name in ("spiral.build_s", "spiral.build_entries"):
                metrics[name] = setup[name]
        metrics["claims.load_s"] = tracer.first_span("claims.all_claims")
        if base:
            metrics["trace.overhead_s"] = (
                statistics.median(w for _, w, _ in passes) - statistics.median(w for _, w, _ in base)
            )
    tracer.write(trace_file)
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="scratch directory for pass outputs")
    parser.add_argument("--result", type=Path, help="where to write the result JSON")
    parser.add_argument("--trace-file", type=Path, help="where to write the spans")
    parser.add_argument("--probe", action="store_true", help="set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.out)
    if args.probe:
        wl.setup()
        print("ready", flush=True)
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced(wl, args.seconds, args.trace_file)
    else:
        result = untraced(wl, args.seconds)
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
