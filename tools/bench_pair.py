"""Benchmark a base commit against the working tree, in alternating pairs.

Run from the root of a checkout:

    python3 tools/bench_pair.py --base 73ac3d4 --seed 21 --out BENCH_9.json

The run length and the workloads come from `BENCHMARK.json`, and every
comparison runs `PAIRS` pairs, so both sides run as the benchmark sets
them. The base commit is exported with `git archive` into a temporary
directory, and the working tree (its tracked files and its untracked,
non-ignored files, as they are on disk) is copied beside it, so both
sides run from a fresh directory of the same kind. Each side runs its
own, unchanged `bench/run.py` from its own root, so both sides measure
with the benchmark code of their checkout. Pair i runs every workload on
both sides, the base first when i is even and the working tree first
when it is odd. A side whose
`bench/run.py` exits non-zero is recorded with its exit code and stderr,
and the pairs go on.

A run's time can depend on the name of the directory it runs from, so
the two directories (`DIRS`) swap names between pairs as `placement`
sets out: each side runs from each name in half the pairs, and each run
record names its directory.

Each run record also holds the minor page faults (`minor_faults`) and the
peak resident set (`max_rss_mb`) of the run's process tree: `bench/run.py`,
its set-up probes and its worker. Both come from the resource usage that
os.wait4 returns as it reaps `bench/run.py`, which covers every process
that the run itself reaped, so each record reads its own run's peak.

The output JSON holds every result line and, per workload and end-to-end
metric, each side's median and quartiles and the number of pairs in which
the working tree was better (ties count for neither side).

Before the pairs, an in-process block times single passes inside two
long-lived drivers (`tools/bench_driver.py`), one per side, each started
from its side's root so that it imports that side's `src` and
`bench/workloads.py`. Per workload, it alternates `IN_PROCESS_PASSES`
passes per side between the two drivers, the base first in even passes,
after one untimed warm-up pass per side that gets the workload's full
check. Its summary, under `in_process`, holds each side's median and
quartiles of `wall_s`, whether every pass of a side was correct, and the
number of passes in which the working tree was faster. It sees the pass
alone: none of the start-up, set-up or process noise of a run. Each side
runs from one directory name there (the base from `a`, the change from `b`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "change")
PAIRS = 10  # a claimed gain must win at least nine of ten pairs
DIRS = ("a", "b")  # the two sides' directory names, swapped between pairs
IN_PROCESS_PASSES = 40  # timed passes per side and workload in the in-process block
DRIVER = Path(__file__).resolve().with_name("bench_driver.py")
#: numpy's thread pools are held at one thread, as bench/run.py holds them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DRIVER_TIMEOUT_S = 120.0


def placement(pair: int) -> tuple[str, str]:
    """The directory names of (base, change) in pair `pair`.

    They swap after pairs 0, 2, 4, ...: (a, b), (b, a), (b, a), (a, b), (a, b), ...
    So over ten pairs each side runs from each name five times, and each
    name holds the side that runs first in as even a share as ten allows.
    """
    return DIRS if (pair + 1) // 2 % 2 == 0 else DIRS[::-1]


def export_commit(root: Path, rev: str, dest: Path) -> str:
    """Write the files of commit `rev` under `dest`; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=root,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=root, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def copy_working_tree(root: Path, dest: Path) -> None:
    """Copy the tracked and the untracked, non-ignored files of `root`, as they are on disk."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=root, check=True, capture_output=True).stdout.split(b"\0")
    for name in dict.fromkeys(filter(None, names)):
        src, target = root / os.fsdecode(name), dest / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted from the working tree is left out
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, object]:
    """Run one `bench/run.py`; return its result and its process tree's resource usage."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=checkout, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        lines = out.read().decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"returncode": proc.returncode, "stderr": err.read().decode()[-2000:]}, usage
    return json.loads(lines[-1]), usage


def run_pairs(tmp: Path, workloads: list[str], seed: int, seconds: float) -> list[dict]:
    """Run `PAIRS` alternating pairs; the base starts in `tmp/a`, the change in `tmp/b`."""
    at = dict(zip(SIDES, DIRS))
    runs = []
    for pair in range(PAIRS):
        want = dict(zip(SIDES, placement(pair)))
        if want != at:  # swap the two directories' names
            (tmp / DIRS[0]).rename(tmp / "swap")
            (tmp / DIRS[1]).rename(tmp / DIRS[0])
            (tmp / "swap").rename(tmp / DIRS[1])
            at = want
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result, usage = run_bench(tmp / at[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": pair, "side": side, "dir": at[side],
                             "result": result, "minor_faults": usage.ru_minflt,
                             "max_rss_mb": usage.ru_maxrss / 1024})
                print(json.dumps(runs[-1]), flush=True)
    return runs


class Driver:
    """One `tools/bench_driver.py` process, set up in one checkout; one pass per `run_pass`."""

    def __init__(self, checkout: Path, workload: str, seed: int):
        cmd = [sys.executable, str(DRIVER), workload, str(seed), str(checkout / ".bench_out" / "driver")]
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
        self.proc = subprocess.Popen(cmd, cwd=checkout, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self.proc.stdout.readline().strip()
        if ready not in ("ready", "failed"):
            self.close()
            raise RuntimeError(f"{workload} driver in {checkout.name} exited {self.proc.returncode}")
        self.first_correct = ready == "ready"  # the warm-up pass's full check

    def run_pass(self) -> dict:
        """Time one pass: {"wall_s": seconds or None, "correct": bool}."""
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"driver exited {self.proc.wait()} during a pass")
        return json.loads(line)

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):  # a driver that died mid-pass
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_in_process(roots: dict[str, Path], workloads: list[str], seed: int) -> dict:
    """Per workload, `IN_PROCESS_PASSES` passes per side, alternated between two drivers.

    `roots` maps each side to the checkout its driver runs from. A workload
    whose driver fails to start or dies is recorded with its error.
    """
    block: dict[str, dict] = {}
    for workload in workloads:
        drivers: dict[str, Driver] = {}
        try:
            for side in SIDES:
                drivers[side] = Driver(roots[side], workload, seed)
            walls: dict[str, list] = {side: [] for side in SIDES}
            correct = {side: drivers[side].first_correct for side in SIDES}
            for i in range(IN_PROCESS_PASSES):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = drivers[side].run_pass()
                    walls[side].append(result["wall_s"])
                    correct[side] = correct[side] and result["correct"]
            block[workload] = summarize_in_process(walls, correct)
        except (RuntimeError, OSError) as exc:
            block[workload] = {"error": str(exc)}
        finally:
            for driver in drivers.values():
                driver.close()
        print(json.dumps({"in_process": workload, **{k: v for k, v in block[workload].items()
                                                     if k != "wall_s"}}), flush=True)
    return block


def summarize_in_process(walls: dict[str, list], correct: dict[str, bool]) -> dict:
    """Each side's quartiles of wall_s and the passes the change was faster in.

    Pass i of one side is paired with pass i of the other; a pass that
    raised (wall_s None) counts for neither side.
    """
    both = [(b, c) for b, c in zip(walls["base"], walls["change"]) if b is not None and c is not None]
    out: dict = {"passes": IN_PROCESS_PASSES, "correct": correct}
    for side in SIDES:
        done = [w for w in walls[side] if w is not None]
        if done:
            out[side] = quartiles(done)
    out["pairs"] = len(both)
    out["change_better_passes"] = sum(c < b for b, c in both)
    out["wall_s"] = walls
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: each side's quartiles and the pairs the change won."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        done = [r for r in runs if r["workload"] == workload and "metrics" in r["result"]]
        rows: dict = {"all_correct": bool(done) and all(
            r["result"]["correct"] is True and r["result"]["failed"] == 0 for r in done)}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            value = {s: {r["pair"]: r["result"]["metrics"][name]["value"]
                         for r in done if r["side"] == s and name in r["result"]["metrics"]}
                     for s in SIDES}
            if not all(value.values()):
                continue
            both = value["base"].keys() & value["change"].keys()
            rows[name] = {
                "unit": m["unit"],
                "better": m["better"],
                **{s: quartiles(list(value[s].values())) for s in SIDES},
                "pairs": len(both),
                "change_better_pairs": sum(sign * (value["base"][p] - value["change"][p]) > 0 for p in both),
            }
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="commit to compare the working tree against")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        base_sha = export_commit(root, args.base, Path(tmp) / DIRS[0])
        copy_working_tree(root, Path(tmp) / DIRS[1])
        in_process = run_in_process(dict(zip(SIDES, (Path(tmp) / d for d in DIRS))), workloads, args.seed)
        runs = run_pairs(Path(tmp), workloads, args.seed, seconds)
    report = {
        "base": base_sha,
        "change": f"working tree at {head}, copied to a fresh directory",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "command": "python3 bench/run.py --workload W --seed SEED --seconds SECONDS --trace 0",
        "summary": summarize(runs, spec["end_to_end"]),
        "in_process": in_process,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    ok = all("metrics" in r["result"] for r in runs) and not any("error" in w for w in in_process.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
