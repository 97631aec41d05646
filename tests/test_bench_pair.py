"""tools/bench_pair.py without running a benchmark: directory swaps and pair counts."""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"}]


def test_each_side_runs_from_each_directory_in_half_the_pairs(tmp_path, monkeypatch):
    for side, name in zip(bench_pair.SIDES, bench_pair.DIRS):
        (tmp_path / name).mkdir()
        (tmp_path / name / "SIDE").write_text(side)
    seen = []

    def fake_run_bench(checkout, workload, seed, seconds):
        seen.append((checkout.name, (checkout / "SIDE").read_text()))
        return {"metrics": {}}, SimpleNamespace(ru_minflt=0, ru_maxrss=0, ru_utime=0.0, ru_stime=0.0)

    monkeypatch.setattr(bench_pair, "run_bench", fake_run_bench)
    runs = bench_pair.run_pairs(tmp_path, ["w1", "w2"], seed=1, seconds=1.0)
    # each record names the directory its side ran from
    assert [(r["dir"], r["side"]) for r in runs] == seen
    assert len(runs) == 2 * 2 * bench_pair.PAIRS
    for pair in range(bench_pair.PAIRS):
        sides = [r["side"] for r in runs if r["pair"] == pair]
        assert sides[0] == ("base" if pair % 2 == 0 else "change")
    per_side = Counter((r["side"], r["dir"]) for r in runs if r["workload"] == "w1")
    half = bench_pair.PAIRS // 2
    assert per_side == {(s, d): half for s in bench_pair.SIDES for d in bench_pair.DIRS}


def test_each_run_records_its_process_tree_usage(tmp_path, monkeypatch):
    for name in bench_pair.DIRS:
        (tmp_path / name).mkdir()
    peaks_kb = [41_000, 40_000, 152_000, 43_000]
    ran = []  # the directory of each run, in order; a run's pid is its number
    line = json.dumps({"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 0.1}}})

    class FakePopen:
        """One bench/run.py: it prints its result line; the third run fails instead."""

        def __init__(self, cmd, cwd, stdout, stderr):
            ran.append(Path(cwd).name)
            self.pid, self.returncode = len(ran), None
            if self.pid == 3:
                stderr.write(b"boom\n")
            else:
                stdout.write(line.encode() + b"\n")

    def fake_wait4(pid, options):
        """Reap run `pid`: its tree faults 1000 times its number, peaks at peaks_kb,
        and spends pid seconds of user time and a quarter second of system time."""
        assert (pid, options) == (len(ran), 0)
        usage = SimpleNamespace(ru_minflt=1000 * pid, ru_maxrss=peaks_kb[(pid - 1) % len(peaks_kb)],
                                ru_utime=float(pid), ru_stime=0.25)
        return pid, (2 << 8 if pid == 3 else 0), usage  # the third exits with status 2

    monkeypatch.setattr(bench_pair.subprocess, "Popen", FakePopen)
    monkeypatch.setattr(bench_pair.os, "wait4", fake_wait4)
    runs = bench_pair.run_pairs(tmp_path, ["w"], seed=1, seconds=1.0)
    assert [r["dir"] for r in runs] == ran and len(runs) == 2 * bench_pair.PAIRS
    assert [r["minor_faults"] for r in runs] == [1000 * (i + 1) for i in range(len(runs))]
    assert [r["cpu_s"] for r in runs] == [i + 1.25 for i in range(len(runs))]
    # each run reads its own peak, also one below an earlier run's
    assert [r["max_rss_mb"] for r in runs] == [
        peaks_kb[i % len(peaks_kb)] / 1024 for i in range(len(runs))
    ]
    assert runs[2]["result"] == {"returncode": 2, "stderr": "boom\n"}
    assert all(r["result"]["metrics"]["wall_s"]["value"] == 0.1 for r in runs[:2] + runs[3:])


def _runs(pairs):
    """Run records of one workload from (base, change) values per pair."""
    return [
        {"workload": "w", "pair": i, "side": side, "result": {
            "correct": True, "failed": 0, "metrics": {"wall_s": {"value": value}}}}
        for i, values in enumerate(pairs)
        for side, value in zip(bench_pair.SIDES, values)
    ]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_summarize_counts_ties_for_neither_side(better):
    pairs = [(1.0, 1.0), (2.0, 2.0), (1.0, 0.5), (1.0, 2.0), (3.0, 3.0), (0.5, 0.25)]
    metrics = [{**METRICS[0], "better": better}]
    swapped = [(c, b) for b, c in pairs]
    change = bench_pair.summarize(_runs(pairs), metrics)["w"]["wall_s"]
    base = bench_pair.summarize(_runs(swapped), metrics)["w"]["wall_s"]
    assert change["pairs"] == base["pairs"] == 6
    wins = {"lower": (2, 1), "higher": (1, 2)}[better]
    assert (change["change_better_pairs"], base["change_better_pairs"]) == wins


def test_summarize_marks_a_workload_with_failed_runs_incorrect():
    """Change runs that all failed make the workload incorrect, and are counted per side."""
    runs = _runs([(1.0, 1.0)] * 3)
    for r in runs:
        if r["side"] == "change":
            r["result"] = {"returncode": 1}
    rows = bench_pair.summarize(runs, METRICS)["w"]
    assert rows == {"all_correct": False, "failed_runs": {"base": 0, "change": 3}}
    runs[1]["result"] = _runs([(1.0, 1.0)])[1]["result"]
    rows = bench_pair.summarize(runs, METRICS)["w"]
    assert rows["all_correct"] is False and rows["failed_runs"] == {"base": 0, "change": 2}
    assert rows["wall_s"]["pairs"] == 1
    assert bench_pair.summarize(_runs([(1.0, 1.0)] * 3), METRICS)["w"]["all_correct"] is True


def test_in_process_block_alternates_two_drivers(tmp_path, monkeypatch):
    """One driver per side and workload, started in its side's root; passes alternate."""
    roots = {side: tmp_path / name for side, name in zip(bench_pair.SIDES, bench_pair.DIRS)}
    calls = []  # (workload, side) of each pass, in order
    started, closed = [], []

    class FakeDriver:
        """The base takes 10 ms a pass and the change 8 ms, but 12 ms in its passes 3 and 7.

        The base spends as much CPU time as wall time, the change 14 ms a pass.
        """

        def __init__(self, checkout, workload, seed):
            self.side = next(s for s, root in roots.items() if root == checkout)
            self.workload, self.passes = workload, 0
            self.first_correct = not (workload == "w2" and self.side == "change")
            started.append((workload, self.side, seed))

        def run_pass(self):
            calls.append((self.workload, self.side))
            self.passes += 1
            slow = self.side == "change" and self.passes in (3, 7)
            wall = 0.010 if self.side == "base" else (0.012 if slow else 0.008)
            cpu = 0.010 if self.side == "base" else 0.014
            return {"wall_s": wall, "cpu_s": cpu, "correct": True}

        def close(self):
            closed.append((self.workload, self.side))

    monkeypatch.setattr(bench_pair, "Driver", FakeDriver)
    block = bench_pair.run_in_process(roots, ["w1", "w2"], seed=5)
    assert started == [(w, s, 5) for w in ("w1", "w2") for s in bench_pair.SIDES]
    assert sorted(closed) == sorted((w, s) for w, s, _ in started)
    n = bench_pair.IN_PROCESS_PASSES
    for w in ("w1", "w2"):
        order = [side for workload, side in calls if workload == w]
        assert len(order) == 2 * n
        # the base runs first in even passes, the change in odd ones
        assert [order[2 * i] for i in range(n)] == ["base" if i % 2 == 0 else "change" for i in range(n)]
        rows = block[w]
        assert rows["pairs"] == n and rows["change_better_passes"] == n - 2
        assert rows["base"]["median"] == 0.010 and rows["change"]["median"] == 0.008
        assert rows["cpu"]["base"]["median"] == 0.010 and rows["cpu"]["change"]["median"] == 0.014
        assert rows["cpu_s"]["change"] == [0.014] * n
        assert rows["wall_s"]["change"][2] == rows["wall_s"]["change"][6] == 0.012
    # a warm-up pass that failed its full check marks its side incorrect
    assert block["w1"]["correct"] == {"base": True, "change": True}
    assert block["w2"]["correct"] == {"base": True, "change": False}


def test_in_process_summary_skips_passes_that_raised():
    """A pass that raised (wall_s and cpu_s None) counts for neither side."""
    walls = {"base": [0.01, None, 0.01], "change": [0.02, 0.005, None]}
    cpus = {"base": [0.01, None, 0.03], "change": [0.04, 0.01, None]}
    rows = bench_pair.summarize_in_process(walls, cpus, {"base": True, "change": False})
    assert rows["pairs"] == 1 and rows["change_better_passes"] == 0
    assert rows["base"]["median"] == 0.01 and rows["change"]["median"] == 0.0125
    assert rows["cpu"]["base"]["median"] == 0.02 and rows["cpu"]["change"]["median"] == 0.025


def test_driver_runs_the_checkout_it_starts_in(tmp_path):
    """tools/bench_driver.py imports `src` and `bench/workloads.py` of its working directory."""
    root = tmp_path / "checkout"
    (root / "bench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "bench" / "checks.py").write_text("class CheckError(AssertionError):\n    pass\n")
    (root / "bench" / "workloads.py").write_text(
        "import checks\n"
        "class W:\n"
        "    name = 'w'\n"
        "    def __init__(self, seed, out_dir):\n"
        "        self.seed = seed\n"
        "    def setup(self):\n"
        "        pass\n"
        "    def prepare(self):\n"
        "        pass\n"
        "    def run_pass(self, i):\n"
        "        return i\n"
        "    def check(self, out):\n"
        "        if out == 2:\n"
        "            raise checks.CheckError('pass 2 is wrong')\n"
        "    def discard(self, out):\n"
        "        pass\n"
        "WORKLOADS = {'w': W}\n"
    )
    driver = bench_pair.Driver(root, "w", seed=3)
    try:
        assert driver.first_correct
        results = [driver.run_pass() for _ in range(3)]
    finally:
        driver.close()
    assert driver.proc.returncode == 0
    assert [r["correct"] for r in results] == [True, False, True]
    assert all(r["wall_s"] >= 0.0 and r["cpu_s"] >= 0.0 for r in results)
