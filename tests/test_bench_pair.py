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
        return {"metrics": {}}, SimpleNamespace(ru_minflt=0, ru_maxrss=0)

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
        """Reap run `pid`: its tree faults 1000 times its number and peaks at peaks_kb."""
        assert (pid, options) == (len(ran), 0)
        usage = SimpleNamespace(ru_minflt=1000 * pid, ru_maxrss=peaks_kb[(pid - 1) % len(peaks_kb)])
        return pid, (2 << 8 if pid == 3 else 0), usage  # the third exits with status 2

    monkeypatch.setattr(bench_pair.subprocess, "Popen", FakePopen)
    monkeypatch.setattr(bench_pair.os, "wait4", fake_wait4)
    runs = bench_pair.run_pairs(tmp_path, ["w"], seed=1, seconds=1.0)
    assert [r["dir"] for r in runs] == ran and len(runs) == 2 * bench_pair.PAIRS
    assert [r["minor_faults"] for r in runs] == [1000 * (i + 1) for i in range(len(runs))]
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
