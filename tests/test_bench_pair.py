"""tools/bench_pair.py without running a benchmark: directory swaps and pair counts."""

from __future__ import annotations

import importlib.util
import json
import resource
import subprocess
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
        return {"metrics": {}}

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
    children = SimpleNamespace(ru_minflt=0, ru_maxrss=0)  # RUSAGE_CHILDREN so far
    peaks_kb = [41_000, 40_000, 152_000, 43_000]
    ran = []  # the directory of each run, in order

    def fake_run(cmd, cwd, capture_output, text):
        """One bench/run.py: its tree faults 1000 times its number and peaks at peaks_kb."""
        i = len(ran)
        ran.append(Path(cwd).name)
        children.ru_minflt += 1000 * (i + 1)
        children.ru_maxrss = max(children.ru_maxrss, peaks_kb[i % len(peaks_kb)])
        line = json.dumps({"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 0.1}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    def fake_getrusage(who):
        assert who == resource.RUSAGE_CHILDREN
        return SimpleNamespace(**vars(children))

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pair.resource, "getrusage", fake_getrusage)
    runs = bench_pair.run_pairs(tmp_path, ["w"], seed=1, seconds=1.0)
    assert [r["dir"] for r in runs] == ran and len(runs) == 2 * bench_pair.PAIRS
    assert [r["minor_faults"] for r in runs] == [1000 * (i + 1) for i in range(len(runs))]
    # one high-water mark for all children: a run below an earlier peak reads that peak
    high = [max(peaks_kb[j % len(peaks_kb)] for j in range(i + 1)) / 1024 for i in range(len(runs))]
    assert [r["max_rss_mb"] for r in runs] == high
    assert all(r["result"]["metrics"]["wall_s"]["value"] == 0.1 for r in runs)


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
