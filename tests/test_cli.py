"""Command-line interface: exit codes, file outputs, config handling."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from rootspiral import spiral
from rootspiral.claims import claimed_divisors
from rootspiral.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, run
from rootspiral.config import OUTPUT_DIR_ENV, Config
from rootspiral.spiral import _CSV_ROWS, SpiralTable, shared_table

GOLDEN = Path(__file__).parent / "golden"


def test_spiral_writes_csv(tmp_path):
    out = tmp_path / "spiral.csv"
    assert run(["spiral", "--n-max", "500", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,radius,theta_rad,winding,x,y"
    assert len(lines) == 501


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert run(["spiral", "--n-max", "200", "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "s.csv").stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]  # no temporary file left


def test_failed_write_leaves_no_temporary_file(tmp_path):
    (tmp_path / "taken").mkdir()  # os.replace cannot put a file over a directory
    assert run(["spiral", "--n-max", "200", "--out", str(tmp_path / "taken")]) == EXIT_USAGE
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_failed_csv_stream_keeps_target(tmp_path, monkeypatch):
    target = tmp_path / "s.csv"
    target.write_bytes(b"earlier contents\n")
    write_csv, writes = SpiralTable.write_csv, []

    class FullDisk:
        """Passes on the header and the first chunk, then fails."""

        def __init__(self, stream):
            self.stream = stream

        def write(self, text):
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            writes.append(len(text))
            return self.stream.write(text)

    def failing_write_csv(table, stream, n_max=None):
        write_csv(table, FullDisk(stream), n_max)

    monkeypatch.setattr(SpiralTable, "write_csv", failing_write_csv)
    assert run(["spiral", "--n-max", str(3 * _CSV_ROWS), "--out", str(target)]) == EXIT_USAGE
    assert len(writes) == 2 and writes[1] > 0
    assert target.read_bytes() == b"earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def test_spiral_below_minimum_is_usage_error(tmp_path):
    out = tmp_path / "spiral.csv"
    assert run(["spiral", "--n-max", "1", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_unknown_subcommand_and_missing_args():
    assert run(["frobnicate"]) == EXIT_USAGE
    assert run(["discover"]) == EXIT_USAGE  # --divisor required
    assert run(["report"]) == EXIT_USAGE  # needs --all or --divisor
    assert run(["report", "--all", "--divisor", "3"]) == EXIT_USAGE  # not both


def test_verify_d17_exits_zero(capsys):
    assert run(["verify", "--divisor", "17"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 mismatched" in out
    assert "known discrepancies" in out


def test_verify_unpublished_divisor_is_usage_error(capsys):
    assert run(["verify", "--divisor", "7"]) == EXIT_USAGE
    assert "use `discover` instead" in capsys.readouterr().err


def _cli(*argv):
    """Run the CLI in a fresh process, whose spiral table holds exactly --n-max."""
    return subprocess.run(
        [sys.executable, "-m", "rootspiral.cli", *argv], capture_output=True, text=True
    )


def test_verify_small_n_max_reports_short_rotation_windows():
    proc = _cli("verify", "--n-max", "1000")
    assert proc.returncode == EXIT_MISMATCH, proc.stderr
    assert "N1: rotation negative -- 5 drift steps from x = 5 need n_max >= 1859" in proc.stdout


@pytest.mark.parametrize("n_max", [300, 1000, 5000])
def test_verify_small_n_max_matches_golden(n_max, table, capsys):
    """Small runs reach the failing claim branches that the report goldens miss.

    They run in-process after the larger session table is built: claim
    rows read the table only up to --n-max, so the bytes are those of a
    fresh process.
    """
    assert table.n_max > n_max
    assert run(["verify", "--n-max", str(n_max)]) == EXIT_MISMATCH
    golden = (GOLDEN / f"verify_n{n_max}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _pinned_csv_digest(rows=20000):
    return (GOLDEN / f"spiral_{rows}.csv.sha256").read_text().split()[0]


def test_spiral_csv_matches_pinned_digest(tmp_path):
    out = tmp_path / "spiral.csv"
    proc = _cli("spiral", "--n-max", "20000", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _pinned_csv_digest()


def test_spiral_csv_matches_pinned_digest_at_bench_size(tmp_path):
    """The export at the benchmark's 300 000 rows: many chunks, wide integers."""
    out = tmp_path / "spiral.csv"
    proc = _cli("spiral", "--n-max", "300000", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _pinned_csv_digest(300000)


def test_spiral_csv_digest_after_smaller_shared_table(tmp_path, monkeypatch):
    monkeypatch.setattr(spiral, "_shared", None)
    assert shared_table(1000).n_max == 1000
    out = tmp_path / "spiral.csv"
    assert run(["spiral", "--n-max", "20000", "--out", str(out)]) == EXIT_OK
    assert shared_table(1000).n_max == 20000  # the CSV came from the grown table
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _pinned_csv_digest()


def test_discover_d17_tiny_n_max(tmp_path):
    out = tmp_path / "d17.json"
    proc = _cli("discover", "--divisor", "17", "--n-max", "300", "--out", str(out))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(out.read_text())["parameters"]["n_max"] == 300


def test_discover_d7_no_paper_data(tmp_path):
    out = tmp_path / "d7.json"
    assert run(["discover", "--divisor", "7", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert [c["status"] for c in data["claims"]] == ["no-paper-data"]
    assert data["counts"]["positive"] + data["counts"]["negative"] > 0


def test_discover_divisor_without_multiple_below_two_pi_squared(tmp_path):
    out = tmp_path / "d23.json"
    assert run(["discover", "--divisor", "23", "--out", str(out)]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["counts"] == {"positive": 1, "negative": 1}


def test_render_writes_svg(tmp_path):
    out = tmp_path / "fig.svg"
    assert run(["render", "--divisor", "17", "--out", str(out)]) == EXIT_OK
    body = out.read_bytes()
    assert body.startswith(b"<?xml")
    assert b"<svg" in body


def test_figures_use_the_table_of_the_run(tmp_path, monkeypatch):
    """`--n-max 5000` builds a 5000-entry table; drawing the figure does not grow it."""
    monkeypatch.setattr(spiral, "_shared", None)
    assert run(["report", "--divisor", "13", "--n-max", "5000", "--out", str(tmp_path)]) == EXIT_MISMATCH
    assert spiral._shared.n_max == 5000
    out = tmp_path / "fig.svg"
    assert run(["render", "--divisor", "13", "--n-max", "5000", "--out", str(out)]) == EXIT_OK
    assert spiral._shared.n_max == 5000


@pytest.mark.parametrize("flags", [["--mirror"], ["--n-max", "1000"]], ids=["mirror", "n_max=1000"])
def test_report_all_figures_equal_render(tmp_path, flags):
    """`report --all` draws its six figures on one canvas; each equals its own `render`."""
    assert run(["report", "--all", *flags, "--out", str(tmp_path / "all")]) in (EXIT_OK, EXIT_MISMATCH)
    for d in claimed_divisors():
        one = tmp_path / f"render_d{d}.svg"
        assert run(["render", "--divisor", str(d), *flags, "--out", str(one)]) == EXIT_OK
        assert (tmp_path / "all" / f"figure_d{d}.svg").read_bytes() == one.read_bytes(), d
    if flags == ["--mirror"]:
        digests = dict(line.split()[::-1] for line in (GOLDEN / "figures.sha256").read_text().splitlines())
        svg = (tmp_path / "all" / "figure_d13.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == digests["figure_d13_mirror.svg"]


def test_report_single_divisor(tmp_path):
    assert run(["report", "--divisor", "17", "--out", str(tmp_path)]) == EXIT_OK
    for name in ("report_d17.json", "report_d17.txt", "figure_d17.svg"):
        assert (tmp_path / name).exists(), name


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert run(["discover", "--divisor", "17"]) == EXIT_OK
    assert (tmp_path / "report_d17.json").exists()


def test_config_file_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 5000}))
    out = tmp_path / "d17.json"
    code = run(["discover", "--divisor", "17", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["parameters"]["n_max"] == 5000


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_maximum": 5000}))
    out = tmp_path / "d17.json"
    code = run(["discover", "--divisor", "17", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_USAGE


FIXED_FIELDS = (
    "pair_tol_deg", "pair_claim_tol_deg", "drift_epsilon_rad", "early_drift_lo", "early_drift_hi",
)


@pytest.mark.parametrize(
    "data, error",
    [
        # a fixed tolerance is an unknown key, even at its own value
        *(({name: getattr(Config, name)}, f"unknown config keys: ['{name}']")
          for name in FIXED_FIELDS),
        # the old fixed bound on B, now derived from the drift gate
        ({"b_hard_max": 1200}, "unknown config keys: ['b_hard_max']"),
        ({"angular_tol_rad": 0}, "angular_tol_rad must be positive"),
        ({"min_chain_len": 3}, "min_chain_len must be at least 4"),
        ({"n_max": 99}, "n_max must be at least 100"),
        ({"centre_cap": 0}, "centre_cap must be at least 1"),
        ({"run_start_max": -1}, "run_start_max must be at least 0"),
        # one value of the wrong type per settable field
        ({"n_max": "5000"}, "n_max must be an integer, got '5000'"),
        ({"angular_tol_rad": "0.35"}, "angular_tol_rad must be a finite number, got '0.35'"),
        ({"angular_tol_rad": True}, "angular_tol_rad must be a finite number, got True"),
        ({"angular_tol_rad": float("nan")}, "angular_tol_rad must be a finite number, got nan"),
        ({"angular_tol_rad": 10**400}, "angular_tol_rad must be a finite number, got 1000"),
        ({"min_chain_len": 5.5}, "min_chain_len must be an integer, got 5.5"),
        ({"mirror": "no"}, "mirror must be true or false, got 'no'"),
        ({"output_dir": 7}, "output_dir must be a string, got 7"),
        ({"centre_cap": "54"}, "centre_cap must be an integer, got '54'"),
        ({"run_start_max": True}, "run_start_max must be an integer, got True"),
    ],
    ids=[*FIXED_FIELDS, "b_hard_max", "angular_tol_rad=0", "min_chain_len=3", "n_max=99",
         "centre_cap=0", "run_start_max=-1", "n_max=str", "angular_tol_rad=str",
         "angular_tol_rad=bool", "angular_tol_rad=nan", "angular_tol_rad=huge",
         "min_chain_len=float", "mirror=str", "output_dir=int", "centre_cap=str",
         "run_start_max=bool"],
)
def test_config_file_rejects(tmp_path, capsys, data, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "d17.json"
    code = run(["discover", "--divisor", "17", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_USAGE
    assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_config_settable_fields():
    """Only the run settings and the calibration are settable; all 12 are reported."""
    settable = [f.name for f in dataclasses.fields(Config) if f.init]
    assert settable == [
        "n_max", "angular_tol_rad", "min_chain_len", "mirror", "output_dir",
        "centre_cap", "run_start_max",
    ]
    assert sorted(Config().to_dict()) == sorted([*settable, *FIXED_FIELDS])


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["discover", "--divisor", "13", "--out", str(a)]) == EXIT_OK
    assert run(["discover", "--divisor", "13", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_help_lists_subcommands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("spiral", "verify", "discover", "render", "report"):
        assert sub in out
