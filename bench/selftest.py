"""Self-test of the benchmark's checks: each must accept a real output and
reject a corrupted one, so that no check passes vacuously.

Run from the root of a checkout (takes about half a minute):

    python3 bench/selftest.py

For every workload it runs one real pass, checks it, then corrupts a copy
of the output and expects the check to fail:

* report_all: one arm member shifted by one in a JSON report, and one
  multiple's <circle> removed from an SVG;
* spiral_csv: one theta perturbed by 1e-7, on a seeded row and on another
  row, and every theta drifting by 1e-12 per row, which only the seeded
  math.fsum rows can catch;
* table_1e7: one table entry off by 1e-7, and one query result off by 1e-7.

It also checks that the tracer puts back every attribute it replaced.
Exits 1 if any case fails.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(name: str, workload, out, accepted: bool) -> None:
    workload.reference = None  # check in full, not against an earlier pass
    try:
        workload.check(out)
        got = True
    except checks.CheckError as exc:
        got = False
        reason = str(exc)
    ok = got == accepted
    verdict = "accepted" if got else f"rejected ({reason})"
    print(f"{'ok  ' if ok else 'FAIL'} {workload.name}: {name}: {verdict}")
    if not ok:
        failures.append(f"{workload.name}: {name}")


def make(name: str, out_dir: Path):
    wl = WORKLOADS[name](SEED, out_dir)
    wl.setup()
    wl.prepare()
    return wl


def report_all(out_dir: Path) -> None:
    wl = make("report_all", out_dir)
    rc, directory = wl.run_pass(1)
    expect("real output", wl, (rc, directory), True)

    bad = out_dir / "report-member-shifted"
    shutil.copytree(directory, bad)
    path = bad / "report_d2.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["systems"][0]["arms"][0]["members"][3] += 1
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    expect("arm member shifted by one", wl, (rc, bad), False)

    bad = out_dir / "report-circle-removed"
    shutil.copytree(directory, bad)
    svg = bad / "figure_d5.svg"
    lines = svg.read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("<circle"))
    svg.write_text("".join(lines[:first] + lines[first + 1:]), encoding="utf-8")
    expect("one multiple's <circle> removed", wl, (rc, bad), False)


def _perturb_csv(src: Path, dst: Path, row: int = 0, delta: float = 0.0, drift: float = 0.0) -> None:
    """Copy a spiral CSV, adding delta to theta of one row and drift * (n - 1) to row n.

    x, y and the winding are recomputed from the new theta, so each row
    stays consistent with itself and only the angle is wrong.
    """
    with open(src, encoding="utf-8") as inp, open(dst, "w", encoding="utf-8") as out:
        out.write(inp.readline())
        for n, line in enumerate(inp, start=1):
            if n == row or drift:
                fields = line.rstrip("\n").split(",")
                t = float(fields[2]) + (delta if n == row else 0.0) + drift * (n - 1)
                r = math.sqrt(n)
                fields[2:] = [f"{t:.17e}", str(int(t // checks.TWO_PI)), f"{r * math.cos(t):.17e}",
                              f"{r * math.sin(t):.17e}"]
                line = ",".join(fields) + "\n"
            out.write(line)


def spiral_csv(out_dir: Path) -> None:
    wl = make("spiral_csv", out_dir)
    rc, path = wl.run_pass(1)
    expect("real output", wl, (rc, path), True)
    seeded = wl.rows[0]
    other = next(n for n in range(1000, 2000) if n not in wl.theta)
    for label, row in (("seeded", seeded), ("unseeded", other)):
        bad = out_dir / f"spiral-{label}.csv"
        _perturb_csv(path, bad, row=row, delta=1e-7)
        expect(f"theta of {label} row {row} perturbed by 1e-7", wl, (rc, bad), False)
    bad = out_dir / "spiral-drift.csv"
    _perturb_csv(path, bad, drift=1e-12)
    expect("theta drifting by 1e-12 per row (each step within tolerance)", wl, (rc, bad), False)


def table_1e7(out_dir: Path) -> None:
    wl = make("table_1e7", out_dir)
    table, results = wl.run_pass(1)
    expect("real output", wl, (table, results), True)
    n = random.Random(SEED).randrange(2, table.n_max)
    table._theta[n] += 1e-7
    expect(f"table entry {n} off by 1e-7", wl, (table, results), False)
    table._theta[n] -= 1e-7
    expect("the same entry restored", wl, (table, results), True)
    bad = dict(results, angle=[results["angle"][0] + 1e-7] + results["angle"][1:])
    expect("angle query result off by 1e-7", wl, (table, bad), False)


def tracer_restores() -> None:
    import rootspiral  # noqa: F401
    from tracing import MODULES, Tracer

    def snapshot():
        from rootspiral.quadratics import HalfIntQuadratic
        from rootspiral.spiral import SpiralTable

        state = {(m, k): v for m in MODULES for k, v in vars(sys.modules[m]).items()}
        for cls in (SpiralTable, HalfIntQuadratic):
            state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return state

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    changed = sum(1 for k, v in snapshot().items() if before.get(k) is not v)
    tracer.uninstall()
    after = snapshot()
    ok = changed > 0 and all(after.get(k) is v for k, v in before.items())
    print(f"{'ok  ' if ok else 'FAIL'} tracer: replaced {changed} attributes and put all back")
    if not ok:
        failures.append("tracer restore")


def main() -> int:
    out_dir = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        for case in (report_all, spiral_csv, table_1e7):
            case(out_dir)
        tracer_restores()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks reject their corrupted outputs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
