"""The three benchmark workloads.

Each workload has a set-up (the program state and inputs a user command
starts from), one pass (the work of one user command, the unit that is
timed) and a check of that pass's output. Workloads call the program only
through its public entry points: `rootspiral.cli.run`,
`rootspiral.SpiralTable` and `rootspiral.shared_table`.

rootspiral is imported by `setup`, not at module import, so that the
set-up time includes it.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import checks

#: Rows of the `spiral_csv` export: its whole-file buffer (~33 MB of text,
#: held as str and bytes) outweighs the ~40 MB the interpreter and numpy take.
CSV_ROWS = 300_000
#: Entries of the `table_1e7` table.
TABLE_N = 10**7
#: Seeded rows of the CSV checked against math.fsum.
CSV_FSUM_ROWS = 64
#: Seeded queries per `table_1e7` pass, by accessor.
TABLE_QUERIES = {"angle": 4000, "winding_gap": 1000, "next_turn_index": 1000, "theodorus_constant": 500}
#: Share of angle queries drawn below checks.SERIES_FROM (checked against math.fsum).
TABLE_SMALL_SHARE = 0.05


class Workload:
    name = ""
    #: Spiral size the set-up builds the process-wide table at.
    setup_table = checks.N_MAX

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.reference = None

    def setup(self) -> None:
        """Import the program, load the claims, build the first table, make the inputs."""
        import rootspiral
        from rootspiral.claims import all_claims

        all_claims()
        rootspiral.shared_table(self.setup_table)
        self.rs = rootspiral

    def prepare(self) -> None:
        """Independent reference values for the checks; not part of set-up."""

    def run_pass(self, i: int):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def discard(self, out) -> None:
        """Remove what a pass left on disk, after it was checked."""


def _cli(argv: list[str]) -> int:
    from rootspiral import cli

    return cli.run(argv)


class ReportAll(Workload):
    """`rootspiral report --all --out DIR`, run in-process."""

    name = "report_all"

    def prepare(self):
        self.theta = checks.theta_fsum(range(1, checks.FIGURE_N_MAX + 1))

    def run_pass(self, i):
        out = self.out_dir / f"report-{i}"
        return _cli(["report", "--all", "--out", str(out)]), out

    def check(self, out):
        rc, directory = out
        checks.require(rc in (0, 1), f"report exited {rc}")
        digest = checks.digest_files(directory)
        if self.reference is None:
            checks.check_report_dir(directory, self.theta)
            self.reference = digest
        checks.require(sorted(p.name for p in directory.iterdir()) == checks.report_file_names(),
                       "report left other files than its 18 outputs")
        checks.require(digest == self.reference, "report output differs from the first pass")

    def discard(self, out):
        shutil.rmtree(out[1], ignore_errors=True)


class SpiralCsv(Workload):
    """`rootspiral spiral --n-max CSV_ROWS --out FILE`, run in-process."""

    name = "spiral_csv"
    setup_table = CSV_ROWS

    def prepare(self):
        rng = random.Random(self.seed)
        self.rows = rng.sample(range(2, CSV_ROWS + 1), CSV_FSUM_ROWS)
        self.theta = checks.theta_fsum(self.rows)

    def run_pass(self, i):
        path = self.out_dir / f"spiral-{i}.csv"
        return _cli(["spiral", "--n-max", str(CSV_ROWS), "--out", str(path)]), path

    def check(self, out):
        rc, path = out
        checks.require(rc == 0, f"spiral exited {rc}")
        digest = checks.digest_file(path)
        if self.reference is None:
            checks.check_csv(path, CSV_ROWS, self.theta)
            self.reference = digest
        checks.require(digest == self.reference, "CSV differs from the first pass")

    def discard(self, out):
        out[1].unlink(missing_ok=True)


class Table1e7(Workload):
    """SpiralTable(10**7), then seeded bulk queries of four accessors."""

    name = "table_1e7"

    def setup(self):
        super().setup()
        rng = random.Random(self.seed)
        lo, hi = checks.SERIES_FROM, TABLE_N
        n_small = int(TABLE_QUERIES["angle"] * TABLE_SMALL_SHARE)
        # a full turn past n is ~4 pi sqrt(n) further out; keep it inside the table
        turn_hi = TABLE_N - 40_000
        self.queries = {
            "angle": [rng.randrange(1, lo) for _ in range(n_small)]
            + [rng.randrange(lo, hi + 1) for _ in range(TABLE_QUERIES["angle"] - n_small)],
            "winding_gap": [rng.randrange(lo, turn_hi) for _ in range(TABLE_QUERIES["winding_gap"])],
            "next_turn_index": [rng.randrange(lo, turn_hi) for _ in range(TABLE_QUERIES["next_turn_index"])],
            "theodorus_constant": [rng.randrange(lo, hi + 1) for _ in range(TABLE_QUERIES["theodorus_constant"])],
        }

    def prepare(self):
        lo = checks.SERIES_FROM
        self.small = checks.theta_fsum(n for n in self.queries["angle"] if n < lo)

    def run_pass(self, i):
        table = self.rs.SpiralTable(TABLE_N)
        results = {name: [getattr(table, name)(n) for n in ns] for name, ns in self.queries.items()}
        return table, results

    def check(self, out):
        table, results = out
        checks.check_table(table.theta_array, TABLE_N, self.queries, results, self.small)


WORKLOADS = {w.name: w for w in (ReportAll, SpiralCsv, Table1e7)}
