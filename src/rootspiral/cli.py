"""Command-line entry point.

Subcommands: spiral (CSV table), verify (claim checks), discover (JSON
report), render (SVG figure), report (reports + figures for the claims
divisors). Exit codes: 0 success, 1 claim mismatch, 2 bad arguments.
All files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Sequence

from .claims import claimed_divisors, claims_for
from .config import Config
from .discovery import discover, verify_paper_table
from .errors import RootSpiralError
from .render import Canvas, export_report, render_svg
from .spiral import SpiralTable, shared_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


@contextmanager
def _atomic_open(path: Path) -> Iterator[IO[bytes]]:
    """Open a hidden temporary file in the target directory for writing bytes.

    The handle is `open(fd, "wb")`. When the block ends normally
    the file is closed and renamed over `path`; on any exception it is
    removed and `path` is left as it was. The temporary file is created with
    mode 0666 less the process umask, so the renamed file gets the same mode
    as any newly created file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _atomic_write(path: Path, data: bytes) -> None:
    """Write `data` to `path` atomically (see _atomic_open)."""
    with _atomic_open(path) as handle:
        handle.write(data)


def _load_config(args: argparse.Namespace) -> Config:
    overrides = {}
    if getattr(args, "n_max", None) is not None:
        overrides["n_max"] = args.n_max
    if getattr(args, "mirror", False):
        overrides["mirror"] = True
    if args.config:
        return Config.from_file(args.config, **overrides)
    return Config(**overrides)


def _out_path(cfg: Config, out: str | None, default_name: str) -> Path:
    if out:
        return Path(out)
    return cfg.resolved_output_dir() / default_name


def _cmd_spiral(args: argparse.Namespace, cfg: Config, table: SpiralTable) -> int:
    path = _out_path(cfg, args.out, f"spiral_{cfg.n_max}.csv")
    with _atomic_open(path) as handle:
        table.write_csv(handle, cfg.n_max)
    print(f"wrote {path} ({cfg.n_max} points)")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, cfg: Config, table: SpiralTable) -> int:
    if args.divisor is not None:
        claims_for(args.divisor)  # raises UnknownDivisor for unpublished divisors
    reports = verify_paper_table(args.divisor, table=table, config=cfg)
    lines: list[str] = []
    flagged: list[str] = []
    mismatched = 0
    for rep in reports:
        lines.append(f"divisor {rep.divisor}:")
        for check in rep.paper_match:
            lines.append(f"  [{check.status:>10}] {check.claim} -- {check.detail}")
            mismatched += check.status == "mismatched"
            if check.status == "flagged":
                flagged.append(f"  {check.claim} -- {check.detail}")
    if flagged:
        lines += ["", "known discrepancies (flagged, not failures):", *flagged]
    lines.append("")
    lines.append(
        f"{mismatched} mismatched, {len(flagged)} flagged, "
        f"{sum(len(r.paper_match) for r in reports)} checks total"
    )
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(Path(args.out), text.encode("utf-8"))
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK if all(r.all_matched for r in reports) else EXIT_MISMATCH


def _cmd_discover(args: argparse.Namespace, cfg: Config, table: SpiralTable) -> int:
    report = discover(args.divisor, table=table, config=cfg)
    path = _out_path(cfg, args.out, f"report_d{args.divisor}.json")
    _atomic_write(path, export_report(report, "json"))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace, cfg: Config, table: SpiralTable) -> int:
    report = discover(args.divisor, table=table, config=cfg)
    path = _out_path(cfg, args.out, f"figure_d{args.divisor}.svg")
    _atomic_write(path, render_svg(report, Canvas(table, cfg.n_max, cfg.mirror)))
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace, cfg: Config, table: SpiralTable) -> int:
    out_dir = Path(args.out) if args.out else cfg.resolved_output_dir()
    divisors = claimed_divisors() if args.all else [args.divisor]
    canvas = Canvas(table, cfg.n_max, cfg.mirror)
    status = EXIT_OK
    for d in divisors:
        report = discover(d, table=table, config=cfg)
        _atomic_write(out_dir / f"report_d{d}.json", export_report(report, "json"))
        _atomic_write(out_dir / f"report_d{d}.txt", export_report(report, "text"))
        _atomic_write(out_dir / f"figure_d{d}.svg", render_svg(report, canvas))
        if not report.all_matched:
            status = EXIT_MISMATCH
        print(f"divisor {d}: {'ok' if report.all_matched else 'MISMATCH'}")
    print(f"wrote reports and figures to {out_dir}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootspiral",
        description="Square Root Spiral: construction, spiral-graph "
        "verification, discovery, and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, divisor: bool = False) -> None:
        p.add_argument("--config", help="JSON config file overriding defaults")
        p.add_argument("--out", help="output file (or directory for report)")
        p.add_argument(
            "--n-max", type=int, default=None, help="spiral table size (default 20000)"
        )
        if divisor:
            p.add_argument("--divisor", type=int, required=True, help="divisor d >= 2")

    p = sub.add_parser("spiral", help="write the spiral table as CSV")
    common(p)
    p.set_defaults(func=_cmd_spiral)

    p = sub.add_parser("verify", help="check every published claim")
    common(p)
    p.add_argument("--divisor", type=int, default=None, help="restrict to one divisor")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("discover", help="discover arm systems for a divisor")
    common(p, divisor=True)
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("render", help="render the figure for a divisor")
    common(p, divisor=True)
    p.add_argument("--mirror", action="store_true", help="flip the y axis")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("report", help="reports + figures for the claims divisors")
    common(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="all divisors with published data")
    which.add_argument("--divisor", type=int, help="a single divisor")
    p.add_argument("--mirror", action="store_true", help="flip the y axis")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg, shared_table(cfg.n_max))
    except (ValueError, OSError, RootSpiralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
