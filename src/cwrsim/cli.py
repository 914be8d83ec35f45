"""Command-line front end: run seeded simulations, write CSVs, compare outputs."""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .engine import InvariantError
from .metrics import ccdf, write_ccdf_csv, write_growth_csv
from .scenario import ScenarioError, parse_scenario
from .scheduling import PATH_SCHEDULERS
from .simulation import Simulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2

# every run's growth rows, pooled in OUT beside the run_NNN dirs
GROWTH_TABLE = "cwnd_growth.csv"

class UnreadableOutput(ValueError):
    """A file under a compare directory that is not what simulate writes."""


def _run_dir(outdir: Path, rep: int) -> Path:
    return outdir / f"run_{rep:03d}"


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.reps < 1:
        print(f"error: --reps must be at least 1, got {args.reps}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    base_seed = config.seed if args.seed is None else args.seed
    outdir = Path(args.out)
    pooled_mcts: list[int] = []
    pooled_growth = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        # a simulate that stops leaves no pooled table, not an older one
        for name in (GROWTH_TABLE, "ccdf.csv"):
            (outdir / name).unlink(missing_ok=True)
        for rep in range(args.reps):
            config.seed = base_seed + rep
            result = Simulation(config).run()
            for warning in result.write_outputs(_run_dir(outdir, rep)):
                print(f"run {rep}: {warning}", file=sys.stderr)
            pooled_mcts.extend(result.priority_mcts())
            pooled_growth.extend(result.growth_records()[0])
        write_ccdf_csv(outdir / "ccdf.csv", ccdf(pooled_mcts))
        # last: compare takes this table to mean the simulate finished
        write_growth_csv(outdir / GROWTH_TABLE, pooled_growth)
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        # --out is a file, or a file stands where an output must go
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.reps} run(s) under {outdir}")
    return EXIT_OK


def _load_dir(outdir: Path) -> tuple[str, list[tuple[int, float]]]:
    """Read the path scheduler of run_000's manifest.json and the (path id,
    mean growth) rows of the pooled growth table. simulate removes that
    table before its first run and writes it after its last, so the two
    files come from one finished simulate."""
    manifest = _run_dir(outdir, 0) / "manifest.json"
    try:
        with manifest.open(encoding="utf-8") as fh:
            scheduler = json.load(fh)["config"]["path_scheduler"]
        # isinstance first: a list or dict cannot be looked up
        if not isinstance(scheduler, str) or scheduler not in PATH_SCHEDULERS:
            raise ValueError(scheduler)
    except (KeyError, TypeError, ValueError, RecursionError):
        # RecursionError: json nests too deep to parse
        raise UnreadableOutput(
            f"{manifest}: expected JSON with a config.path_scheduler "
            f"of {', '.join(PATH_SCHEDULERS)}") from None
    growth = outdir / GROWTH_TABLE
    rows = []
    with growth.open(encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:
                mean = float(row["mean_growth_bytes_per_rtt"])
                # simulate writes a finite mean only
                if not math.isfinite(mean):
                    raise ValueError(mean)
                rows.append((int(row["path_id"]), mean))
        except (KeyError, TypeError, ValueError):
            raise UnreadableOutput(
                f"{growth}: line {reader.line_num}: expected numeric "
                "path_id and finite mean_growth_bytes_per_rtt") from None
        except csv.Error as exc:  # such as a field over csv's size limit
            # DictReader's own line_num lags a line that fails to parse
            raise UnreadableOutput(
                f"{growth}: line {reader.reader.line_num}: {exc}") from None
    return scheduler, rows


def cmd_compare(args: argparse.Namespace) -> int:
    by_scheduler: dict[str, dict[int, list[float]]] = {}
    seen: set[str] = set()
    for raw in args.dirs:
        outdir = Path(raw)
        # realpath, unlike Path.resolve, does not raise on a symlink loop
        real = os.path.realpath(outdir)
        if real in seen:
            print(f"error: {outdir}: named twice; compare counts each dir "
                  "once", file=sys.stderr)
            return EXIT_USAGE
        seen.add(real)
        try:
            scheduler, rows = _load_dir(outdir)
        except UnreadableOutput as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
        per_path = by_scheduler.setdefault(scheduler, {})
        for path_id, growth in rows:
            per_path.setdefault(path_id, []).append(growth)

    print("mean congestion-window growth per RTT (bytes)")
    means: dict[str, dict[int, float]] = {}
    for scheduler in PATH_SCHEDULERS:
        if scheduler not in by_scheduler:
            continue
        means[scheduler] = {}
        for path_id in sorted(by_scheduler[scheduler]):
            values = by_scheduler[scheduler][path_id]
            mean = sum(values) / len(values)
            means[scheduler][path_id] = mean
            print(f"  {scheduler:8s} path {path_id}: {mean:8.1f}  "
                  f"({len(values)} run(s))")

    ranked = list(means)
    if len(ranked) >= 2:
        verdict = "holds"
        path_ids = sorted(set.intersection(
            *(set(means[s]) for s in ranked)))
        if not path_ids:
            verdict = "no path has a growth figure under every scheduler"
        for path_id in path_ids:
            series = [means[s][path_id] for s in ranked]
            if any(a < b for a, b in zip(series, series[1:])):
                verdict = "violated"
        print(f"growth ordering ({' >= '.join(ranked)} per path): {verdict}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a usage error: argparse's own 2 means an
    invariant breach here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cwrsim",
        description="Deterministic two-path transport simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario", help="scenario file (key = value format)")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    sim.add_argument("--reps", type=int, default=1,
                     help="repetitions with seeds seed, seed+1, ...")
    sim.add_argument("--out", default="out", help="output directory")
    sim.set_defaults(fn=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="compare simulate output directories")
    cmp_.add_argument("dirs", nargs="+", help="output directories to compare")
    cmp_.set_defaults(fn=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
