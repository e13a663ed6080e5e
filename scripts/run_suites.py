#!/usr/bin/env python3
"""Run verification suites and persist their canonical JSON reports.

Writes one report per suite into the output directory and prints a
summary table.  With --baseline pointing at a directory produced by an
earlier run, status changes are diffed and any regression (a check
moving away from PASS, or a check that passed there and is missing
now) fails the run.  A --baseline that is not a directory is a usage
error, and so is an --out-dir that exists and is not a directory; a
suite with no report in it is noted and not diffed.

Typical use:

    python scripts/run_suites.py --out-dir reports/
    python scripts/run_suites.py --out-dir reports.new/ --baseline reports/
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from versaldef.groebner import Budget, DEFAULT_BUDGET
from versaldef.report import Report, compare_reports
from versaldef.verify import DEFAULT_RANGES, SUITES, run_suite


@dataclass(frozen=True)
class RunConfig:
    suites: Tuple[str, ...]
    out_dir: Path
    baseline: Optional[Path]
    budget: Budget
    seed: Optional[int]
    include_timing: bool


def parse_args(argv=None) -> RunConfig:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "suites", nargs="*", default=[],
        help=f"suites to run (default: all of {', '.join(SUITES)})",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("reports"))
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="directory with reports from a previous run to diff against",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="adds a reproducible random parameter sample")
    parser.add_argument("--spair-budget", type=int, default=DEFAULT_BUDGET.max_pairs)
    parser.add_argument("--term-budget", type=int, default=DEFAULT_BUDGET.max_terms)
    parser.add_argument("--include-timing", action="store_true",
                        help="keep per-check timings in the JSON (breaks byte-stability)")
    args = parser.parse_args(argv)

    suites = tuple(args.suites) if args.suites else tuple(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        parser.error(f"unknown suites: {', '.join(unknown)}")
    if args.baseline is not None and not args.baseline.is_dir():
        parser.error(f"--baseline {args.baseline} is not a directory")
    if args.out_dir.exists() and not args.out_dir.is_dir():
        parser.error(f"--out-dir {args.out_dir} is not a directory")
    try:
        budget = Budget(max_pairs=args.spair_budget, max_terms=args.term_budget)
    except ValueError as exc:
        parser.error(str(exc))
    return RunConfig(
        suites=suites,
        out_dir=args.out_dir,
        baseline=args.baseline,
        budget=budget,
        seed=args.seed,
        include_timing=args.include_timing,
    )


def main(argv=None) -> int:
    config = parse_args(argv)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    failed = regressed = skipped = 0
    for name in config.suites:
        rep = run_suite(name, DEFAULT_RANGES[name], config.budget, seed=config.seed)
        path = config.out_dir / f"{name}.json"
        path.write_text(rep.to_json(include_timing=config.include_timing))
        s = rep.summary
        failed += s["fail"]
        skipped += s["skipped"]
        print(
            f"{name:14s} {s['pass']:3d} passed {s['fail']:3d} failed "
            f"{s['skipped']:3d} skipped  -> {path}"
        )

        if config.baseline is not None:
            base_path = config.baseline / f"{name}.json"
            if not base_path.exists():
                print(f"{'':14s} no baseline report, skipping diff")
                continue
            diff = compare_reports(Report.from_json(base_path.read_text()), rep)
            for cid, old, new in diff.changed:
                print(f"{'':14s} {cid}: {old} -> {new}")
            for cid in diff.added:
                print(f"{'':14s} new check {cid}")
            for cid in diff.removed:
                print(f"{'':14s} removed check {cid}")
            regressed += len(diff.regressions) + len(diff.lost)

    if regressed:
        print(f"{regressed} regression(s) against baseline")
        return 1
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    if skipped:
        print(f"{skipped} check(s) skipped on budget")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
