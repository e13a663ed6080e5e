#!/usr/bin/env python3
"""Headline grid: the wall time of run_suite(suite, (n, n)), n = A..B.

Each cell runs in a fresh interpreter pinned to one CPU and capped at
CAP_S seconds; the walk stops at the first n that fails to finish.  A
cell records the wall time of the call, the peak RSS of its process,
whether every check passed, and wall_ref: the wall time divided by the
mean of ``perfbench.run.reference_loop`` timed just before and just
after it (kept as ref_before_s and ref_after_s, so drift of the host's
speed during the cell shows as their difference).  The cells are
merged into the ``grid`` section of BENCH_<label>.json at the repository
root (created if missing): a cell replaces the one with the same suite,
n and side, and every other section of the file is kept.

With ``--repeats K`` each cell is run K times (stopping at the first run
that does not finish); a cell of several runs keeps each run's wall_s,
wall_ref, ref_before_s and ref_after_s under "repeats", and its top-level
values of these and of peak_rss_mb are their medians.
``--src``/``--side`` may be given several times to time several source
trees: at each n their runs alternate, the order of the sides flipping
from one round of runs to the next, and a side that fails to finish an
n is not run at larger n.

    python scripts/bench_grid.py --suite flatness --from 11 --to 13 --label packed_monomials
    python scripts/bench_grid.py --suite flatness --from 11 --to 13 --label packed_monomials \\
        --src ../parent/src --side parent --src src --side change --repeats 3
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT
CAP_S = 60.0
RUN_TIMINGS = ("wall_s", "wall_ref", "ref_before_s", "ref_after_s")

sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench.run import reference_loop  # noqa: E402
from versaldef.verify import SUITES  # noqa: E402

# the cell's process: prints {"wall_s", "peak_rss_mb", "ok"} as one JSON line
CELL = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from versaldef.verify import run_suite
n = int(sys.argv[3])
t0 = time.perf_counter()
report = run_suite(sys.argv[2], (n, n))
wall_s = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "ok": all(c.status == "PASS" for c in report.checks),
}))
"""


def run_cell(src: Path, suite: str, n: int) -> dict:
    """One cell in a fresh interpreter; its wall_s is None if it timed
    out after CAP_S or crashed."""
    cell = {"suite": suite, "n": n, "wall_s": None, "wall_ref": None,
            "peak_rss_mb": None, "ok": False, "timed_out": False,
            "ref_before_s": reference_loop(), "ref_after_s": None}
    try:
        proc = subprocess.run([sys.executable, "-c", CELL, str(src), suite, str(n)],
                              capture_output=True, text=True, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        cell["timed_out"] = True
        return cell
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        cell["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return cell
    cell.update(json.loads(lines[-1]))
    cell["ref_after_s"] = reference_loop()
    cell["wall_ref"] = cell["wall_s"] / ((cell["ref_before_s"] + cell["ref_after_s"]) / 2)
    return cell


def combine(runs: list) -> dict:
    """The cell of one side at one n from its runs: the last run, and if
    there were several, each run's timings under "repeats" and, when
    every run finished, the medians."""
    cell = dict(runs[-1])
    if len(runs) > 1:
        cell["repeats"] = [{k: r[k] for k in RUN_TIMINGS} for r in runs]
        if cell["wall_s"] is not None:
            for key in (*RUN_TIMINGS, "peak_rss_mb"):
                cell[key] = statistics.median(r[key] for r in runs)
            cell["ok"] = all(r["ok"] for r in runs)
    return cell


def merge(path: Path, cells: list) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    grid = data.setdefault("grid", {
        "command": "run_suite(suite, (n, n)) in a fresh python3 process pinned to one CPU, "
                   f"capped at {CAP_S:g} s; wall time of the call, peak RSS of the process",
        "cells": [],
    })
    fresh = {(c["suite"], c["n"], c["side"]) for c in cells}
    grid["cells"] = [c for c in grid["cells"] if (c["suite"], c["n"], c["side"]) not in fresh]
    grid["cells"] += cells
    grid["cells"].sort(key=lambda c: (c["suite"], c["side"], c["n"]))
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--suite", required=True, choices=SUITES)
    ap.add_argument("--from", dest="lo", type=int, required=True)
    ap.add_argument("--to", dest="hi", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, action="append",
                    help="a versaldef source tree to run, repeatable (default: this checkout's)")
    ap.add_argument("--side", action="append",
                    help="name of the matching --src tree in the cells, e.g. parent or change "
                         "(default: change)")
    ap.add_argument("--repeats", type=int, default=1, help="runs per cell (default: 1)")
    args = ap.parse_args(argv)
    if args.lo < 4 or args.hi < args.lo:
        ap.error(f"need 4 <= --from <= --to, got {args.lo}, {args.hi}")
    if args.repeats < 1:
        ap.error(f"need --repeats >= 1, got {args.repeats}")
    if not args.label or os.sep in args.label:
        ap.error(f"--label must be a nonempty name without a path separator, got {args.label!r}")
    srcs = args.src or [ROOT / "src"]
    sides = args.side or ["change"]
    if len(srcs) != len(sides) or len(set(sides)) != len(sides):
        ap.error("give one distinct --side per --src")
    for src in srcs:
        if not (src / "versaldef" / "verify.py").is_file():
            ap.error(f"no versaldef sources under {src}")
    # the reference loop and the cells (which inherit the mask) share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    alive = {side: src.resolve() for side, src in zip(sides, srcs)}
    cells = []
    flip = False
    for n in range(args.lo, args.hi + 1):
        runs = {side: [] for side in alive}
        for _ in range(args.repeats):
            for side in reversed(runs) if flip else runs:
                if not runs[side] or runs[side][-1]["wall_s"] is not None:
                    runs[side].append(run_cell(alive[side], args.suite, n))
            flip = not flip
        for side, side_runs in runs.items():
            cell = dict(combine(side_runs), side=side)
            cells.append(cell)
            shown = "-" if cell["wall_s"] is None else f"{cell['wall_s']:.2f} s"
            print(f"{args.suite} n={n} {side}: {shown}, ok={cell['ok']}", flush=True)
            if cell["wall_s"] is None:
                del alive[side]
        if not alive:
            break
    merge(OUT_DIR / f"BENCH_{args.label}.json", cells)
    # a cell past the cap ends the walk; any other cell must pass
    return 0 if all(c["ok"] or c["timed_out"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
