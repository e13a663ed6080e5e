#!/usr/bin/env python3
"""Headline grid: the wall time of run_suite(suite, (n, n)), n = A..B.

Each cell runs in a fresh interpreter pinned to one CPU and capped at
CAP_S seconds; the walk stops at the first n that fails to finish.  A
cell records the wall time of the call, the peak RSS of its process,
whether every check passed, and wall_ref: the wall time divided by the
mean of ``perfbench.run.reference_loop`` timed just before and just
after it, which cancels drift in the host's speed.  The cells are
merged into the ``grid`` section of BENCH_<label>.json at the repository
root (created if missing): a cell replaces the one with the same suite,
n and side, and every other section of the file is kept.

    python scripts/bench_grid.py --suite flatness --from 11 --to 13 --label packed_monomials
    python scripts/bench_grid.py --suite flatness --from 11 --to 13 --label packed_monomials \\
        --src ../parent/src --side parent
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT
CAP_S = 60.0

sys.path.insert(0, str(ROOT))

from perfbench.run import reference_loop  # noqa: E402

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
    ref_before = reference_loop()
    cell = {"suite": suite, "n": n, "wall_s": None, "wall_ref": None,
            "peak_rss_mb": None, "ok": False, "timed_out": False}
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
    cell["wall_ref"] = cell["wall_s"] / ((ref_before + reference_loop()) / 2)
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
    ap.add_argument("--suite", required=True)
    ap.add_argument("--from", dest="lo", type=int, required=True)
    ap.add_argument("--to", dest="hi", type=int, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the versaldef source tree to run (default: this checkout's)")
    ap.add_argument("--side", default="change",
                    help="name of the source tree in the cells, e.g. parent or change")
    args = ap.parse_args(argv)
    if args.lo < 4 or args.hi < args.lo:
        ap.error(f"need 4 <= --from <= --to, got {args.lo}, {args.hi}")
    if not (args.src / "versaldef" / "verify.py").is_file():
        ap.error(f"no versaldef sources under {args.src}")
    # the reference loop and the cells (which inherit the mask) share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cells = []
    for n in range(args.lo, args.hi + 1):
        cell = dict(run_cell(args.src.resolve(), args.suite, n), side=args.side)
        cells.append(cell)
        shown = "-" if cell["wall_s"] is None else f"{cell['wall_s']:.2f} s"
        print(f"{args.suite} n={n} {args.side}: {shown}, ok={cell['ok']}", flush=True)
        if cell["wall_s"] is None:
            break
    merge(OUT_DIR / f"BENCH_{args.label}.json", cells)
    # a cell past the cap ends the walk; any other cell must pass
    return 0 if all(c["ok"] or c["timed_out"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
