"""One benchmark repetition, run in a fresh interpreter.

Imports ``versaldef.verify`` from the checkout's ``src`` (timed as
set-up, so every module-level cache starts cold), optionally installs
the tracer, runs the given suites through the public ``run_suite`` and
prints one JSON line: timings, peak RSS, each suite's check statuses and
the sha256 of its canonical report, and, when traced, per-layer self
times and exact counters.

    python3 perfbench/child.py --suites flatness:8:8 --seed 1 [--trace] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_suites(text: str):
    """"flatness:8:8,axes:6:6" -> [("flatness", 8, 8), ("axes", 6, 6)]."""
    out = []
    for item in text.split(","):
        name, lo, hi = item.split(":")
        out.append((name, int(lo), int(hi)))
    return out


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--suites", type=parse_suites, default=[],
                    help="suite:lo:hi,...; none only times the import")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here (.tsv.gz)")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    import versaldef.verify as verify
    setup_s = perf_counter() - t0

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer, install, self_times

        tracer = Tracer(rep=args.rep)
        install(tracer)
        span = tracer.span

    suites = []
    cpu0, w0 = _cpu(), perf_counter()
    for name, lo, hi in args.suites:
        with span(f"suite.{name}"):
            report = verify.run_suite(name, (lo, hi), seed=args.seed)
        text = report.to_json()
        suites.append({
            "suite": name,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "checks": {c.id: c.status for c in report.checks},
        })
    wall_s = perf_counter() - w0
    cpu_s = _cpu() - cpu0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "suites": suites,
    }
    if tracer is not None:
        self_s, total_s, calls = self_times(tracer.spans())
        out["spans"] = len(tracer.start)
        out["self_s"], out["total_s"], out["calls"] = self_s, total_s, calls
        out["counters"] = dict(tracer.counters)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
