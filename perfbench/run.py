#!/usr/bin/env python3
"""versaldef benchmark: cold-process verification workloads.

A closed loop with one caller: each repetition runs the workload's
``versaldef.verify.run_suite`` calls in a fresh interpreter
(``child.py``), so every module-level cache starts cold, exactly as for
one ``versaldef verify`` invocation.  The next repetition starts when the
previous one has ended; repetitions continue until ``--seconds`` is
used up (at least ``MIN_REPS``).

    python3 perfbench/run.py --workload flatness-n8 --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics:

- wall_ref: wall time of the ``run_suite`` calls (and the canonical JSON
  of their reports), import excluded, in units of ``reference_loop``;
- cpu_ref: the child's user+sys CPU time over the same span, in the same
  units;
- setup_s: seconds to ``import versaldef.verify`` in a fresh interpreter,
  the median over ``SETUP_PROBES`` import-only processes and every
  repetition;
- peak_rss_mb: the median peak RSS of the repetitions.

wall_ref and cpu_ref are medians over the untraced repetitions of the
repetition's time divided by the mean of the reference loop timed just
before and just after it, with this process and its children pinned to
one CPU.  The reference is a fixed pure-Python loop that never touches
versaldef, so any change in versaldef's speed moves the ratio in full,
while the host's speed cancels: on a shared 2-vCPU Xeon VM the speed of
each vCPU drifted by up to 1.6x over seconds to minutes.  Over 32 s
windows of 5- to 8-minute series of repetitions, the spread (IQR/median)
of the median wall time was 0.24 (t1-syzygy) and 0.18 (identities-n9),
of the fastest 0.19 and 0.24, and of the median ratio 0.04 and 0.05.
The raw medians are printed on the line before the result.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (``tracer.py``): self and total
times are medians over traced repetitions, counts must repeat exactly,
and trace.overhead_s is the median traced minus the median untraced
wall time (it can read below zero when host noise exceeds the overhead).
The spans are written to ``perfbench/out/spans-<workload>.tsv.gz``.
``--smoke`` runs the same suites at n = 5/6 in a few seconds.

Every repetition must return each expected check id with status PASS
(anything else, and every check of a repetition that crashed or hit
``REP_TIMEOUT_S``, counts as failed), and the sha256 of each suite's
canonical report must be the same in every repetition.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

# (suite, lo, hi) calls per workload; why each was chosen is recorded in
# BENCHMARK.json
WORKLOADS: Dict[str, Tuple[Tuple[str, int, int], ...]] = {
    "flatness-n8": (("flatness", 8, 8),),
    "base-n8": (("base-geometry", 8, 8), ("induction", 8, 8), ("axes", 6, 6)),
    "t1-syzygy": (("t1t2", 8, 8), ("counts", 5, 5)),
    "identities-n9": (("identities", 9, 9),),
}
SMOKE_N = {"flatness": 6, "base-geometry": 6, "induction": 6, "axes": 5,
           "t1t2": 6, "counts": 5, "identities": 6}

MIN_REPS = 3          # untraced repetitions per timed run
REP_TIMEOUT_S = 60.0  # per repetition; the slowest workload's median is ~5 s
SETUP_PROBES = 5      # import-only processes per run, besides the repetitions
REFERENCE_STEPS = 30000

# per-layer metrics: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {}


def _layer(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER[name] = (unit, better)


for _n in ("poly.mul", "poly.addsub", "poly.substitute", "groebner.normal_form",
           "groebner.buchberger", "groebner.syzygies", "linalg.eliminator_add",
           "hilbert.hilbert_data", "versal.family_generator"):
    _layer(f"{_n}.calls", "count")
    _layer(f"{_n}.self_s", "s")
for _n in ("groebner.ideal_equal", "groebner.eliminate"):
    _layer(f"{_n}.calls", "count")
    _layer(f"{_n}.total_s", "s")
for _n in ("groebner.normal_form.terms_in", "groebner.normal_form.terms_out",
           "groebner.buchberger.pairs_processed", "groebner.buchberger.zero_reductions",
           "groebner.buchberger.basis_size_raw", "groebner.syzygies.vectors",
           "linalg.eliminator_add.rank_gains"):
    _layer(_n, "count")
_layer("groebner.buchberger.zero_reduction_share", "ratio")
_layer("linalg.eliminator_add.rank_gain_share", "ratio", "higher")
for _n in ("t1_compute", "verify_flatness", "base_equals_total",
           "axes_family_report", "span_rank", "identities"):
    _layer(f"versal.{_n}.self_s", "s")
for _s in sorted({s for calls in WORKLOADS.values() for s, _, _ in calls}):
    _layer(f"verify.run_suite.{_s}.total_s", "s")
_layer("verify.run_suite.self_s", "s")
_layer("report.to_json.self_s", "s")
_layer("trace.overhead_s", "s")

END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def expected_ids(suite: str, n: int) -> List[str]:
    """Check ids ``run_suite(suite, (n, n))`` must report."""
    ids = {
        "flatness": ["flatness"],
        "base-geometry": ["base-size", "base-dimension", "base-multiplicity"],
        "induction": ["induction"] if n >= 5 else [],
        "axes": ["axes-family", "wedge-straightening"],
        "t1t2": ["t1-dimension", "t1-degree-minus-two", "t1-basis", "t2-dimension"],
        "counts": ["generator-count", "relation-rank"] + (["syzygy-count"] if n in (4, 5) else []),
        "identities": ["phi-symmetry", "quadric-symmetry", "cocycle", "family-expanded",
                       "family-aux-index"] + (["four-term"] if n >= 6 else []),
    }[suite]
    out = [f"{i}-n{n}" for i in ids]
    if suite == "base-geometry" and n == 5:
        out += ["base-h-vector-n5", "base-pfaffians-n5"]
    if suite == "counts" and n == 4:
        out.append("nice-presentation-n4")
    return out


def workload_calls(name: str, smoke: bool) -> Tuple[Tuple[str, int, int], ...]:
    calls = WORKLOADS[name]
    if smoke:
        calls = tuple((s, SMOKE_N[s], SMOKE_N[s]) for s, _, _ in calls)
    return calls


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop shaped like the workloads'
    inner step: Fraction products stored into a dict that grows to
    REFERENCE_STEPS keys, so it allocates and misses cache as they do.
    (A loop over a 97-key dict tracked t1-syzygy as well but
    identities-n9 worse, a 20k-key dict or a sparse-row update no
    better.)"""
    acc: Dict[int, Fraction] = {}
    x = Fraction(1, 3)
    t0 = perf_counter()
    for i in range(REFERENCE_STEPS):
        k = (i * 7919) % 100003
        acc[k] = acc.get(k, 0) + x * (i % 7 + 1)
    return perf_counter() - t0


def run_child(calls: Sequence[Tuple[str, int, int]], seed: int, rep: int,
              trace: bool, spans: Optional[str] = None,
              env: Optional[dict] = None) -> Optional[dict]:
    """One repetition in a fresh interpreter; None if it crashed or
    timed out (the child is killed and reaped by ``subprocess.run``)."""
    cmd = [sys.executable, CHILD, "--seed", str(seed), "--rep", str(rep)]
    if calls:
        cmd += ["--suites", ",".join(f"{s}:{lo}:{hi}" for s, lo, hi in calls)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print(f"rep {rep}: timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"rep {rep}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def all_expected_ids(calls: Sequence[Tuple[str, int, int]]) -> List[str]:
    return [i for s, lo, hi in calls for n in range(lo, hi + 1) for i in expected_ids(s, n)]


def bad_checks(result: dict, calls: Sequence[Tuple[str, int, int]]) -> int:
    """Expected check ids that are missing or not PASS, plus unexpected ids."""
    got: Dict[str, str] = {}
    for s in result["suites"]:
        got.update(s["checks"])
    expected = all_expected_ids(calls)
    bad = sum(1 for i in expected if got.get(i) != "PASS")
    return bad + len(set(got) - set(expected))


def layer_metrics(result: dict) -> Dict[str, float]:
    """Per-layer values of one traced repetition (without trace.overhead_s)."""
    self_s, total_s, calls, ctr = (result["self_s"], result["total_s"],
                                   result["calls"], result["counters"])
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name.startswith("verify.run_suite.") and field == "total_s":
            out[name] = total_s.get("suite." + head[len("verify.run_suite."):], 0.0)
        elif field == "calls":
            out[name] = calls.get(head, 0)
        elif field == "self_s":
            out[name] = self_s.get(head, 0.0)
        elif field == "total_s":
            out[name] = total_s.get(head, 0.0)
        elif field not in ("zero_reduction_share", "rank_gain_share", "overhead_s"):
            out[name] = ctr.get(name, 0)
    pairs = out["groebner.buchberger.pairs_processed"]
    out["groebner.buchberger.zero_reduction_share"] = (
        out["groebner.buchberger.zero_reductions"] / pairs if pairs else 0.0)
    adds = out["linalg.eliminator_add.calls"]
    out["linalg.eliminator_add.rank_gain_share"] = (
        out["linalg.eliminator_add.rank_gains"] / adds if adds else 0.0)
    return out


def exact_counts(result: dict) -> dict:
    """The values of a traced repetition that must repeat exactly."""
    return {"calls": result["calls"], "counters": result["counters"], "spans": result["spans"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> Optional[dict]:
    """One benchmark run; the result object, or None if no repetition of
    each kind completed."""
    calls = workload_calls(workload, smoke)
    per_rep = len(all_expected_ids(calls))
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}.tsv.gz")
        if os.path.exists(spans_path):
            os.remove(spans_path)

    # the first import compiles the package's bytecode; it is not timed
    if run_child((), seed, -1, False) is None:
        return None
    setups: List[float] = []
    for _ in range(SETUP_PROBES):
        probe = run_child((), seed, -1, False)
        if probe is not None:
            setups.append(probe["setup_s"])

    plain: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    durations: List[float] = []
    min_reps = 2 if trace else MIN_REPS  # a traced run needs one of each kind
    ref = reference_loop()
    t0 = perf_counter()
    rep = 0
    while True:
        is_traced = trace and rep % 2 == 1
        s0 = perf_counter()
        r = run_child(calls, seed, rep, is_traced, spans_path if is_traced else None)
        ref_after = reference_loop()
        durations.append(perf_counter() - s0)
        attempted += per_rep
        if r is None:
            failed += per_rep
        else:
            failed += bad_checks(r, calls)
            r["ref_s"] = (ref + ref_after) / 2
            (traced if is_traced else plain).append(r)
        ref = ref_after
        rep += 1
        if rep >= min_reps and perf_counter() - t0 + statistics.median(durations) > seconds:
            break

    if not plain or (trace and not traced):
        return None
    done = plain + traced
    digests = {s["suite"]: s["sha256"] for s in done[0]["suites"]}
    stable = all({s["suite"]: s["sha256"] for s in r["suites"]} == digests for r in done)

    def med(key: str) -> float:
        return statistics.median(r[key] for r in plain)

    print(f"workload {workload} seed {seed}: {len(plain)} untraced, {len(traced)} traced "
          f"repetitions in {perf_counter() - t0:.1f} s; untraced medians: wall_s "
          f"{med('wall_s'):.4f}, cpu_s {med('cpu_s'):.4f}, reference loop {med('ref_s'):.4f} s")
    print("report sha256 " + json.dumps(digests, sort_keys=True))
    if not stable:
        print("report digests differ between repetitions", file=sys.stderr)

    setups += [r["setup_s"] for r in done]
    if not trace:
        metrics = {
            "wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in plain),
            "cpu_ref": statistics.median(r["cpu_s"] / r["ref_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    else:
        exact = exact_counts(traced[0])
        if any(exact_counts(r) != exact for r in traced[1:]):
            print("exact counters differ between traced repetitions", file=sys.stderr)
            stable = False
        # counts and ratios are exact (checked above); times take the median
        per = [layer_metrics(r) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per) if PER_LAYER[k][0] == "s" else v
                   for k, v in per[0].items()}
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - med("wall_s")
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    return {
        "correct": failed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="the same suites at n = 5/6")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "versaldef", "verify.py")):
        print(f"no versaldef sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # the reference loop here and the children (which inherit the mask)
    # share one vCPU, so the reference sees the load the children see
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if result is None:
        print("no repetition completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
