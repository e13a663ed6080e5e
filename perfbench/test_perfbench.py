"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_times_on_a_nested_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("d", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("e", 5.0, 6.0, 3),
        ("e", 5.5, 7.0, 3),   # overlaps its sibling: the union [5, 7] counts once
        ("b", 8.5, 9.5, 3),   # runs past its parent: clipped to [8.5, 9]
        ("a", 20.0, 21.0, -1),
    ]
    self_s, total_s, calls = self_times(spans)
    assert self_s == pytest.approx({"a": 3.0 + 1.0, "b": 2.0 + 1.0, "c": 1.5, "d": 1.0, "e": 2.5})
    assert total_s == pytest.approx({"a": 11.0, "b": 4.0, "c": 4.0, "d": 1.0, "e": 2.5})
    assert calls == {"a": 2, "b": 2, "c": 1, "d": 1, "e": 2}


def test_wrapped_calls_nest_and_self_times_add_up():
    t = Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(inner(x)))
    with t.span("root"):
        assert outer(1) == 3
    spans = list(t.spans())
    assert [(n, p) for n, _, _, p in spans] == [
        ("root", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    self_s, total_s, calls = self_times(spans)
    assert calls == {"root": 1, "outer": 1, "inner": 2}
    assert sum(self_s.values()) == pytest.approx(total_s["root"])


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_verdict_gate_counts_missing_failed_and_unexpected_checks():
    calls = (("counts", 5, 5),)
    assert run.all_expected_ids(calls) == [
        "generator-count-n5", "relation-rank-n5", "syzygy-count-n5"]
    result = {"suites": [{"checks": {
        "generator-count-n5": "PASS",
        "relation-rank-n5": "SKIPPED_BUDGET",
        "stray-n5": "PASS",
    }}]}
    assert run.bad_checks(result, calls) == 3


def test_a_repetition_past_its_timeout_is_killed_and_reported(monkeypatch):
    monkeypatch.setattr(run, "REP_TIMEOUT_S", 0.05)
    assert run.run_child(run.workload_calls("t1-syzygy", smoke=False), 1, 0, False) is None


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_and_reports_every_metric(trace):
    result = run.run("base-n8", seed=3, seconds=0, trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else run.MIN_REPS) * 6
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert all(m["value"] > 0 for k, m in result["metrics"].items()
               if k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                        "groebner.buchberger.self_s", "linalg.eliminator_add.self_s"))


def _counts(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = {}
    for name in run.WORKLOADS:
        r = run.run_child(run.workload_calls(name, smoke=True), 1, 0, True, env=env)
        metrics = run.layer_metrics(r)
        out[name] = (run.exact_counts(r),
                     {k: v for k, v in metrics.items() if run.PER_LAYER[k][0] != "s"})
    return out


def test_exact_counters_repeat_across_runs_and_hash_seeds():
    first = _counts(0)
    assert first == _counts(0)
    assert first == _counts(1)
    # calls made only through by-name imports (versal's normal_form and
    # buchberger) are seen
    flat = first["flatness-n8"][1]
    assert flat["groebner.normal_form.calls"] > 0
    assert flat["groebner.buchberger.pairs_processed"] > 0
