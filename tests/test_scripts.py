"""The scripts under scripts/, loaded from their paths and run in-process."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def invariant_table():
    return _load("invariant_table")


@pytest.fixture(scope="module")
def run_suites():
    return _load("run_suites")


def test_invariant_table_computes_t1_and_t2(invariant_table, capsys):
    assert invariant_table.main(["--upto", "6"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [4, 5, 6]
    assert [int(r[3]) for r in rows] == [6, 10, 15]
    assert [int(r[4]) for r in rows] == [0, 5, 14]


@pytest.mark.parametrize("formula, col", [
    ("minimal_generator_formula", "gens"),
    ("linear_relation_formula", "rel rank"),
])
def test_invariant_table_fails_when_a_column_disagrees_with_its_formula(
    invariant_table, monkeypatch, capsys, formula, col
):
    monkeypatch.setattr(invariant_table, formula, lambda n: -1)
    assert invariant_table.main(["--upto", "5", "--skip-geometry"]) == 1
    err = capsys.readouterr().err
    assert f"n=4: {col} is" in err and f"n=5: {col} is" in err


def test_run_suites_writes_and_diffs_reports(run_suites, tmp_path, capsys):
    first = tmp_path / "first"
    assert run_suites.main(["axes", "--out-dir", str(first)]) == 0
    report = json.loads((first / "axes.json").read_text())
    assert report["suite"] == "axes"
    second = tmp_path / "second"
    assert run_suites.main(
        ["axes", "--out-dir", str(second), "--baseline", str(first)]
    ) == 0
    assert (second / "axes.json").read_text() == (first / "axes.json").read_text()
    assert "regression" not in capsys.readouterr().out


def test_run_suites_fails_when_a_passing_baseline_check_is_missing(run_suites, tmp_path, capsys):
    first = tmp_path / "first"
    assert run_suites.main(["axes", "--out-dir", str(first)]) == 0
    path = first / "axes.json"
    report = json.loads(path.read_text())
    report["checks"].append(dict(report["checks"][0], id="vanished", status="PASS"))
    path.write_text(json.dumps(report))
    assert run_suites.main(
        ["axes", "--out-dir", str(tmp_path / "second"), "--baseline", str(first)]
    ) == 1
    out = capsys.readouterr().out
    assert "removed check vanished" in out
    assert "1 regression(s) against baseline" in out


@pytest.mark.parametrize("flag", [["--spair-budget", "0"], ["--term-budget", "-1"]])
def test_run_suites_rejects_a_bad_budget_as_a_usage_error(run_suites, tmp_path, flag):
    out = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        run_suites.main(["axes", "--out-dir", str(out), *flag])
    assert exc.value.code == 2
    assert not out.exists()


def test_run_suites_rejects_a_missing_baseline_before_any_suite(run_suites, tmp_path, capsys):
    out = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        run_suites.main(["axes", "--out-dir", str(out), "--baseline", str(tmp_path / "none")])
    assert exc.value.code == 2
    assert "not a directory" in capsys.readouterr().err
    assert not out.exists()


def test_run_suites_rejects_an_out_dir_that_is_a_file(run_suites, tmp_path, capsys):
    out = tmp_path / "reports"
    out.write_text("not a directory")
    with pytest.raises(SystemExit) as exc:
        run_suites.main(["axes", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "not a directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory"


def test_run_suites_notes_a_suite_missing_from_the_baseline(run_suites, tmp_path, capsys):
    baseline = tmp_path / "baseline"
    baseline.mkdir()
    assert run_suites.main(
        ["axes", "--out-dir", str(tmp_path / "reports"), "--baseline", str(baseline)]
    ) == 0
    assert "no baseline report" in capsys.readouterr().out


def test_bench_grid_rejects_an_unknown_suite_before_any_cell(tmp_path, monkeypatch):
    bench_grid = _load("bench_grid")
    monkeypatch.setattr(bench_grid, "OUT_DIR", tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_grid.main(["--suite", "nosuch", "--from", "4", "--to", "4", "--label", "smoke"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label", ["", "../../nonexist/x", "a/b"])
def test_bench_grid_rejects_a_label_with_a_path_separator_before_any_cell(
    tmp_path, monkeypatch, label
):
    bench_grid = _load("bench_grid")
    monkeypatch.setattr(bench_grid, "OUT_DIR", tmp_path)
    cells = []
    monkeypatch.setattr(bench_grid, "run_cell", lambda *args: cells.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_grid.main(["--suite", "identities", "--from", "4", "--to", "4", "--label", label])
    assert exc.value.code == 2
    assert cells == []
    assert list(tmp_path.iterdir()) == []


def _record_pins(monkeypatch):
    """Record the CPU masks bench_grid asks for instead of setting them.

    Pinned to the highest CPU of its mask, the test process and its
    cells would run only as fast as that one CPU, which every other
    process pinned the same way on the host shares; the grid's
    bookkeeping does not depend on the pin, only its timings do."""
    pins = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append((pid, set(cpus))))
    return pins


def test_bench_grid_merges_cells_into_the_bench_file(tmp_path, monkeypatch):
    bench_grid = _load("bench_grid")
    monkeypatch.setattr(bench_grid, "OUT_DIR", tmp_path)
    path = tmp_path / "BENCH_smoke.json"
    path.write_text(json.dumps({"label": "smoke", "grid": {"cells": [
        {"suite": "identities", "n": 4, "side": "change", "wall_s": 99.0},
        {"suite": "identities", "n": 4, "side": "parent", "wall_s": 98.0},
    ]}}))
    pins = _record_pins(monkeypatch)
    assert bench_grid.main(
        ["--suite", "identities", "--from", "4", "--to", "5", "--label", "smoke"]
    ) == 0
    assert pins == [(0, {max(os.sched_getaffinity(0))})]
    data = json.loads(path.read_text())
    assert data["label"] == "smoke"
    cells = {(c["n"], c["side"]): c for c in data["grid"]["cells"]}
    assert set(cells) == {(4, "change"), (5, "change"), (4, "parent")}
    assert cells[(4, "parent")]["wall_s"] == 98.0
    for n in (4, 5):
        cell = cells[(n, "change")]
        assert cell["ok"] and not cell["timed_out"]
        assert 0 < cell["wall_s"] < 99 and cell["wall_ref"] > 0 and cell["peak_rss_mb"] > 0
        refs = (cell["ref_before_s"], cell["ref_after_s"])
        assert all(r > 0 for r in refs)
        assert cell["wall_ref"] == pytest.approx(cell["wall_s"] / (sum(refs) / 2))


def test_bench_grid_repeats_cells_and_alternates_sides(tmp_path, monkeypatch):
    bench_grid = _load("bench_grid")
    monkeypatch.setattr(bench_grid, "OUT_DIR", tmp_path)
    order = []
    run_cell = bench_grid.run_cell

    def recording_run_cell(src, suite, n):
        order.append(src)
        return run_cell(src, suite, n)

    monkeypatch.setattr(bench_grid, "run_cell", recording_run_cell)
    src = SCRIPTS.parent / "src"
    other = tmp_path / "src"
    other.symlink_to(src, target_is_directory=True)
    pins = _record_pins(monkeypatch)
    assert bench_grid.main(
        ["--suite", "axes", "--from", "4", "--to", "4", "--label", "smoke", "--repeats", "2",
         "--src", str(src), "--side", "one", "--src", str(other), "--side", "two"]
    ) == 0
    assert pins == [(0, {max(os.sched_getaffinity(0))})]
    assert order == [src.resolve(), other.resolve(), other.resolve(), src.resolve()]
    cells = json.loads((tmp_path / "BENCH_smoke.json").read_text())["grid"]["cells"]
    assert [(c["suite"], c["n"], c["side"]) for c in cells] == [("axes", 4, "one"), ("axes", 4, "two")]
    for cell in cells:
        assert cell["ok"] and len(cell["repeats"]) == 2
        for key in ("wall_s", "wall_ref", "ref_before_s", "ref_after_s"):
            values = [r[key] for r in cell["repeats"]]
            assert all(v > 0 for v in values)
            assert cell[key] == sum(values) / 2


def test_count_code_lines_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    count_code_lines = _load("count_code_lines")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "one.py").write_text("x = 1\n")
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # code with a comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self, a,\n"
        "          b):\n"
        "        '''Function\n"
        "        docstring.'''\n"
        '        return """not a\n'
        'docstring"""\n'
    )
    assert count_code_lines.count(tmp_path) == {"mod.py": 6, "sub/one.py": 1}
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["7", "total"]


@pytest.mark.parametrize("path", ["no/such/dir", "mod.py"])
def test_count_code_lines_rejects_a_path_that_is_not_a_directory(tmp_path, capsys, path):
    count_code_lines = _load("count_code_lines")
    (tmp_path / "mod.py").write_text("x = 1\n")
    with pytest.raises(SystemExit) as exc:
        count_code_lines.main([str(tmp_path / path)])
    assert exc.value.code == 2
    assert "not a directory" in capsys.readouterr().err
