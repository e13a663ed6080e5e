"""End-to-end command line behavior through main(argv): output
formats, exit codes, config files, and error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import versaldef
from versaldef import versal
from versaldef.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# emit


def test_emit_curve_lines_plain(capsys):
    code, out, err = run(capsys, "emit", "curve", "L", "5", "--presentation", "g")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 10
    for line in lines:
        assert line.endswith(" - y")
        assert "*" in line


def test_emit_curve_lines_minimal_presentation(capsys):
    code, out, _ = run(capsys, "emit", "curve", "L", "4", "--presentation", "f")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert all("y" not in line for line in lines)
    assert all("z1*z2" in line for line in lines)


def test_emit_curve_elliptic(capsys):
    code, out, _ = run(capsys, "emit", "curve", "elliptic", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_emit_base_singular(capsys):
    code, out, _ = run(
        capsys, "emit", "base", "--n", "5", "--minimal", "--format", "singular"
    )
    assert code == 0
    assert out.startswith("//")
    ring_line = next(l for l in out.split("\n") if l.startswith("ring r = 0"))
    assert ring_line.count("a_") == 10
    assert ring_line.endswith("dp;")
    assert "ideal I =" in out
    body = out.split("ideal I =", 1)[1]
    assert body.count(",") + 1 >= 5  # five quadrics separated by commas


def test_emit_curve_macaulay2_weighted(capsys):
    code, out, _ = run(capsys, "emit", "curve", "L", "4", "--format", "macaulay2")
    assert code == 0
    assert out.startswith("--")
    assert "R = QQ[z_1, z_2, z_3, z_4, y, Degrees => {1,1,1,1,2}];" in out
    assert "I = ideal(" in out
    assert "z_1*z_2 - y" in out


def test_emit_curve_singular_weighted_order(capsys):
    code, out, _ = run(capsys, "emit", "curve", "L", "4", "--format", "singular")
    assert code == 0
    assert "wp(1,1,1,1,2)" in out
    assert "z(1)*z(2) - y" in out


def test_emit_family_json(capsys):
    code, out, _ = run(capsys, "emit", "family", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert len(payload["total"]) == 12
    assert payload["base"] == []
    assert len(payload["parameters"]) == 6


def test_emit_curve_rejects_small_n(capsys):
    code, _, err = run(capsys, "emit", "curve", "L", "2")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# invariants


def test_invariants_lines(capsys):
    code, out, _ = run(capsys, "invariants", "L", "6")
    assert code == 0
    assert out == "delta 6, r 6, mu 7, g 1, dimT1 10, dimT2 5\n"


def test_invariants_elliptic_json(capsys):
    code, out, _ = run(capsys, "invariants", "elliptic", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == 7
    assert data["r"] == 1
    assert data["mult"] == 7


def test_invariants_rational(capsys):
    code, out, _ = run(capsys, "invariants", "rational", "5")
    assert code == 0
    assert "delta 4" in out
    assert "mult 5" in out


def test_invariants_rejects_too_few_lines(capsys):
    code, _, err = run(capsys, "invariants", "L", "3")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--n", "4", "4")
    assert code == 0
    assert "PASS" in out
    assert "suite identities:" in out
    assert "0 failed" in out


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(versal, "phi_symmetry_failures", lambda n: [(1, 2, 3)])
    code, out, _ = run(capsys, "verify", "identities", "--n", "4", "4")
    assert code == 1
    assert "FAIL" in out
    assert "(1, 2, 3)" in out


def test_verify_budget_exit_three(capsys):
    code, out, _ = run(
        capsys, "verify", "base-geometry", "--n", "5", "5",
        "--spair-budget", "1", "--term-budget", "1",
    )
    assert code == 3
    assert "SKIPPED_BUDGET" in out


def test_verify_t1t2_budget_exit_three(capsys):
    """A one-pair budget leaves t1t2 whole: it runs no Groebner basis, so
    it exits 0 (exit 3 is test_verify_budget_exit_three's)."""
    code, out, _ = run(capsys, "verify", "t1t2", "--n", "5", "5", "--spair-budget", "1")
    assert code == 0
    assert "SKIPPED_BUDGET" not in out


def test_verify_writes_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "identities", "--n", "4", "4", "--out", str(path)
    )
    assert code == 0
    assert "suite identities:" in out  # progress still on stdout
    payload = json.loads(path.read_text())
    assert payload["suite"] == "identities"
    assert payload["summary"]["fail"] == 0
    assert all(c["ms"] == 0 for c in payload["checks"])


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):  # argparse choice failure
        main(["verify", "nonsense"])


# ---------------------------------------------------------------------------
# groebner


def test_groebner_from_file(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("# three pair quadrics\nz1*z2 - y\nz1*z3 - y\nz2*z3 - y\n")
    code, out, _ = run(capsys, "groebner", str(path))
    assert code == 0
    assert out.strip()


def test_groebner_eliminate(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("z1*z2 - y\nz1*z3 - y\nz2*z3 - y\n")
    code, out, _ = run(capsys, "groebner", str(path), "--eliminate", "y")
    assert code == 0
    assert "y" not in out
    assert "z" in out


def test_groebner_unknown_variable(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("w1 + w2\n")
    code, _, err = run(capsys, "groebner", str(path))
    assert code == 2
    assert "error:" in err


def test_groebner_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "groebner", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


def test_groebner_budget_exit(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("z1*z2 - y\nz1*z3 - y\nz2*z3 - y\n")
    code, _, err = run(
        capsys, "groebner", str(path), "--spair-budget", "1", "--term-budget", "1"
    )
    assert code == 3
    assert "error:" in err


# ---------------------------------------------------------------------------
# output files and config


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    path = tmp_path / "curve.txt"
    code, out, _ = run(capsys, "emit", "curve", "L", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert len(path.read_text().strip().split("\n")) == 6


@pytest.mark.parametrize("argv", [
    ("verify", "flatness", "--n", "3", "5"),
    ("emit", "curve", "elliptic", "2"),
])
def test_usage_error_leaves_out_file_untouched(capsys, tmp_path, argv):
    path = tmp_path / "kept.txt"
    path.write_bytes(b"earlier output\n")
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert "error:" in err
    assert path.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("argv, code, status, summary_key", [
    (("identities", "--n", "4", "4"), 1, "FAIL", "fail"),
    (("base-geometry", "--n", "5", "5", "--spair-budget", "1", "--term-budget", "1"),
     3, "SKIPPED_BUDGET", "skipped"),
])
def test_verify_writes_report_file_when_checks_fail_or_skip(
    capsys, monkeypatch, tmp_path, argv, code, status, summary_key
):
    monkeypatch.setattr(versal, "phi_symmetry_failures", lambda n: [(1, 2, 3)])
    path = tmp_path / "report.json"
    got, out, _ = run(capsys, "verify", *argv, "--out", str(path))
    assert got == code
    assert status in out and "suite " in out  # summary still on stdout
    assert not out.lstrip().startswith("{")  # the JSON goes only to --out
    assert json.loads(path.read_text())["summary"][summary_key] >= 1


@pytest.mark.parametrize("argv, config", [
    (("invariants", "elliptic", "6", "--format", "singular"), None),
    (("verify", "identities", "--n", "4", "4", "--format", "macaulay2"), None),
    (("verify", "identities", "--n", "4", "4", "--format", "json"), None),
    (("invariants", "L", "5"), {"format": "singular"}),
])
def test_format_a_command_cannot_write_is_a_usage_error(capsys, tmp_path, argv, config):
    path = tmp_path / "kept.txt"
    path.write_bytes(b"earlier output\n")
    prefix = ()
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        prefix = ("--config", str(cfg))
    code, out, err = run(capsys, *prefix, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "format" in err
    assert path.read_bytes() == b"earlier output\n"


def test_config_fills_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out, _ = run(capsys, "--config", str(cfg), "emit", "curve", "L", "4")
    assert code == 0
    json.loads(out)  # config switched the default format to json


def test_command_line_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out, _ = run(
        capsys, "--config", str(cfg), "emit", "curve", "L", "4", "--format", "plain"
    )
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"formt": "json"}))
    code, _, err = run(capsys, "--config", str(cfg), "emit", "curve", "L", "4")
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("config", [[], ["format"], 5, "json"])
def test_config_rejects_a_non_object(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(cfg), "emit", "curve", "L", "4")
    assert code == 2
    assert out == ""
    assert "config file must hold a JSON object" in err


@pytest.mark.parametrize("config", [{"spair_budget": "10"}, {"seed": "abc"}, {"out": 5}])
def test_config_rejects_mistyped_values(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "--config", str(cfg), "verify", "identities", "--n", "4", "4")
    assert code == 2
    assert err.startswith("error:")


def test_verify_rejects_negative_budget(capsys):
    code, out, err = run(capsys, "verify", "identities", "--n", "4", "4", "--spair-budget", "-1")
    assert code == 2
    assert out == ""
    assert "max_pairs" in err


def test_module_entry_point():
    # the child must import the same package as this process, also when
    # pytest itself put the source tree on sys.path
    src = str(Path(versaldef.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "versaldef", "invariants", "L", "6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "delta 6, r 6, mu 7, g 1, dimT1 10, dimT2 5\n"
