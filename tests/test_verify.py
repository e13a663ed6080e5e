"""The verification suites as a system: anchor discipline, failure
injection, budget handling, determinism, and which Groebner bases a
suite computes."""

import hashlib
import sys

import pytest

from versaldef import curves, groebner, versal
from versaldef.groebner import Budget
from versaldef.poly import Polynomial, substitute
from versaldef.report import FAIL, PASS, SKIPPED_BUDGET
from versaldef.verify import ANCHORS, DEFAULT_RANGES, SUITES, _run, run_suite


def test_anchor_registry_is_well_formed():
    assert ANCHORS
    for anchor, claim in ANCHORS.items():
        assert anchor and claim
        assert anchor == anchor.strip()


def test_every_anchor_is_cited_by_some_check():
    import inspect

    import versaldef.verify as verify_module

    src = inspect.getsource(verify_module)
    for anchor in ANCHORS:
        # once in the registry, at least once at a _run call site
        assert src.count(f'"{anchor}"') >= 2, f"anchor {anchor!r} never cited"


def test_claims_document_mirrors_registry():
    from pathlib import Path

    claims = Path(__file__).resolve().parent.parent / "CLAIMS.md"
    text = claims.read_text()
    for anchor in ANCHORS:
        assert f"`{anchor}`" in text, f"anchor {anchor!r} missing from CLAIMS.md"


def test_every_suite_has_a_default_range():
    assert set(DEFAULT_RANGES) == set(SUITES)
    for lo, hi in DEFAULT_RANGES.values():
        assert 4 <= lo <= hi


def test_run_rejects_unregistered_anchor():
    with pytest.raises(KeyError):
        _run([], "some-check", "not-an-anchor", lambda: (True, ""))


def test_run_suite_validation():
    with pytest.raises(KeyError):
        run_suite("nonsense")
    with pytest.raises(ValueError):
        run_suite("identities", (3, 4))
    with pytest.raises(ValueError):
        run_suite("identities", (5, 4))


@pytest.mark.parametrize("n_range", [(4.9, 4), (4, "4"), (4.0, 4), (4, True)])
def test_run_suite_rejects_non_integer_range(n_range):
    with pytest.raises(ValueError, match="integers"):
        run_suite("identities", n_range)


@pytest.mark.parametrize("seed", ["x", 1.5, True])
def test_run_suite_rejects_a_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_suite("identities", (4, 4), seed=seed)


@pytest.mark.parametrize("budget", ["x", None, 5])
def test_run_suite_rejects_a_non_budget_before_any_check(monkeypatch, budget):
    calls = []
    monkeypatch.setitem(SUITES, "identities", lambda *args: calls.append(args) or iter(()))
    with pytest.raises(ValueError, match="budget must be a Budget"):
        run_suite("identities", (8, 8), budget=budget)
    assert calls == []


@pytest.mark.parametrize(
    "name,n_range",
    [
        ("identities", (4, 4)),
        ("t1t2", (4, 4)),
        ("flatness", (4, 4)),
        ("smoothings", (4, 4)),
        ("monomial", (4, 4)),
        ("axes", (4, 4)),
        ("counts", (4, 4)),
        ("induction", (5, 5)),
        ("base-geometry", (5, 5)),
    ],
)
def test_suites_pass_at_smallest_range(name, n_range):
    rep = run_suite(name, n_range)
    assert rep.ok, [c for c in rep.checks if c.status != PASS]
    assert rep.checks
    ids = [c.id for c in rep.checks]
    assert len(ids) == len(set(ids))
    assert all(c.anchor in ANCHORS for c in rep.checks)


def test_injected_failure_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(versal, "phi_symmetry_failures", lambda n: [(1, 2, 3)])
    rep = run_suite("identities", (4, 4))
    by_id = {c.id: c for c in rep.checks}
    bad = by_id["phi-symmetry-n4"]
    assert bad.status == FAIL
    assert "(1, 2, 3)" in bad.details
    assert not rep.ok
    # the rest of the suite still ran
    assert by_id["cocycle-n4"].status == PASS


def test_injected_failure_details_are_truncated(monkeypatch):
    fails = [(i, i + 1, i + 2) for i in range(10)]
    monkeypatch.setattr(versal, "phi_symmetry_failures", lambda n: fails)
    rep = run_suite("identities", (4, 4))
    bad = next(c for c in rep.checks if c.id == "phi-symmetry-n4")
    assert "(+7 more)" in bad.details


def test_uncertified_rank_fails_its_check_not_the_suite(monkeypatch, capsys):
    """A phi-coordinate rank certificate whose bounds do not meet is a
    FAIL naming both bounds; the other checks still run, and the CLI
    exits 1 (a check failed), not 2 (a usage error).  A flipped quadric
    outside the induction's systems is caught by ``t2-dimension`` alone;
    a quadric dropped from the minimal system fails the induction."""
    from versaldef.cli import main

    n = 7
    bad = versal.quadric_index_set(n)[0]
    original = versal._quadric_phi_terms

    def flipped(*q):
        (t, sign), *rest = original(*q)
        return ((t, -sign), *rest) if q == bad else original(*q)

    with monkeypatch.context() as patch:
        patch.setattr(versal, "_quadric_phi_terms", flipped)
        rep = run_suite("t1t2", (n, n))
        by_id = {c.id: c for c in rep.checks}
        assert by_id[f"t2-dimension-n{n}"].status == FAIL
        assert "lower bound 28, upper bound 31" in by_id[f"t2-dimension-n{n}"].details
        assert [c.status for c in rep.checks if c.anchor != "t2-dimension"] == [PASS] * 3
        assert run_suite("induction", (n, n)).checks[0].status == PASS
        assert main(["verify", "t1t2", "--n", str(n), str(n)]) == 1
        assert "FAIL" in capsys.readouterr().out

    minimal = versal._minimal_phi_terms
    monkeypatch.setattr(
        versal, "_minimal_phi_terms", lambda m: minimal(m)[1:] if m == n else minimal(m)
    )
    induction = run_suite("induction", (n, n)).checks[0]
    assert induction.status == FAIL
    assert "target rank not certified, lower bound 27, upper bound 28" in induction.details
    assert main(["verify", "induction", "--n", str(n), str(n)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_budget_exhaustion_reports_skip():
    tiny = Budget(max_pairs=1, max_terms=1)
    rep = run_suite("base-geometry", (5, 5), budget=tiny)
    statuses = {c.id: c.status for c in rep.checks}
    assert statuses["base-size-n5"] == PASS  # no Groebner work needed
    assert statuses["base-dimension-n5"] == SKIPPED_BUDGET
    assert statuses["base-multiplicity-n5"] == SKIPPED_BUDGET
    assert FAIL not in statuses.values()
    assert rep.ok  # skipped is not failed
    assert rep.summary["skipped"] >= 2


def test_t1t2_runs_under_the_suite_budget():
    """t1t2 runs no Groebner basis, so no budget can cut it short."""
    versal.t1_compute.cache_clear()
    rep = run_suite("t1t2", (4, 8), budget=Budget(max_pairs=1, max_terms=1))
    assert [c.status for c in rep.checks] == [PASS] * 20


def test_seeded_run_is_deterministic_and_samples_extra_point():
    rep1 = run_suite("monomial", (4, 4), seed=7)
    rep2 = run_suite("monomial", (4, 4), seed=7)
    assert rep1.to_json() == rep2.to_json()
    fam = next(c for c in rep1.checks if c.id == "monomial-elliptic-n4")
    assert fam.status == PASS
    assert "[True, True, True]" in fam.details
    assert rep1.engine["seed"] == 7


@pytest.mark.parametrize(
    "mutate",
    [lambda table: table[:-1], lambda table: [table[0] ** 2] + table[1:]],
    ids=["last-generator-lost", "first-generator-squared"],
)
def test_elliptic_kernel_check_catches_a_broken_table(monkeypatch, mutate):
    real = curves.elliptic_monomial_table
    monkeypatch.setattr(curves, "elliptic_monomial_table", lambda n: mutate(real(n)))
    rep = run_suite("monomial", (4, 4))
    by_id = {c.id: c.status for c in rep.checks}
    assert by_id["monomial-elliptic-kernel-n4"] == FAIL


def test_unseeded_runs_are_byte_identical():
    rep1 = run_suite("identities", (4, 4))
    rep2 = run_suite("identities", (4, 4))
    assert rep1.to_json() == rep2.to_json()


# sha256 of the canonical JSON of each suite at its default range; a
# change that only makes the engine faster or leaner must leave every
# report byte-identical
CANONICAL_SHA256 = {
    "axes": "f5585f31a4a3c3e736686505077654988bed0d86fbdbff4423aaf4750253bf36",
    "base-geometry": "b428f540a5182929a9314e4d37a5ddc714e3d76d3f1eae84f63dd0fd7ba7b8a2",
    "counts": "9afaa73d8cc32e33670c3facdb551a53393f0f5f8d77ef5fd2e3044f1fd6fe6f",
    "flatness": "e31c9553184008e62e59bc3bf7d875afafbba58c21b719292ac6e3ef4de47e92",
    "identities": "c660029c8c3721176a882466713b873c7c0303533f8d168881e1b8daa25d436c",
    "induction": "85a5dd4193b6a5415402222c82049e983e0b57d5fa24bf26ba770689e46b7450",
    "monomial": "323ad34726edc672c3e0ca3398bf7ed7b445aef230cdab9d427da76784d5a11c",
    "smoothings": "cda2039fad87378179d0283fcfcee55cf985a83b8548f460803cd54d25730815",
    "t1t2": "71b6800aa45eef2cfdfffa3f2946e4ad086981c56e27097d89a6ea411bf3e1da",
}

# the same for runs the default ranges do not reach: several n (so the
# per-n branches of a suite meet) and seeded draws carried across n
PINNED_RUNS = {
    ("base-geometry", (5, 6), None): "c24b19747b3f8cac235559117648800b4c3b46283e9ce6dd3106097ca63e66c6",
    ("induction", (4, 6), None): "3aec5c5018cfd6be1906e2c96a45a405a98ec947d0eafa978afe99bf06a04cbd",
    ("counts", (4, 5), None): "449283641fd0426030b53d94e09a064201402a0d3d98334be558040114c9f45f",
    ("monomial", (4, 5), 3): "f3666afc63c5a08dfb5ca35c50aa2530532c99d3c0459f7e89d7eb224fcf7c3e",
    ("axes", (4, 5), 3): "3d323c9fa9ce72507c62fd1f6842a3f2f337c62b85971dbeb4a5bfce743f54db",
    ("smoothings", (4, 9), None): "173b4636609bc17238093615a6a4cb7808d7b23d3f539904db1cd2e1925d07a5",
    ("axes", (6, 7), None): "c6153317704699e6b771986092ec642a13138db52bc916d5b06ebbd090e74b8f",
}

_PINNED_CASES = [
    pytest.param(s, None, None, digest, id=s) for s, digest in sorted(CANONICAL_SHA256.items())
] + [
    pytest.param(s, (lo, hi), seed, digest,
                 id=f"{s}-n{lo}-{hi}" + ("" if seed is None else f"-seed{seed}"))
    for (s, (lo, hi), seed), digest in sorted(PINNED_RUNS.items(), key=str)
]


@pytest.mark.parametrize("suite,n_range,seed,digest", _PINNED_CASES)
def test_canonical_report_is_pinned(suite, n_range, seed, digest):
    text = run_suite(suite, n_range, seed=seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _record_buchberger(monkeypatch):
    """Route every package-level binding of ``buchberger`` through a
    wrapper that records the ideal of each call."""
    orig = groebner.buchberger
    calls = []

    def recording(ideal, *args, **kwargs):
        calls.append(ideal)
        return orig(ideal, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("versaldef") and getattr(mod, "buchberger", None) is orig:
            monkeypatch.setattr(mod, "buchberger", recording)
    return calls


def test_base_basis_is_computed_once(monkeypatch):
    versal._base_gb.cache_clear()
    calls = _record_buchberger(monkeypatch)
    assert run_suite("base-geometry", (6, 6)).ok
    assert run_suite("induction", (6, 6)).ok
    base = versal.base_ideal(6, minimal=True)
    assert sum(ideal == base for ideal in calls) == 1


def test_axes_report_needs_no_groebner_basis(monkeypatch):
    calls = _record_buchberger(monkeypatch)
    assert versal.axes_family_report(5).ok
    assert calls == []


def test_smoothings_need_no_groebner_basis(monkeypatch):
    calls = _record_buchberger(monkeypatch)
    assert run_suite("smoothings", (4, 5)).ok
    assert calls == []


def test_nonrational_lines_need_no_groebner_basis(monkeypatch):
    calls = _record_buchberger(monkeypatch)
    rep = curves.nonrational_lines_check(6)
    assert rep.displayed_ok and not rep.uniform_wrap_ok
    assert calls == []


def _groebner_y_elimination(gens, y_free):
    """The Groebner oracle for ``versal._eliminates_y_to``, as the
    generator-count and nice-presentation checks decided it before: a
    block-order elimination of y, then a comparison of reduced bases."""
    eliminated = groebner.eliminate(groebner.Ideal(gens[0].reg, list(gens)), ["y"])
    ereg = eliminated.registry
    y_free = [substitute(p, {}, target=ereg) for p in y_free]
    return groebner.ideal_equal(eliminated, groebner.Ideal(ereg, y_free))


def _record_y_eliminations(monkeypatch):
    """Route ``versal._eliminates_y_to`` through a wrapper that records
    the oracle's verdict on each call before the check decides it."""
    real = versal._eliminates_y_to
    verdicts = []

    def recording(gens, y_free):
        verdicts.append(_groebner_y_elimination(gens, y_free))
        return real(gens, y_free)

    monkeypatch.setattr(versal, "_eliminates_y_to", recording)
    return verdicts


@pytest.mark.parametrize("n", range(4, 11))
def test_generator_count_agrees_with_the_groebner_oracle(monkeypatch, n):
    verdicts = _record_y_eliminations(monkeypatch)
    checks = {c.id: c for c in run_suite("counts", (n, n)).checks}
    assert checks[f"generator-count-n{n}"].status == PASS
    assert verdicts == [True] * (2 if n == 4 else 1)


def _g34_plus_z3_squared(gens):
    reg = gens[0].reg
    k = gens.index(curves.line_generator(reg, 3, 4))
    return gens[:k] + [gens[k] + Polynomial.var(reg, "z3") ** 2] + gens[k + 1:]


def _twice_g34(gens):
    k = gens.index(curves.line_generator(gens[0].reg, 3, 4))
    return gens[:k] + [2 * gens[k]] + gens[k + 1:]


def _g12_plus_y_squared(gens):
    return [gens[0] + Polynomial.var(gens[0].reg, "y") ** 2] + gens[1:]


@pytest.mark.parametrize("mutate,status,details", [
    (_g34_plus_z3_squared, FAIL, "14 generators of rank 14, expected 14; generate the eliminated ideal: False"),
    (_twice_g34, PASS, "14 generators of rank 14, expected 14; generate the eliminated ideal: True"),
    (_g12_plus_y_squared, FAIL, "y is not eliminated: the first generator is not f - y with f free of y"),
], ids=["g34-plus-z3-squared", "twice-g34", "g12-plus-y-squared"])
def test_generator_count_mutants_agree_with_the_groebner_oracle(monkeypatch, mutate, status, details):
    """The check decides the ideal, not the literal generators: a
    rescaled generator passes, a bent one fails, and a first generator
    that is not f - y fails with that premise named."""
    real = curves.lines_ideal

    def lines_ideal(n, presentation=curves.G_FORM):
        ideal = real(n, presentation)
        if presentation != curves.G_FORM:
            return ideal
        return groebner.Ideal(ideal.registry, mutate(list(ideal.generators)))

    monkeypatch.setattr(curves, "lines_ideal", lines_ideal)
    verdicts = _record_y_eliminations(monkeypatch)
    (check, _) = run_suite("counts", (6, 6)).checks
    assert (check.status, check.details) == (status, details)
    assert verdicts == [status == PASS]


def _refuse_groebner(monkeypatch):
    """Refuse ``buchberger``, ``normal_form``, ``eliminate`` and
    ``ideal_equal`` under every name the package binds them to, and
    record each run of the Groebner engine by whether it records
    syzygies."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was computed")

    for name, mod in list(sys.modules.items()):
        if name.startswith("versaldef"):
            for fn in ("buchberger", "normal_form", "eliminate", "ideal_equal"):
                if hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, refuse)
    runs = []

    class Recording(groebner._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self.record)

    monkeypatch.setattr(groebner, "_Engine", Recording)
    return runs


def test_t1t2_runs_no_groebner_basis(monkeypatch):
    runs = _refuse_groebner(monkeypatch)
    versal.t1_compute.cache_clear()
    assert run_suite("t1t2", (4, 8)).ok
    assert runs == []


def test_y_eliminations_run_no_groebner_basis(monkeypatch):
    """With the Groebner entry points refused, the counts suite and the
    closed n = 4 presentation still pass; at n = 4 and 5 only
    ``syzygies`` runs the engine."""
    runs = _refuse_groebner(monkeypatch)
    assert run_suite("counts", (6, 8)).ok
    assert versal.nice_total_space_check().ok
    assert runs == []
    assert run_suite("counts", (4, 5)).ok
    assert runs == [True, True]
