"""Curve presentations, monomial tables, relation ranks and numerical
invariants.  Expected gap sets and ranks are frozen by hand so the
computations are checked against independent data."""

import dataclasses
import itertools

import pytest

from versaldef.curves import (
    CurveSpec,
    F_FORM,
    G_FORM,
    MONOMIAL_ELLIPTIC,
    MONOMIAL_RATIONAL,
    elliptic_monomial_table,
    elliptic_t1_formula,
    linear_relation_formula,
    lines_ideal,
    minimal_generator_formula,
    monomial_ideal,
    nonrational_lines_check,
    numeric_invariants,
    parametrization_kernel,
    rational_monomial_table,
    relations,
    semigroup_invariants,
    t2_formula,
)
from versaldef.groebner import Ideal, eliminate, ideal_equal
from versaldef.poly import Polynomial, build_registry, substitute


# ---------------------------------------------------------------------------
# numerical semigroups


def test_semigroup_hand_checked_cases():
    assert semigroup_invariants([3, 5]).gaps == (1, 2, 4, 7)
    assert semigroup_invariants([2, 3]).gaps == (1,)
    assert semigroup_invariants([4, 6, 7]).gaps == (1, 2, 3, 5, 9)
    assert semigroup_invariants([1]).gaps == ()


@pytest.mark.parametrize("n", range(3, 13))
def test_rational_interval_semigroup(n):
    data = semigroup_invariants(range(n, 2 * n))
    assert data.gaps == tuple(range(1, n))
    assert data.delta == n - 1
    assert data.multiplicity == n


@pytest.mark.parametrize("n", range(3, 13))
def test_elliptic_interval_semigroup(n):
    data = semigroup_invariants(range(n + 1, 2 * n + 1))
    assert data.gaps == tuple(range(1, n + 1)) + (2 * n + 1,)
    assert data.delta == n + 1
    assert data.multiplicity == n + 1


def test_semigroup_rejects_common_divisor():
    with pytest.raises(ValueError):
        semigroup_invariants([4, 6])
    with pytest.raises(ValueError):
        semigroup_invariants([0, 3])


def test_numeric_invariants():
    inv = numeric_invariants(delta=6, branches=6)
    assert inv.mu == 7
    assert inv.genus == 1
    uni = numeric_invariants(delta=5, branches=1)
    assert uni.mu == 10
    assert uni.genus == 5


# ---------------------------------------------------------------------------
# lines presentations


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_presentation_sizes(n):
    g = lines_ideal(n, G_FORM)
    f = lines_ideal(n, F_FORM)
    assert len(g.generators) == n * (n - 1) // 2
    assert len(f.generators) == minimal_generator_formula(n)
    assert "y" not in f.registry.names


def test_lines_ideal_rejects_small_n():
    with pytest.raises(ValueError):
        lines_ideal(2)


@pytest.mark.parametrize("n", [4, 5])
def test_eliminating_y_recovers_minimal_presentation(n):
    g = lines_ideal(n, G_FORM)
    projected = eliminate(g, ["y"])
    f = lines_ideal(n, F_FORM)
    assert ideal_equal(projected, f)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relation_rank(n):
    fam = relations(n)
    assert fam.expected_rank == linear_relation_formula(n)
    assert fam.rank == fam.expected_rank
    expected_quads = (n * (n - 1) // 2) * ((n - 2) * (n - 3) // 2)
    assert len(fam.quadruples) == expected_quads


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relation_vectors_hold_four_nonzero_slots_in_order(n):
    fam = relations(n)
    assert len(fam.vectors) == len(fam.quadruples)
    for vec in fam.vectors:
        slots = [p for p, _ in vec]
        assert len(slots) == 4
        assert slots == sorted(set(slots))
        assert all(0 <= p < len(fam.pairs) for p in slots)
        assert all(entry for _, entry in vec)


def test_relations_are_cached_and_their_rank_is_lazy(monkeypatch):
    from versaldef.linalg import SparseEliminator

    relations.cache_clear()
    calls = []
    real = SparseEliminator.add

    def counting(self, row):
        calls.append(row)
        return real(self, row)

    monkeypatch.setattr(SparseEliminator, "add", counting)
    fam = relations(6)
    assert calls == []
    assert relations(6) is fam
    assert fam.rank == fam.expected_rank
    assert fam.rank == fam.expected_rank  # read again: not recomputed
    assert len(calls) == len(fam.vectors)


def test_relation_rank_values_frozen():
    assert [linear_relation_formula(n) for n in range(4, 8)] == [5, 16, 35, 64]


# ---------------------------------------------------------------------------
# monomial curves


def _vanishes_on(polys, reg, exponents):
    """Substitute z_m = t^(e_m) and demand zero, on a 1-variable registry."""
    treg = build_registry(t=True)
    t = Polynomial.var(treg, "t")
    assign = {f"z{m}": t ** exponents[m - 1] for m in range(1, len(exponents) + 1)}
    return all(substitute(p, assign, treg).is_zero() for p in polys)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_elliptic_table_vanishes_on_parametrization(n):
    table = elliptic_monomial_table(n)
    reg = table[0].reg
    assert _vanishes_on(table, reg, [n + m for m in range(1, n + 1)])
    assert len(table) == (n - 1) * n // 2 - 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rational_table_vanishes_on_parametrization(n):
    table = rational_monomial_table(n)
    reg = table[0].reg
    assert _vanishes_on(table, reg, [n + m - 1 for m in range(1, n + 1)])


@pytest.mark.parametrize("n", [4, 5])
def test_elliptic_table_equals_kernel(n):
    table = elliptic_monomial_table(n)
    kernel = parametrization_kernel(n, [n + m for m in range(1, n + 1)])
    assert monomial_ideal(MONOMIAL_ELLIPTIC, n).generators == kernel.generators
    assert ideal_equal(Ideal(table[0].reg, table), kernel)


@pytest.mark.parametrize("n", [4, 5])
def test_rational_table_equals_kernel(n):
    kernel = monomial_ideal(MONOMIAL_RATIONAL, n)
    table = rational_monomial_table(n)
    assert ideal_equal(Ideal(table[0].reg, table), kernel)


def test_monomial_ideal_rejects_unknown_kind():
    with pytest.raises(ValueError):
        monomial_ideal("MONOMIAL_CUSP", 4)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_nonrational_lines(n):
    rep = nonrational_lines_check(n)
    assert rep.displayed_ok
    assert not rep.uniform_wrap_ok
    assert all(a == b for a, b in rep.exponent_residues)


# ---------------------------------------------------------------------------
# curve spec serialization and formulas


def test_curve_spec_roundtrip():
    spec = CurveSpec(kind=MONOMIAL_ELLIPTIC, n=5, partition=(2, 3), presentation=F_FORM)
    again = CurveSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(kind="NOT_A_KIND", n=4)
    with pytest.raises(ValueError):
        CurveSpec(kind=MONOMIAL_ELLIPTIC, n=4, presentation="H_FORM")


def test_formula_values():
    assert [t2_formula(n) for n in range(4, 8)] == [0, 5, 14, 28]
    assert [minimal_generator_formula(n) for n in range(4, 8)] == [5, 9, 14, 20]
    # full branch count r = n + 1 gives binom(n, 2)
    assert [elliptic_t1_formula(n, n + 1) for n in range(4, 8)] == [6, 10, 15, 21]


@pytest.mark.parametrize("k", [0, -1])
def test_relation_family_checks_annihilation_on_its_basis(k):
    fam = relations(6)
    vectors = list(fam.vectors)
    (p, entry), *rest = vectors[k]
    vectors[k] = ((p, -entry), *rest)
    broken = dataclasses.replace(fam, vectors=tuple(vectors))
    with pytest.raises(AssertionError, match="relation family vector is not a syzygy"):
        broken.rank
