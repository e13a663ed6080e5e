"""Groebner engine: normal forms, membership, elimination, budgets,
and syzygies, with independent oracles where the result is not forced
by construction."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from versaldef.groebner import (
    Budget,
    BudgetExceeded,
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    Ideal,
    block_order,
    buchberger,
    contains,
    eliminate,
    ideal_equal,
    normal_form,
    recheck,
    syzygies,
)
from versaldef.poly import Polynomial, build_registry, parse

REG = build_registry(nz=3, y=True)


def _p(text):
    return parse(text, REG)


@pytest.fixture(scope="module")
def lines_gb():
    gens = [_p("z1*z2 - y"), _p("z1*z3 - y"), _p("z2*z3 - y")]
    return buchberger(Ideal(REG, gens))


def test_reduced_basis_is_self_consistent(lines_gb):
    assert recheck(lines_gb)


def test_normal_form_is_idempotent_and_linear(lines_gb):
    p = _p("z1^2*z2 + 3*z2*z3 - y*z1")
    q = _p("z3^3 - 2*y")
    nf = lambda f: normal_form(f, lines_gb)
    assert nf(nf(p)) == nf(p)
    assert nf(p + q) == nf(nf(p) + nf(q))


def test_membership(lines_gb):
    member = _p("z1*z2 - y") * _p("z3 + 4") + _p("z2*z3 - y") * _p("z1 - 1")
    assert contains(lines_gb, member)
    assert not contains(lines_gb, _p("z1*z2"))
    assert not contains(lines_gb, _p("y"))


def test_groebner_bases_are_order_sensitive_but_ideal_equal():
    gens = [_p("z1*z2 - y"), _p("z1*z3 - y"), _p("z2*z3 - y")]
    a = Ideal(REG, gens)
    g1 = buchberger(a, DEGREVLEX)
    g2 = buchberger(a, LEX)
    assert recheck(g2)
    reordered = Ideal(REG, list(reversed(gens)))
    assert ideal_equal(a, reordered)
    assert [p.terms for p in g1.basis] == [
        p.terms for p in buchberger(reordered, DEGREVLEX).basis
    ]


def test_principal_ideal_basis_is_monic_generator():
    gb = buchberger(Ideal(REG, [_p("3*z1^2 - 6*y")]))
    assert len(gb.basis) == 1
    assert gb.basis[0] == _p("z1^2 - 2*y")


def test_empty_ideal():
    gb = buchberger(Ideal(REG, []))
    assert gb.basis == ()
    assert normal_form(_p("z1 + y"), gb) == _p("z1 + y")


def test_eliminate_kernel_of_parametrization():
    # kernel of t -> (t^2, t^3) is the cuspidal cubic
    reg = build_registry(nz=2, t=True)
    gens = [
        parse("z1 - t^2", reg),
        parse("z2 - t^3", reg),
    ]
    out = eliminate(Ideal(reg, gens), ["t"])
    expect_reg = out.registry
    expect = parse("z1^3 - z2^2", expect_reg)
    assert ideal_equal(out, Ideal(expect_reg, [expect]))


def test_eliminate_rejects_unknown_variable():
    with pytest.raises(KeyError):
        eliminate(Ideal(REG, [_p("z1")]), ["nope"])


def test_block_order_prioritizes_dropped_block():
    order = block_order(REG, ["y"])
    gb = buchberger(Ideal(REG, [_p("z1*z2 - y")]), order)
    # y is eliminated wherever possible: the leading term must contain y
    lead = gb.leading_monomials()[0]
    assert REG.position("y") in dict(lead)


@pytest.mark.parametrize("limit", [0, -1, "10", 10.0, True])
def test_budget_rejects_bad_limits(limit):
    with pytest.raises(ValueError):
        Budget(max_pairs=limit)
    with pytest.raises(ValueError):
        Budget(max_terms=limit)


def test_budget_exceeded_raises():
    tight = Budget(max_pairs=1, max_terms=2)
    gens = [_p("z1*z2 - y"), _p("z1*z3 - y"), _p("z2*z3 - y")]
    with pytest.raises(BudgetExceeded):
        buchberger(Ideal(REG, gens), budget=tight)


def test_syzygies_koszul_pair():
    # two coprime monomials: the syzygy module is the single Koszul relation
    reg = build_registry(nz=2)
    f, g = parse("z1^2", reg), parse("z2^3", reg)
    mod = syzygies(Ideal(reg, [f, g]))
    assert mod.minimal_count == 1
    for vec in mod.vectors:
        assert (vec[0] * f + vec[1] * g).is_zero()


def test_syzygy_vectors_annihilate(lines_gb):
    gens = [_p("z1*z2 - y"), _p("z1*z3 - y"), _p("z2*z3 - y")]
    mod = syzygies(Ideal(REG, gens))
    assert mod.vectors
    for vec in mod.vectors:
        acc = Polynomial.zero(REG)
        for v, g in zip(vec, gens):
            acc = acc + v * g
        assert acc.is_zero()


def test_transported_basis_remains_a_basis():
    """A pure-parameter basis moved into a bigger ring under a block
    order with the parameters trailing still passes the S-pair test."""
    from versaldef.versal import _mixed_base_gb

    gbx = _mixed_base_gb(5)
    assert recheck(gbx)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["z1*z2 - y", "z1*z3 - y", "z2*z3 - y", "z1^2 - z2*z3", "z3^2 - y"]
        ),
        min_size=1,
        max_size=4,
    )
)
def test_normal_form_of_generators_is_zero(texts):
    gens = [_p(t) for t in texts]
    gb = buchberger(Ideal(REG, gens))
    for g in gens:
        assert contains(gb, g)
    prod = gens[0] * _p("z1 + z2 - 3")
    assert contains(gb, prod)


def _all_ints(polys):
    return all(type(c) is int for p in polys for c in p.terms.values())


def test_integral_bases_have_int_coefficients():
    from versaldef.versal import _lines_gb, base_ideal

    assert _all_ints(buchberger(base_ideal(6, minimal=True)).basis)
    assert _all_ints(_lines_gb(6).basis)


def test_non_unit_leading_coefficient_gives_exact_basis():
    gb = buchberger(Ideal(REG, [_p("2*z1 - 1"), _p("z1*z2")]))
    assert gb.basis == (_p("z2"), _p("z1 - 1/2"))
    z1, one = ((REG.position("z1"), 1),), ()
    assert type(gb.basis[1].terms[z1]) is int
    assert gb.basis[1].terms[one] == Fraction(-1, 2)
    nf = normal_form(_p("4*z1^2"), gb)
    assert nf == Polynomial.const(REG, 1) and type(nf.terms[one]) is int
    mod = syzygies(Ideal(REG, [_p("2*z1*z2 - 3*y"), _p("z1*z3 - y"), _p("2*z2*z3 - y")]))
    coeffs = [c for vec in mod.vectors for v in vec for c in v.terms.values()]
    assert any(type(c) is Fraction for c in coeffs)
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in coeffs)
