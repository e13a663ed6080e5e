"""Hilbert series bookkeeping against a brute-force standard-monomial
count, plus the frozen invariants of the degree-5 base ring."""

import pytest

from versaldef.groebner import (
    DEGREVLEX,
    Ideal,
    buchberger,
    monomials_of_weighted_degree,
)
from versaldef.hilbert import (
    hilbert_data,
    hilbert_function_values,
    krull_dimension_of_monomials,
)
from versaldef.poly import build_registry, parse
from versaldef.versal import base_ideal


def _divides(a, b):
    bm = dict(b)
    return all(bm.get(v, 0) >= e for v, e in a)


def _standard_count(reg, leads, d):
    return sum(
        1
        for m in monomials_of_weighted_degree(reg, d)
        if not any(_divides(l, m) for l in leads)
    )


def _series_matches_count(reg, gens, upto=8):
    gb = buchberger(Ideal(reg, gens))
    data = hilbert_data(gb)
    vals = hilbert_function_values(data, upto)
    leads = gb.leading_monomials()
    expect = [_standard_count(reg, leads, d) for d in range(upto + 1)]
    assert vals == expect, (vals, expect, data)
    return data


def test_polynomial_ring_series():
    reg = build_registry(nz=3)
    data = _series_matches_count(reg, [])
    assert data.dimension == 3
    assert data.h_vector == (1,)
    assert data.multiplicity == 1


def test_hypersurface_series():
    reg = build_registry(nz=3)
    data = _series_matches_count(reg, [parse("z1*z2 - z3^2", reg)])
    assert data.dimension == 2
    assert data.multiplicity == 2


def test_weighted_variable_series():
    reg = build_registry(nz=2, y=True)  # y carries weight 2
    data = _series_matches_count(reg, [parse("z1*z2 - y", reg)])
    assert data.dimension == 2
    assert data.multiplicity == 1


def test_four_lines_quotient():
    # three axes plus a diagonal: four branches, so multiplicity four
    reg = build_registry(nz=3, y=True)
    gens = [
        parse("z1*z2 - y", reg),
        parse("z1*z3 - y", reg),
        parse("z2*z3 - y", reg),
    ]
    data = _series_matches_count(reg, gens)
    assert data.dimension == 1
    assert data.multiplicity == 4
    assert data.h_vector == (1, 2, 1)


def test_artinian_quotient():
    reg = build_registry(nz=2)
    gens = [parse("z1^2", reg), parse("z2^3", reg), parse("z1*z2^2", reg)]
    data = _series_matches_count(reg, gens, upto=6)
    assert data.dimension == 0
    assert data.multiplicity == sum(data.h_vector)


def test_unit_ideal_sentinel():
    reg = build_registry(nz=2)
    gb = buchberger(Ideal(reg, [parse("1", reg)]))
    data = hilbert_data(gb)
    assert data.dimension == -1
    assert data.multiplicity == 0


def test_inhomogeneous_input_rejected():
    reg = build_registry(nz=2)
    gb = buchberger(Ideal(reg, [parse("z1^2 - z2", reg)]))
    with pytest.raises(ValueError):
        hilbert_data(gb)


def test_krull_oracle_matches_series_dimension():
    reg = build_registry(nz=4)
    cases = [
        ["z1*z2"],
        ["z1*z2", "z3*z4"],
        ["z1*z2", "z1*z3", "z1*z4"],
        ["z1^2", "z2^2", "z3^2", "z4^2"],
        ["z1*z2*z3"],
    ]
    for texts in cases:
        gens = [parse(t, reg) for t in texts]
        gb = buchberger(Ideal(reg, gens))
        data = hilbert_data(gb)
        oracle = krull_dimension_of_monomials(reg.nvars, list(gb.leading_monomials()))
        assert data.dimension == oracle, texts


def test_base_ring_degree_five():
    """The degree-5 base: a 7-dimensional ring of multiplicity 5 with
    h-vector (1, 3, 1)."""
    ideal = base_ideal(5, minimal=True)
    gb = buchberger(Ideal(ideal.registry, list(ideal.generators)))
    data = hilbert_data(gb)
    assert data.dimension == 7
    assert data.multiplicity == 5
    assert data.h_vector == (1, 3, 1)


def test_base_ring_degree_six_stretch():
    ideal = base_ideal(6, minimal=True)
    gb = buchberger(Ideal(ideal.registry, list(ideal.generators)))
    data = hilbert_data(gb)
    assert data.dimension == 8
    assert data.multiplicity == 30
