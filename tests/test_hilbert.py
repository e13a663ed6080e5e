"""Hilbert series bookkeeping against a brute-force standard-monomial
count, the frozen numerators and invariants of the base rings, and their
Hilbert function in degrees 2 and 3 by linear algebra alone."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from versaldef.groebner import (
    DEGREVLEX,
    Ideal,
    buchberger,
    monomials_of_weighted_degree,
)
from versaldef.hilbert import _numerator, hilbert_data
from versaldef.poly import Polynomial, build_registry, parse
from versaldef.versal import _base_gb, minimal_base_quadrics, span_rank


def hilbert_function_values(data, upto):
    """Values of the Hilbert function predicted by the reduced series:
    numerator / (1-T)^dimension expanded up to degree ``upto``
    (inclusive); 1/(1-T)^d has coefficients binom(k + d - 1, d - 1)."""
    d = data.dimension
    vals = [0] * (upto + 1)
    for shift, c in enumerate(data.h_vector):
        if not c:
            continue
        for k in range(shift, upto + 1):
            if d <= 0:
                vals[k] += c if k == shift else 0
            else:
                vals[k] += c * comb(k - shift + d - 1, d - 1)
    return vals


def krull_dimension_of_monomials(nvars, gens):
    """Independent-set dimension of a monomial ideal: the largest set of
    variables touching no generator entirely."""
    supports = [frozenset(v for v, _ in m) for m in gens]
    if any(not s for s in supports):
        return -1
    for size in range(nvars, -1, -1):
        for cand in combinations(range(nvars), size):
            cset = set(cand)
            if all(not s <= cset for s in supports):
                return size
    return 0


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


def test_series_with_a_weight_two_factor_is_rejected():
    # P/(z4) in z1..z4, y of weight 2 has series 1/((1-T)^3 (1-T^2)),
    # which keeps the factor 1/(1+T) and has no form h(T)/(1-T)^dim
    reg = build_registry(nz=4, y=True)
    gb = buchberger(Ideal(reg, [parse("z4", reg)]))
    with pytest.raises(ValueError, match=r"not of the form h\(T\)/\(1-T\)\^dim"):
        hilbert_data(gb)


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


def _increasing(size):
    return st.lists(st.integers(min_value=1, max_value=3), min_size=size, max_size=size,
                    unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monomial_ideals_in_disjoint_variable_groups(data):
    """Monomial ideals in z1..z4 and y (weight 2).  The variables are cut
    into one group or two of two or three.  Each group gets two or three
    generators u^a_i v^b_i * (anything in its other variables), with a_i
    increasing and b_i decreasing on its first two variables u and v, so
    that no generator of a group divides another and two groups mostly
    give two multi-generator components whose numerators multiply.  The
    ideal also holds a power of y: hilbert_data reports the series as
    h(T) / (1-T)^dim, and without a power of y the series of the quotient
    can keep the factor 1 / (1 + T) of y's denominator, as for P/(z4)."""
    reg = build_registry(nz=4, y=True)
    y = reg.position("y")
    order = data.draw(st.permutations(range(reg.nvars)))
    cut = data.draw(st.sampled_from([0, 2, 3]))  # one group, or two of two or more variables
    gens = [Polynomial(reg, {((y, data.draw(st.integers(min_value=1, max_value=3))),): 1})]
    for group in (order[:cut], order[cut:]):
        if not group:
            continue
        size = data.draw(st.integers(min_value=2, max_value=3))
        a = data.draw(_increasing(size))
        b = data.draw(_increasing(size))[::-1]
        for ai, bi in zip(a, b):
            rest = data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                      min_size=len(group) - 2, max_size=len(group) - 2))
            mono = tuple((v, e) for v, e in sorted(zip(group, [ai, bi, *rest])) if e)
            gens.append(Polynomial(reg, {mono: 1}))
    _series_matches_count(reg, gens)


# recorded with the earlier numerator recursion (dict monomials, no component
# split), so the pivot algorithm is checked against an independent computation
_FROZEN_NUMERATORS = {
    5: [1, 0, -5, 5, 0, -1],
    6: [1, 0, -14, 21, 36, -126, 126, -36, -21, 14, 0, -1],
    7: [1, 0, -28, 56, 197, -896, 847, 2056, -7161, 9856, -7161, 2056, 847, -896, 197, 56,
        -28, 0, 1],
    8: [1, 0, -48, 120, 667, -3744, 2991, 25752, -95030, 115072, 130101, -766224, 1534182,
        -1887680, 1534182, -766224, 130101, 115072, -95030, 25752, 2991, -3744, 667, 120,
        -48, 0, 1],
    9: [1, 0, -75, 225, 1774, -11835, 6549, 165150, -667250, 553605, 4060161, -17741970,
        32516550, -9872175, -112505535, 366044310, -684855360, 912685425, -912685425,
        684855360, -366044310, 112505535, 9872175, -32516550, 17741970, -4060161, -553605,
        667250, -165150, -6549, 11835, -1774, -225, 75, 0, -1],
}

_FROZEN_HILBERT_DATA = {
    5: (7, 5, (1, 3, 1)),
    6: (8, 30, (1, 7, 14, 7, 1)),
    7: (9, 210, (1, 12, 50, 84, 50, 12, 1)),
    8: (10, 1680, (1, 18, 123, 396, 604, 396, 123, 18, 1)),
    9: (11, 15120, (1, 25, 250, 1275, 3499, 5020, 3499, 1275, 250, 25, 1)),
    10: (12, 151200, (1, 33, 451, 3300, 13949, 34287, 47158, 34287, 13949, 3300, 451, 33, 1)),
}


@pytest.mark.parametrize("n", sorted(_FROZEN_NUMERATORS))
def test_base_ring_numerator_is_frozen(n):
    gb = _base_gb(n)
    num = _numerator(frozenset(gb.leading_monomials()), gb.registry.weights, {})
    assert num == _FROZEN_NUMERATORS[n]


@pytest.mark.parametrize("n", sorted(_FROZEN_HILBERT_DATA))
def test_base_ring_hilbert_data_is_frozen(n):
    """Dimension n + 2 and multiplicity n!/24; at n = 5 a 7-dimensional
    ring of multiplicity 5 with h-vector (1, 3, 1)."""
    data = hilbert_data(_base_gb(n))
    assert (data.dimension, data.multiplicity, data.h_vector) == _FROZEN_HILBERT_DATA[n]


@pytest.mark.parametrize("n, h2, h3", [(6, 106, 491), (8, 358, 2836)])
def test_base_ring_low_degrees_by_linear_algebra(n, h2, h3):
    """The base ideal is generated by quadrics q, so its degree-2 part is
    their span and its degree-3 part the span of the products a_v * q
    over the N = binom(n, 2) parameters a_v; the Hilbert function in
    degrees 2 and 3 is then a rank count that uses neither the Groebner
    engine nor the Hilbert numerator."""
    quadrics = minimal_base_quadrics(n)
    reg = quadrics[0].reg
    N = reg.nvars
    assert N == comb(n, 2)
    cubics = [Polynomial.var(reg, a) * q for a in reg.names for q in quadrics]
    assert comb(N + 1, 2) - span_rank(quadrics) == h2
    assert comb(N + 2, 3) - span_rank(cubics) == h3
    assert hilbert_function_values(hilbert_data(_base_gb(n)), 3)[2:] == [h2, h3]
