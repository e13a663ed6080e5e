"""Differential tests of the Groebner engine against sympy, on small
random ideals: the reduced bases under degrevlex and lex, and normal
forms, must equal sympy's.  sympy is a test-only oracle; the module is
skipped where it is not installed."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from versaldef.groebner import DEGREVLEX, LEX, Ideal, buchberger, normal_form  # noqa: E402
from versaldef.poly import Polynomial, build_registry  # noqa: E402

REG = build_registry(nz=3)
SYMS = sympy.symbols("z1 z2 z3")
SYMPY_ORDER = {DEGREVLEX: "grevlex", LEX: "lex"}

_exponents = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 3)
_coefficients = st.integers(-3, 3).filter(bool)
_polynomials = st.dictionaries(_exponents, _coefficients, min_size=1, max_size=3)
_ideals = st.lists(_polynomials, min_size=1, max_size=3)


def _ours(exps_coeffs):
    return Polynomial(
        REG, {tuple((v, e) for v, e in enumerate(x) if e): c for x, c in exps_coeffs.items()}
    )


def _theirs(exps_coeffs):
    return sum(c * sympy.prod(s**e for s, e in zip(SYMS, x)) for x, c in exps_coeffs.items())


def _as_dict(p):
    """A polynomial of either side as {exponent vector: Fraction}."""
    if isinstance(p, Polynomial):
        out = {}
        for m, c in p.terms.items():
            x = [0] * REG.nvars
            for v, e in m:
                x[v] = e
            out[tuple(x)] = Fraction(c)
        return out
    poly = sympy.Poly(p, *SYMS, domain="QQ")
    return {x: Fraction(int(c.p), int(c.q)) for x, c in poly.as_dict(native=False).items()}


def _frozen(p):
    return frozenset(_as_dict(p).items())


def _same_basis_as_sympy(gens, order):
    """Our reduced basis of the ideal, sympy's, and whether they agree."""
    gb = buchberger(Ideal(REG, [_ours(g) for g in gens]), order)
    theirs = sympy.groebner([_theirs(g) for g in gens], *SYMS, order=SYMPY_ORDER[order], domain="QQ")
    same = {_frozen(p) for p in gb.basis} == {_frozen(p) for p in theirs.exprs}
    return gb, theirs, same and len(gb.basis) == len(theirs.exprs)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@settings(max_examples=60, deadline=None)
@given(gens=_ideals, f=_polynomials)
def test_basis_and_normal_form_match_sympy(order, gens, f):
    gb, theirs, same = _same_basis_as_sympy(gens, order)
    assert same
    _, rem = sympy.reduced(_theirs(f), list(theirs.exprs), *SYMS, order=SYMPY_ORDER[order])
    assert _as_dict(normal_form(_ours(f), gb)) == _as_dict(rem)


def _of_degree(d):
    return [x for x in itertools.product(range(d + 1), repeat=3) if sum(x) == d]


# quadrics over the six quadratic monomials of three variables, so that
# three or more of them share monomials and the echelon form does row
# operations (and drops dependent rows)
_quadrics = st.dictionaries(st.sampled_from(_of_degree(2)), _coefficients, min_size=1, max_size=4)
_cubic_tails = st.dictionaries(st.sampled_from(_of_degree(3)), _coefficients, max_size=2)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@settings(max_examples=40, deadline=None)
@given(gens=st.lists(_quadrics, min_size=3, max_size=8))
def test_echelonised_quadrics_match_sympy(order, gens):
    assert _same_basis_as_sympy(gens, order)[2]


def _times_variable(p, v):
    return {tuple(e + (i == v) for i, e in enumerate(x)): c for x, c in p.items()}


def _plus(p, q):
    out = dict(p)
    for x, c in q.items():
        out[x] = out.get(x, 0) + c
    return {x: c for x, c in out.items() if c}


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@settings(max_examples=40, deadline=None)
@given(
    quadrics=st.lists(_quadrics, min_size=1, max_size=4),
    cubics=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), _cubic_tails), min_size=1, max_size=3),
)
def test_mixed_quadrics_and_cubics_match_sympy(order, quadrics, cubics):
    # each cubic is a variable times a drawn quadric plus a short tail, so
    # one of its terms is a multiple of that quadric's leading monomial
    # unless the tail cancels it: the sweep after the echelon form reduces
    # across degrees
    gens = quadrics + [
        _plus(_times_variable(quadrics[k % len(quadrics)], v), tail) for k, v, tail in cubics
    ]
    assert _same_basis_as_sympy([g for g in gens if g], order)[2]
