"""Differential tests of the Groebner engine against sympy, on small
random ideals: the reduced bases under degrevlex and lex, and normal
forms, must equal sympy's.  sympy is a test-only oracle; the module is
skipped where it is not installed."""

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


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@settings(max_examples=60, deadline=None)
@given(gens=_ideals, f=_polynomials)
def test_basis_and_normal_form_match_sympy(order, gens, f):
    ideal = Ideal(REG, [_ours(g) for g in gens])
    exprs = [_theirs(g) for g in gens]
    gb = buchberger(ideal, order)
    theirs = sympy.groebner(exprs, *SYMS, order=SYMPY_ORDER[order], domain="QQ")
    assert {_frozen(p) for p in gb.basis} == {_frozen(p) for p in theirs.exprs}
    assert len(gb.basis) == len(theirs.exprs)
    _, rem = sympy.reduced(_theirs(f), list(theirs.exprs), *SYMS, order=SYMPY_ORDER[order])
    assert _as_dict(normal_form(_ours(f), gb)) == _as_dict(rem)
