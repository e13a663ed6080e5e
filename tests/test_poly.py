"""Polynomial core: ring axioms, printing/parsing, substitution,
weighted degrees, and the antisymmetric pair convention."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from versaldef.poly import (
    NONHOMOGENEOUS,
    ParseError,
    Polynomial,
    Var,
    build_registry,
    mono_mul,
    parse,
    substitute,
    sum_of_products,
    to_str,
    weighted_degree,
)

REG = build_registry(nz=3, y=True, npairs=3)


def _random_poly(draw_terms):
    p = Polynomial.zero(REG)
    for coeff, var_exps in draw_terms:
        term = Polynomial.const(REG, coeff)
        for pos, e in var_exps:
            term = term * Polynomial.var(REG, REG.names[pos]) ** e
        p = p + term
    return p


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)

term_strategy = st.tuples(
    coeffs,
    st.lists(
        st.tuples(st.integers(0, REG.nvars - 1), st.integers(1, 3)),
        max_size=3,
    ),
)
poly_strategy = st.lists(term_strategy, max_size=5).map(_random_poly)


@settings(max_examples=150, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Polynomial.zero(REG) == p
    assert p * Polynomial.const(REG, 1) == p
    assert p - p == Polynomial.zero(REG)


@settings(max_examples=150, deadline=None)
@given(poly_strategy)
def test_parse_print_roundtrip(p):
    assert parse(to_str(p), REG) == p


@settings(max_examples=60, deadline=None)
@given(poly_strategy, poly_strategy)
def test_substitution_is_homomorphism(p, q):
    target = build_registry(nz=3, y=True, npairs=3)
    image = {
        "z1": Polynomial.var(target, "z2"),
        "z2": Polynomial.var(target, "z1") + Polynomial.const(target, 1),
    }
    sp = substitute(p, image, target=target)
    sq = substitute(q, image, target=target)
    assert substitute(p + q, image, target=target) == sp + sq
    assert substitute(p * q, image, target=target) == sp * sq


def test_weighted_degree_uses_weights():
    p = Polynomial.var(REG, "z1") * Polynomial.var(REG, "z2") - Polynomial.var(REG, "y")
    assert weighted_degree(p) == 2
    q = Polynomial.var(REG, "z1") + Polynomial.var(REG, "y")
    assert weighted_degree(q) is NONHOMOGENEOUS


def test_antisymmetric_reversal():
    assert Polynomial.var(REG, "a_2_1") == -Polynomial.var(REG, "a_1_2")
    assert parse("a_2_1 + a_1_2", REG).is_zero()
    with pytest.raises(KeyError):
        REG.position("a_2_1")


def test_ordered_pairs_registry_keeps_both_directions():
    reg = build_registry(nz=2, npairs=2, ordered_pairs=True)
    assert "a_1_2" in reg.names and "a_2_1" in reg.names
    assert Polynomial.var(reg, "a_2_1") != -Polynomial.var(reg, "a_1_2")


def test_registry_order_and_weights():
    reg = build_registry(nz=2, y=True, t=True, s=True, npairs=2, params=(2, 5))
    assert reg.names == ("z1", "z2", "y", "t", "s", "a_1_2", "a_2", "a_5")
    assert reg.weights[reg.position("y")] == 2
    assert all(
        w == 1 for i, w in enumerate(reg.weights) if i != reg.position("y")
    )


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("z1 +* z2", REG)
    with pytest.raises(ParseError):
        parse("w3 + 1", REG)


def test_power_and_scalars():
    z1 = Polynomial.var(REG, "z1")
    assert z1 ** 3 == z1 * z1 * z1
    assert 2 * z1 == z1 + z1
    assert (z1 + 1) - 1 == z1
    assert z1 ** 0 == Polynomial.const(REG, 1)


def test_display_name_override():
    p = Polynomial.var(REG, "z1") * Polynomial.var(REG, "z2")
    fancy = [f"v{i}" for i in range(REG.nvars)]
    assert to_str(p, fancy) == "v0*v1"
    with pytest.raises(ValueError):
        to_str(p, ["too", "few"])


def _assert_exact(p):
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction), c


def test_integral_coefficients_are_ints():
    z1 = ((REG.position("z1"), 1),)
    built = Polynomial(REG, {z1: Fraction(4, 2), (): 3})
    assert built.terms == {z1: 2, (): 3}
    _assert_exact(built)
    assert type(Polynomial.const(REG, Fraction(6, 3)).constant_term()) is int
    assert Polynomial.var(REG, "a_2_1").terms == {((REG.position("a_1_2"), 1),): -1}
    _assert_exact(Polynomial.var(REG, "a_2_1"))
    parsed = parse("4/2*z1 - 3", REG)
    assert parsed == built - 6
    _assert_exact(parsed)
    doubled = parse("1/2*z1 + 1/3", REG) * Fraction(2)
    assert doubled.terms == {z1: 1, (): Fraction(2, 3)}
    _assert_exact(doubled)
    half = parse("1/2*z1", REG)
    _assert_exact(half + half)
    _assert_exact(half * parse("2*z2", REG))
    assert type(half.coefficient(z1)) is Fraction
    assert type(half.coefficient(())) is int and half.constant_term() == 0


# coefficients drawn as ints or as Fractions, integral ones included
mixed_coeffs = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=4)
)
mono_strategy = st.dictionaries(
    st.integers(0, REG.nvars - 1), st.integers(1, 3), max_size=3
).map(lambda d: tuple(sorted(d.items())))
raw_strategy = st.dictionaries(mono_strategy, mixed_coeffs, max_size=5)


def _dense(mono):
    exps = [0] * REG.nvars
    for v, e in mono:
        exps[v] = e
    return tuple(exps)


def _oracle(raw):
    """All-Fraction dict keyed by dense exponent vectors."""
    return {_dense(m): Fraction(c) for m, c in raw.items() if c}


def _o_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def _o_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def _o_subst(a, images):
    out = {}
    for m, c in a.items():
        term = {tuple([0] * REG.nvars): c}
        for v, e in enumerate(m):
            if v in images:
                for _ in range(e):
                    term = _o_mul(term, images[v])
            elif e:
                term = _o_mul(term, {tuple(e if k == v else 0 for k in range(REG.nvars)): Fraction(1)})
        out = _o_add(out, term)
    return out


def _as_oracle(p):
    return {_dense(m): Fraction(c) for m, c in p.terms.items()}


@settings(max_examples=150, deadline=None)
@given(raw_strategy, raw_strategy, raw_strategy, mixed_coeffs)
def test_arithmetic_matches_fraction_oracle(ra, rb, rc, k):
    a, b, c = (Polynomial(REG, r) for r in (ra, rb, rc))
    oa, ob, oc = _oracle(ra), _oracle(rb), _oracle(rc)
    o_k = _oracle({(): k})
    assert _as_oracle(a) == oa
    results = {
        "add": (a + b, _o_add(oa, ob)),
        "sub": (a - b, _o_add(oa, ob, -1)),
        "add-scalar": (a + k, _o_add(oa, o_k)),
        "radd-scalar": (k + a, _o_add(oa, o_k)),
        "sub-scalar": (a - k, _o_add(oa, o_k, -1)),
        "rsub-scalar": (k - a, _o_add(o_k, oa, -1)),
        "mul": (a * b, _o_mul(oa, ob)),
        "subst": (
            substitute(a, {"z1": b, "a_1_2": c}),
            _o_subst(oa, {REG.position("z1"): ob, REG.position("a_1_2"): oc}),
        ),
    }
    for name, (got, want) in results.items():
        assert _as_oracle(got) == want, name
        _assert_exact(got)


_Z1, _Z2 = ((REG.position("z1"), 1),), ((REG.position("z2"), 1),)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(mixed_coeffs, raw_strategy, raw_strategy), max_size=4))
@example([])
@example([(0, {_Z1: 1}, {_Z2: 1}), (1, {_Z1: 1}, {_Z2: 1}), (-1, {_Z2: 1}, {_Z1: 1})])
@example([(Fraction(1, 2), {_Z1: Fraction(1, 3)}, {_Z2: 3}),
          (Fraction(3, 2), {_Z1: 1}, {_Z2: Fraction(1, 3)})])
def test_sum_of_products_matches_fraction_oracle(raw_products):
    got = sum_of_products(
        REG, [(c, Polynomial(REG, ra), Polynomial(REG, rb)) for c, ra, rb in raw_products]
    )
    want = {}
    for c, ra, rb in raw_products:
        want = _o_add(want, _o_mul(_oracle({(): c}), _o_mul(_oracle(ra), _oracle(rb))))
    assert _as_oracle(got) == want
    _assert_exact(got)


@pytest.mark.parametrize("left, right", [
    ("z1*z2", "a_1_2^2"),                            # supports wholly before
    ("a_1_3", "z1*y"),                               # supports wholly after
    ("z1*a_1_2", "z2*a_2_3"),                        # interleaved supports
    ("z1*z2^2", "z2*y"),                             # supports sharing a variable
    ("1", "z1*y"),                                   # an empty monomial on the left
    ("z1*y", "1"),                                   # an empty monomial on the right
    ("z1*a_1_3 + a_2_3", "z2*y - a_1_2 + z1 + 1"),  # every rule in one product
])
def test_each_branch_of_the_product_rule(left, right):
    p, q = parse(left, REG), parse(right, REG)
    for a, b in ((p, q), (q, p)):
        got = sum_of_products(REG, [(3, a, b)])
        assert _as_oracle(got) == _o_mul(_oracle({(): 3}), _o_mul(_oracle(a.terms), _oracle(b.terms)))
        merged = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = mono_mul(ma, mb)
                merged[m] = merged.get(m, 0) + 3 * ca * cb
        assert got.terms == {m: c for m, c in merged.items() if c}
        for m in got.terms:
            positions = [v for v, _ in m]
            assert positions == sorted(set(positions)), m
            assert all(e > 0 for _, e in m), m


def test_sum_of_products_rejects_a_foreign_factor():
    a = parse("z1 + 1", REG)
    twin = parse("z2", build_registry(nz=3, y=True, npairs=3))  # equal registry
    assert sum_of_products(REG, [(2, a, twin)]) == parse("2*z1*z2 + 2*z2", REG)
    other = parse("z1", build_registry(nz=3))
    for product in ((1, a, other), (1, other, a), (0, other, other)):
        with pytest.raises(ValueError, match="different registries"):
            sum_of_products(REG, [(1, a, a), product])


def test_substitution_sums_its_terms_in_one_pass(monkeypatch):
    p = parse("(z1 + z2 + z3 + 1)^2", REG)
    assert len(p) >= 10
    image, want = parse("z2 - 1", REG), parse("(2*z2 + z3)^2", REG)
    sums = []
    real = Polynomial._plus

    def counting(self, other, negate):
        sums.append(other)
        return real(self, other, negate)

    monkeypatch.setattr(Polynomial, "_plus", counting)
    assert substitute(p, {"z1": image}) == want
    assert sums == []


def test_substitution_rejects_a_foreign_value_and_a_variable_assigned_twice():
    p = parse("z1*a_1_2 + y", REG)
    twin = build_registry(nz=3, y=True, npairs=3)  # equal registry
    image = parse("z2", twin)
    assert substitute(p, {"z1": image, "y": parse("1", REG)}) == parse("z2*a_1_2 + 1", REG)
    other = parse("z1", build_registry(nz=3))
    for assignment, target in (
        ({"z1": image, "y": other}, None),
        ({"z1": other, "y": image}, None),
        ({"z1": image}, build_registry(nz=3)),
    ):
        with pytest.raises(ValueError, match="'(y|z1)' does not live over the target"):
            substitute(p, assignment, target)
    with pytest.raises(ValueError, match="'a_2_1' assigned twice"):
        substitute(p, {"a_1_2": image, "a_2_1": image})


def test_registry_hash_is_computed_once(monkeypatch):
    a = build_registry(nz=3, y=True, npairs=4)
    b = build_registry(nz=3, y=True, npairs=4)
    assert a is not b and a == b and hash(a) == hash(b)
    calls = []
    real = Var.__hash__

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Var, "__hash__", counting)
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert calls == []


def test_subtraction_builds_no_negated_copy(monkeypatch):
    a, b = parse("z1 + 2*z2 - 3", REG), parse("z2 - 1/2*y", REG)
    negations = []
    real = Polynomial.__neg__

    def counting(self):
        negations.append(self)
        return real(self)

    monkeypatch.setattr(Polynomial, "__neg__", counting)
    assert a - b == parse("z1 + z2 + 1/2*y - 3", REG)
    assert a - 3 == parse("z1 + 2*z2 - 6", REG)
    assert 3 - a == parse("-z1 - 2*z2 + 6", REG)
    assert Fraction(1, 2) - b == parse("-z2 + 1/2*y + 1/2", REG)
    assert a.__rsub__(b) == b - a
    assert negations == []


def test_operands_of_every_binary_operation():
    a = parse("z1 + 1", REG)
    twin = build_registry(nz=3, y=True, npairs=3)  # equal, not the same object
    b = parse("z1", twin)
    assert twin is not REG
    assert a + b == parse("2*z1 + 1", REG) and a - b == 1 and b - a == -1
    assert a * b == parse("z1^2 + z1", REG) and a == parse("z1 + 1", twin)
    assert a + True == parse("z1 + 2", REG) and a * Fraction(4, 2) == parse("2*z1 + 2", REG)
    assert parse("3", REG) == 3 and parse("3", REG) == Fraction(6, 2) and parse("3", REG) != 2
    other = parse("z1", build_registry(nz=3))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(a, other)
        for foreign in ("x", 1.5, None):
            with pytest.raises(TypeError):
                op(a, foreign)
            with pytest.raises(TypeError):
                op(foreign, a)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
        assert getattr(a, name)(1.5) is NotImplemented, name
    assert (a == "z1 + 1") is False and (a != 1.5) is True
    assert parse("z1", REG) != other  # same terms over another registry
