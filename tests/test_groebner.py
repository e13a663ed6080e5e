"""Groebner engine: normal forms, membership, elimination, budgets,
and syzygies, with independent oracles where the result is not forced
by construction."""

import functools
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from versaldef import curves, groebner
from versaldef.groebner import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    Ideal,
    _Engine,
    _Packing,
    block_order,
    buchberger,
    contains,
    eliminate,
    ideal_equal,
    normal_form,
    recheck,
    syzygies,
)
from versaldef.linalg import Span
from versaldef.poly import Polynomial, build_registry, mono_divides, mono_mul, parse

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


def test_eliminate_sorts_generators_ascending():
    # kernel of t -> (t, t^2, t^3), the twisted cubic
    reg = build_registry(nz=3, t=True)
    gens = [parse(f"z{k} - t^{k}", reg) for k in (1, 2, 3)]
    out = eliminate(Ideal(reg, gens), ["t"])
    pk = _Packing(DEGREVLEX, out.registry)
    leads = [max(map(pk.encode, p.terms)) for p in out.generators]
    assert len(leads) > 1 and leads == sorted(leads)


def _remap_eliminate(ideal, drop):
    """``eliminate`` as it was with a monomial remap of its own, kept as
    the oracle of its ``substitute`` path."""
    order = block_order(ideal.registry, drop)
    gb = buchberger(ideal, order)
    drop_pos = set(order.block)
    keep_names = [v.name for v in ideal.registry.vars if ideal.registry.position(v.name) not in drop_pos]
    sub = ideal.registry.restrict(keep_names)
    remap = {ideal.registry.position(n): sub.position(n) for n in keep_names}
    out = []
    for p in gb.basis:
        if any(v in drop_pos for v in p.variables()):
            continue
        terms = {tuple((remap[v], e) for v, e in m): c for m, c in p.terms.items()}
        out.append(Polynomial._raw(sub, terms))
    return Ideal(sub, out)


def _kernel_input(kind, n):
    reg = build_registry(nz=n, t=True)
    tvar = Polynomial.var(reg, "t")
    exps = curves.monomial_semigroup(kind, n)
    return Ideal(reg, [Polynomial.var(reg, f"z{m}") - tvar ** e for m, e in enumerate(exps, 1)])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("case", ["lines", curves.MONOMIAL_ELLIPTIC, curves.MONOMIAL_RATIONAL])
def test_eliminate_agrees_with_the_remap_oracle(case, n):
    """Same subring, same generators in the same order, each with its
    terms in the same order."""
    if case == "lines":
        ideal, drop = curves.lines_ideal(n, curves.G_FORM), ["y"]
    else:
        ideal, drop = _kernel_input(case, n), ["t"]
    out, oracle = eliminate(ideal, drop), _remap_eliminate(ideal, drop)
    assert out.registry == oracle.registry
    assert [list(p.terms.items()) for p in out.generators] == [
        list(p.terms.items()) for p in oracle.generators
    ]


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


def test_syzygies_refuse_too_many_generators_before_any_buchberger_work(monkeypatch):
    reg = build_registry(nz=11)
    gens = [Polynomial(reg, {m: 1}) for m in groebner.monomials_of_weighted_degree(reg, 2)]
    assert len(gens) > groebner.SYZYGY_GENERATOR_GUARD

    def no_engine(*args, **kwargs):
        raise AssertionError("Buchberger engine started")

    monkeypatch.setattr(groebner, "_Engine", no_engine)
    with pytest.raises(ValueError, match="guarded at 64 generators; got 66"):
        syzygies(Ideal(reg, gens))


def test_syzygy_vectors_annihilate(lines_gb):
    gens = [_p("z1*z2 - y"), _p("z1*z3 - y"), _p("z2*z3 - y")]
    mod = syzygies(Ideal(REG, gens))
    assert mod.vectors
    for vec in mod.vectors:
        acc = Polynomial.zero(REG)
        for v, g in zip(vec, gens):
            acc = acc + v * g
        assert acc.is_zero()


def _full_span_count(reg, vectors, degrees):
    """Oracle for the minimal generator count: in every degree, the rank
    the degree's vectors add to the span of all monomial multiples of
    the lower-degree ones, with no early stop."""
    by_degree = {}
    order_of = sorted(range(len(vectors)), key=lambda k: (degrees[k], k))
    for d in sorted(set(degrees)):
        span = Span()
        lower_rank = span.add(
            {(i, mono_mul(m, mono)): c for i, v in enumerate(vectors[k]) for m, c in v.terms.items()}
            for k in order_of
            if degrees[k] < d
            for mono in groebner.monomials_of_weighted_degree(reg, d - degrees[k])
        )
        new = span.add(
            {(i, m): c for i, v in enumerate(vectors[k]) for m, c in v.terms.items()}
            for k in order_of
            if degrees[k] == d
        ) - lower_rank
        if new:
            by_degree[d] = new
    return by_degree


def _assert_count_matches_full_span(mod):
    reg = mod.ideal.registry
    got = groebner._minimal_generator_count(reg, mod.vectors, mod.degrees)
    assert got == _full_span_count(reg, mod.vectors, mod.degrees) == mod.minimal_by_degree
    return got


@pytest.mark.parametrize("n,by_degree", [(4, {3: 5, 4: 5}), (5, {3: 16, 4: 9})])
def test_minimal_count_of_the_lines_matches_full_span(n, by_degree):
    from versaldef.curves import lines_ideal

    assert _assert_count_matches_full_span(syzygies(lines_ideal(n))) == by_degree


SYZ_REG = build_registry(nz=3)


@st.composite
def _homogeneous_form(draw):
    monos = groebner.monomials_of_weighted_degree(SYZ_REG, draw(st.integers(1, 3)))
    coeffs = draw(
        st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=len(monos), max_size=len(monos))
        .filter(any)
    )
    return Polynomial(SYZ_REG, {m: c for m, c in zip(monos, coeffs) if c})


# (z1^2, z2^3, z3^4): one Koszul generator in each of degrees 5, 6 and
# 7, so the top degree holds a new generator and must not stop early
KOSZUL_GENS = [parse("z1^2", SYZ_REG), parse("z2^3", SYZ_REG), parse("z3^4", SYZ_REG)]


@settings(max_examples=30, deadline=None)
@given(st.lists(_homogeneous_form(), min_size=2, max_size=4))
@example(KOSZUL_GENS)
def test_minimal_count_of_homogeneous_ideals_matches_full_span(gens):
    _assert_count_matches_full_span(syzygies(Ideal(SYZ_REG, gens)))


def _all_pairs_syzygies(ideal):
    """Oracle: the recorded run with no pair criterion at all, so that
    every S-pair is reduced and its lift recorded."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "_chain_skip", lambda self, i, j, lcm, done: False)
        mp.setattr(groebner, "mono_coprime", lambda a, b: False)
        return syzygies(ideal)


def _pruned_and_all_pairs(ideal):
    pruned, everything = syzygies(ideal), _all_pairs_syzygies(ideal)
    assert len(pruned.vectors) <= len(everything.vectors)
    return pruned, everything


@pytest.mark.parametrize(
    "presentation,n",
    [(curves.G_FORM, n) for n in (4, 5, 6, 7)]
    + [(curves.F_FORM, n) for n in (4, 5, 6)]
    + [("axes", n) for n in (4, 5)],
)
def test_chain_criterion_keeps_the_minimal_count_of_the_all_pairs_run(presentation, n):
    if presentation == "axes":
        ideal = curves.axes_ideal(n)
    else:
        ideal = curves.lines_ideal(n, presentation)
    pruned, everything = _pruned_and_all_pairs(ideal)
    assert pruned.minimal_by_degree == everything.minimal_by_degree


@settings(max_examples=30, deadline=None)
@given(st.lists(_homogeneous_form(), min_size=2, max_size=4))
@example(KOSZUL_GENS)
def test_chain_criterion_keeps_the_minimal_count_of_homogeneous_ideals(gens):
    pruned, everything = _pruned_and_all_pairs(Ideal(SYZ_REG, gens))
    assert pruned.minimal_by_degree == everything.minimal_by_degree


@pytest.mark.parametrize("n", [4, 5])
def test_pruned_syzygies_span_the_all_pairs_module(n):
    # each all-pairs vector of degree d lies in the span of the degree-d
    # monomial multiples of the pruned vectors
    pruned, everything = _pruned_and_all_pairs(curves.lines_ideal(n))
    reg = pruned.ideal.registry
    for d in sorted(set(everything.degrees)):
        span = Span()
        rank = span.add(
            {(i, mono_mul(m, mono)): c for i, v in enumerate(vec) for m, c in v.terms.items()}
            for vec, deg in zip(pruned.vectors, pruned.degrees)
            if deg <= d
            for mono in groebner.monomials_of_weighted_degree(reg, d - deg)
        )
        assert span.add(
            {(i, m): c for i, v in enumerate(vec) for m, c in v.terms.items()}
            for vec, deg in zip(everything.vectors, everything.degrees)
            if deg == d
        ) == rank, d


def test_transported_basis_remains_a_basis():
    """A pure-parameter basis moved into a bigger ring under a block
    order with the parameters trailing still passes the S-pair test."""
    from test_versal import _mixed_base_gb

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
    from versaldef.versal import base_ideal

    assert _all_ints(buchberger(base_ideal(6, minimal=True)).basis)
    assert _all_ints(buchberger(curves.lines_ideal(6)).basis)


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


# ---------------------------------------------------------------------------
# packed monomials and the reducers built on them

KEY_REG = build_registry(nz=5)
KEY_DROP = (1, 3)


def _cmp(a, b):
    return (a > b) - (a < b)


def _lex_cmp(a, b):
    """Lex: the first variable whose exponents differ decides, the larger
    exponent giving the larger monomial."""
    return next((_cmp(x, y) for x, y in zip(a, b) if x != y), 0)


def _degrevlex_cmp(a, b):
    """Degrevlex: the larger total degree wins; on a tie the last variable
    whose exponents differ decides, the smaller exponent winning."""
    if sum(a) != sum(b):
        return _cmp(sum(a), sum(b))
    return next((_cmp(y, x) for x, y in zip(reversed(a), reversed(b)) if x != y), 0)


def _block_cmp(drop):
    """Block: lex on the dropped variables, then degrevlex on the rest."""

    def cmp(a, b):
        kept = [v for v in range(len(a)) if v not in drop]
        return _lex_cmp([a[v] for v in drop], [b[v] for v in drop]) or _degrevlex_cmp(
            [a[v] for v in kept], [b[v] for v in kept]
        )

    return cmp


def _sparse(exponents):
    return tuple((v, e) for v, e in enumerate(exponents) if e)


_sparse_exponents = st.lists(
    st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=KEY_REG.nvars, max_size=KEY_REG.nvars
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.lists(_sparse_exponents, min_size=2, max_size=40, unique=True))
def test_order_keys_match_textbook_comparators(exponents):
    monos = [_sparse(x) for x in exponents]
    dense = dict(zip(monos, exponents))
    order_block = block_order(KEY_REG, [KEY_REG.vars[v].name for v in KEY_DROP])
    assert order_block.block == KEY_DROP
    for order, cmp in ((DEGREVLEX, _degrevlex_cmp), (LEX, _lex_cmp), (order_block, _block_cmp(KEY_DROP))):
        textbook = functools.cmp_to_key(lambda a, b: cmp(dense[a], dense[b]))
        descending = sorted(monos, key=textbook, reverse=True)
        # a larger packed int is a larger monomial
        assert sorted(monos, key=_Packing(order, KEY_REG).encode, reverse=True) == descending, order


# registries with the weight-2 y; the degree of an order is unweighted
PACK_REGS = (build_registry(nz=4, y=True), build_registry(nz=3, y=True, npairs=3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packing_round_trips_multiplies_divides_and_orders(data):
    reg = data.draw(st.sampled_from(PACK_REGS))
    vector = st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=reg.nvars, max_size=reg.nvars)
    exponents = data.draw(st.lists(vector.map(tuple), min_size=2, max_size=12, unique=True))
    monos = [_sparse(x) for x in exponents]
    dense = dict(zip(monos, exponents))
    block = block_order(reg, ["z2", "y"])
    for order, cmp in ((DEGREVLEX, _degrevlex_cmp), (LEX, _lex_cmp), (block, _block_cmp(block.block))):
        pk = _Packing(order, reg)
        packed = {m: pk.encode(m) for m in monos}
        for a in monos:
            assert pk.decode(packed[a]) == a
            for b in monos:
                ab = mono_mul(a, b)
                assert pk.encode(ab) == packed[a] + packed[b] - pk.one
                for x, y in ((a, b), (a, ab), (ab, a)):
                    assert pk.divides(pk.encode(x), pk.encode(y)) == mono_divides(x, y)
        textbook = functools.cmp_to_key(lambda a, b: cmp(dense[a], dense[b]))
        descending = sorted(monos, key=textbook, reverse=True)
        assert sorted(monos, key=packed.get, reverse=True) == descending, order


def test_exponent_beyond_the_packed_field_raises():
    big = groebner._MAX_FIELD + 1
    gb = buchberger(Ideal(REG, [_p("z1*z2 - y")]))
    with pytest.raises(OverflowError):
        normal_form(_p(f"z3^{big}"), gb)
    with pytest.raises(OverflowError):
        buchberger(Ideal(REG, [_p(f"z1^{big} - y")]))
    # each input fits; a product formed while reducing or pairing does not
    lex_gb = buchberger(Ideal(REG, [_p("z1 - z2^20000")]), LEX)
    with pytest.raises(OverflowError):
        normal_form(_p("z1^2"), lex_gb)
    with pytest.raises(OverflowError):
        buchberger(Ideal(REG, [_p("z1 - z2^20000"), _p("z1^2")]), LEX)
    with pytest.raises(OverflowError):
        buchberger(Ideal(REG, [_p("z1*z2 - z3^20000"), _p("z1*z3^20000 - z2")]), LEX)
    with pytest.raises(OverflowError):
        buchberger(Ideal(REG, [_p("z1^20000*z2 - z3"), _p("z1*z2^20000 - z3")]))


BASE_LEADS_6 = (
    "a_2_4*a_2_6 a_2_3*a_2_6 a_2_4*a_2_5 a_2_3*a_2_5 a_2_3*a_2_4 a_1_4*a_1_6 "
    "a_1_3*a_1_6 a_1_2*a_1_6 a_1_4*a_1_5 a_1_3*a_1_5 a_1_2*a_1_5 a_1_3*a_1_4 "
    "a_1_2*a_1_4 a_1_2*a_1_3 a_2_5^2*a_2_6 a_1_5^2*a_1_6"
)


def test_leading_monomials_of_the_base_bases_are_pinned():
    from test_versal import _mixed_base_gb
    from versaldef.versal import _base_gb

    for gb in (_base_gb(6), _mixed_base_gb(6)):
        leads = [str(Polynomial._raw(gb.registry, {m: 1})) for m in gb.leading_monomials()]
        assert " ".join(leads) == BASE_LEADS_6


def test_normal_forms_pack_the_basis_once(lines_gb, monkeypatch):
    made = Counter()
    reducer = groebner._reducer

    class CountingPacking(_Packing):
        def __init__(self, *args):
            made["packing"] += 1
            super().__init__(*args)

    def counting_reducer(monic, lt):
        made["reducer"] += 1
        return reducer(monic, lt)

    monkeypatch.setattr(groebner, "_Packing", CountingPacking)
    monkeypatch.setattr(groebner, "_reducer", counting_reducer)
    gb = GroebnerBasis(lines_gb.registry, lines_gb.order, lines_gb.basis)
    p = _p("z1^2*z2 + 3*z2*z3 - y*z1 + z1*z2*z3")
    assert normal_form(p, gb) == normal_form(p, gb)
    assert recheck(gb) and gb.leading_monomials()
    assert made == {"packing": 1, "reducer": len(gb.basis)}


def test_interreduction_rescales_only_changed_items(monkeypatch):
    from versaldef.versal import base_ideal

    ideal = base_ideal(6, minimal=True)
    eng = _Engine(Ideal(ideal.registry, []), DEGREVLEX, DEFAULT_BUDGET, record=False)
    seeds = [(eng.pk.pack(p.terms), {}) for p in ideal.generators]
    counts = Counter()
    monic, reduce_terms = groebner._monic, groebner._reduce_terms

    def counting_monic(terms, lt):
        counts["monic"] += 1
        return monic(terms, lt)

    def counting_reduce(terms, *args):
        rem, quot = reduce_terms(terms, *args)
        counts["changed"] += rem != terms
        return rem, quot

    monkeypatch.setattr(groebner, "_monic", counting_monic)
    monkeypatch.setattr(groebner, "_reduce_terms", counting_reduce)
    out = eng._interreduce(seeds)
    assert out and counts["monic"] <= len(seeds) + counts["changed"]


def test_reducer_memo_resumes_a_miss_at_the_appended_reducers():
    # a miss against [r1] is remembered as "1 reducer scanned"; once r2 is
    # appended, the same memo must send z1^2*z2 to r2, not to the normal form
    pk = _Packing(DEGREVLEX, REG)

    def reducer(text):
        terms = pk.pack(_p(text).terms)
        return groebner._reducer(terms, max(terms))

    r1, r2 = reducer("z3^2 - y"), reducer("z1*z2 - y")
    term = pk.pack(_p("z1^2*z2").terms)
    memo = {}
    rem, _ = groebner._reduce_terms(term, [r1], pk, DEFAULT_BUDGET, memo)
    assert rem == term and memo == {m: ~1 for m in term}
    rem, quot = groebner._reduce_terms(term, [r1, r2], pk, DEFAULT_BUDGET, memo, record=True)
    assert pk.unpack(rem) == _p("y*z1").terms
    assert set(quot) == {1}


def _interreduce_calls(monkeypatch, generators):
    """The seeds _interreduce returns for the generators, and how many
    reductions its sweep made."""
    reg = generators[0].reg
    eng = _Engine(Ideal(reg, []), DEGREVLEX, DEFAULT_BUDGET, record=False)
    calls = Counter()
    reduce_terms = groebner._reduce_terms

    def counting_reduce(*args):
        calls["reduce"] += 1
        return reduce_terms(*args)

    monkeypatch.setattr(groebner, "_reduce_terms", counting_reduce)
    out = eng._interreduce([(eng.pk.pack(p.terms), {}) for p in generators])
    return [Polynomial._raw(reg, eng.pk.unpack(t)) for t, _ in out], calls["reduce"]


def test_one_degree_seeds_are_interreduced_by_the_echelon_form_alone(monkeypatch):
    from versaldef.versal import base_ideal

    seeds, reductions = _interreduce_calls(monkeypatch, list(base_ideal(7, minimal=True).generators))
    assert reductions == 0
    leads = [max(p.terms, key=groebner._Packing(DEGREVLEX, p.reg).encode) for p in seeds]
    assert len(set(leads)) == len(seeds)
    for p, lead in zip(seeds, leads):
        assert all(m not in p.terms for m in leads if m != lead)


def test_seeds_of_mixed_degree_are_swept_after_the_echelon_form(monkeypatch):
    # z1^2*z3 is divisible by the lead z1^2 of the first quadric
    gens = [_p("z1^2 - z2*z3"), _p("z1*z2 - z3^2"), _p("z1^2*z3 + z2^3 - z1*z2*z3")]
    seeds, reductions = _interreduce_calls(monkeypatch, gens)
    assert reductions > 0
    assert seeds[:2] == [_p("z1^2 - z2*z3"), _p("z1*z2 - z3^2")]
    assert normal_form(seeds[2], buchberger(Ideal(REG, gens))).is_zero()


def test_reduced_basis_drops_non_minimal_elements_with_one_memo(monkeypatch):
    oracle = pytest.importorskip("test_groebner_sympy")
    # z1*z2*z3 - z2 and z2*z3 - z2*z3^2; two of the four raw elements
    # have a leading monomial divisible by another's
    gens = [{(1, 1, 1): 1, (0, 1, 0): -1}, {(0, 1, 1): 1, (0, 1, 2): -1}]
    gb, _, same = oracle._same_basis_as_sympy(gens, DEGREVLEX)
    assert same and gb.stats["basis_size_raw"] > len(gb.basis)
    eng = _Engine(Ideal(oracle.REG, [oracle._ours(g) for g in gens]), DEGREVLEX, DEFAULT_BUDGET, False)
    eng.run()
    memos = []
    reduce_terms = groebner._reduce_terms

    def recording_reduce(terms, reducers, pk, budget, memo, record=False):
        memos.append(memo)
        return reduce_terms(terms, reducers, pk, budget, memo, record)

    monkeypatch.setattr(groebner, "_reduce_terms", recording_reduce)
    basis = eng.reduced_basis()
    assert tuple(Polynomial._raw(oracle.REG, eng.pk.unpack(t)) for t in basis) == gb.basis
    assert len(memos) == gb.stats["basis_size_raw"]
    assert all(memo is memos[0] for memo in memos)


# sha256 of "\n".join(str(p) for p in basis), recorded before the echelon
# interreduction and the reducer memo were introduced
BASE_GB_DIGESTS = {
    5: "5189f47f59a7cd0e1aa76aba3b6f604aa4c70c7f81a9d1c620cf1cf969344028",
    6: "70231c543488ad9f3c181ce15868c7969a8e65644008529269b9ff94493900e1",
    7: "077a8ef15b90759d4992359b1a17c0fd77ef317ea2c355d1041cfe6a836364d6",
    8: "eb35c8bb41268a82d4854c464ccca3b53ce3d4abf4a60e1aef022bc5d190e729",
    9: "9636299e3567a753508c31f9631e511d1f036519a904de47254990e267921aa4",
    10: "b163631d5d2f79a7fe6390677759444deb7814f5c47713d9d2b0df24c80729f4",
    11: "62a0befdd17644022cb9d9668d82c764c2622b85263c393403dfbe226ee0f4a8",
    12: "32e16e6668d1cfb3e751d01976127c37004bffee549198a8d4094ce33ae1d91f",
}

# sha256 of the vectors, one line each with " | " between entries; the
# all-pairs digests are those of the recording before the chain criterion
# applied to it, which the oracle run must still reproduce
SYZYGY_DIGESTS = {
    4: "e9aac2377e925049207bd31a616b08f6791ae60da143d294f962143dbe3554ab",
    5: "1d5c8e0420497ed3d3768486112fd2fbd09571882c212393d30093b04bb30c02",
}
ALL_PAIRS_SYZYGY_DIGESTS = {
    4: "af8ba979c800560a11397e34573bb6a0f5784eb5c79f8e30198dd5549eb2fd5f",
    5: "fc9e387115144ddaa1f728d0f1a948eaec784711eebb83aeb602d0c57832a601",
}


def _sha256(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(BASE_GB_DIGESTS))
def test_base_bases_are_pinned(n):
    from versaldef.versal import _base_gb

    assert _sha256("\n".join(str(p) for p in _base_gb(n).basis)) == BASE_GB_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(SYZYGY_DIGESTS))
def test_syzygy_vectors_of_the_lines_are_pinned(n):
    from versaldef.curves import lines_ideal

    pruned, everything = _pruned_and_all_pairs(lines_ideal(n))
    for mod, digests in ((pruned, SYZYGY_DIGESTS), (everything, ALL_PAIRS_SYZYGY_DIGESTS)):
        assert _sha256("\n".join(" | ".join(map(str, v)) for v in mod.vectors)) == digests[n]
