"""The deformation-theoretic core: identities, T^1/T^2, flatness,
induction, the Pfaffian presentation, smoothings, the monomial and axes
families, and the wedge construction.

Each identity check comes with a mutation guard: a deliberately
perturbed version of the expression must fail, so a vacuous checker
cannot pass silently."""

import dataclasses
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_verify import _record_buchberger

from versaldef import groebner, versal
from versaldef.curves import RelationFamily, _relation_quadruples, relations, t2_formula
from versaldef.groebner import (
    DEFAULT_BUDGET, GroebnerBasis, Ideal, block_order, buchberger, ideal_equal, normal_form,
)
from versaldef.linalg import Span
from versaldef.poly import (
    Polynomial, build_registry, mono_degree, parse, substitute, sum_of_products,
)
from versaldef.verify import run_suite
from versaldef.versal import (
    AXIS_PARABOLA,
    DIAGONAL,
    RankDeficiencyError,
    axes_family_report,
    axes_versal_family,
    base_equals_total,
    base_ideal,
    base_quadric,
    base_registry,
    canonical_fourth_index,
    cocycle_failures,
    default_projection_samples,
    elliptic_monomial_family,
    family_expanded_failures,
    family_generator,
    family_index_set,
    family_k_change_failures,
    four_term_failures,
    main_family,
    minimal_base_quadrics,
    nice_total_space_check,
    pfaffian_check,
    phi,
    phi_symmetry_failures,
    quadric_index_set,
    quadric_symmetry_failures,
    smoothing_family,
    span_rank,
    t1_compute,
    t2_dimension,
    verify_flatness,
    versal_registry,
    wedge_a2_deformation,
)


# ---------------------------------------------------------------------------
# identities


@pytest.mark.parametrize("n", [4, 5, 6])
def test_identity_checkers_find_nothing(n):
    assert phi_symmetry_failures(n) == []
    assert quadric_symmetry_failures(n) == []
    assert cocycle_failures(n) == []
    assert family_expanded_failures(n) == []
    assert family_k_change_failures(n) == []


def test_four_term_relation():
    assert four_term_failures(6) == []
    with pytest.raises(ValueError):
        four_term_failures(5)


def test_four_term_mutation_guard():
    # flipping the last sign must break the relation
    n = 6
    i, j, l, k, m = 1, 2, 3, 4, 5
    expr = (
        base_quadric(i, j, l, k, m, n)
        - base_quadric(n, j, l, k, m, n)
        - base_quadric(k, j, l, i, n, n)
        - base_quadric(m, j, l, i, n, n)
    )
    assert not expr.is_zero()


def test_cocycle_mutation_guard():
    n, (i, j, k, l) = 4, (1, 2, 3, 4)
    reg = base_registry(n)

    def a(p, q):
        return parse(f"a_{p}_{q}", reg)

    good = (
        -a(i, j) * (phi(i, k, l, n) - phi(j, k, l, n))
        + a(i, l) * (phi(i, j, k, n) - phi(j, l, k, n))
        + a(k, j) * (phi(i, k, l, n) - phi(i, j, l, n))
        - a(k, l) * (phi(i, j, k, n) - phi(i, j, l, n))
    )
    bad = good + 2 * a(k, l) * (phi(i, j, k, n) - phi(i, j, l, n))
    assert good.is_zero()
    assert not bad.is_zero()


@pytest.fixture
def fresh_caches():
    """Clear every cache of ``versal`` before and after a guard, so that
    nothing built before the patch hides it and nothing built under the
    patch outlives it."""

    def clear():
        for obj in vars(versal).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == versal.__name__:
                obj.cache_clear()

    clear()
    yield
    clear()


def test_cocycle_checker_catches_a_perturbed_phi(monkeypatch, fresh_caches):
    original = versal._phi

    def perturbed(reg, i, j, k):
        p = original(reg, i, j, k)
        return 2 * p if (i, j, k) == (1, 2, 3) else p

    monkeypatch.setattr(versal, "_phi", perturbed)
    assert cocycle_failures(5)


def _cocycle_terms(i, j, k, l):
    """The eight (sign, pair, triple) products sign * a_pair * phi_triple
    of the cocycle identity of the ordered tuple (i, j, k, l)."""
    return (
        (-1, (i, j), (i, k, l)), (1, (i, j), (j, k, l)),
        (1, (i, l), (i, j, k)), (-1, (i, l), (j, l, k)),
        (1, (k, j), (i, k, l)), (-1, (k, j), (i, j, l)),
        (-1, (k, l), (i, j, k)), (1, (k, l), (i, j, l)),
    )


def _ordered_cocycle_failures(n):
    """``cocycle_failures`` as it was before it read the relation
    quadruples: it expands the identity of every ordered 4-tuple.  Kept
    as the oracle of the once-per-quadruple verdict."""
    reg = base_registry(n)
    fails = []
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        expr = sum_of_products(reg, [
            (c, versal._av(reg, *p), versal._phi(reg, *t)) for c, p, t in _cocycle_terms(i, j, k, l)
        ])
        if not expr.is_zero():
            fails.append((i, j, k, l))
    return fails


def _quadruple_tuple(i, j, k, l):
    """The tuple (i, j, k, l) of the relation quadruple whose identity
    the ordered tuple gives up to sign, and that sign."""
    sign = (-1 if i > k else 1) * (-1 if j > l else 1)
    return (min(i, k), min(j, l), max(i, k), max(j, l)), sign


@pytest.mark.parametrize("n", range(4, 8))
def test_cocycle_expands_one_identity_per_relation_quadruple(monkeypatch, n):
    calls = []
    original = versal.sum_of_products

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(versal, "sum_of_products", counting)
    assert cocycle_failures(n) == []
    assert len(calls) == math.comb(n, 2) * math.comb(n - 2, 2) == {4: 6, 5: 30, 6: 90, 7: 210}[n]


@pytest.mark.parametrize("n", range(4, 9))
def test_every_ordered_cocycle_is_its_quadruples_up_to_sign(n):
    """With a_qp = -a_pq and phi keyed by its sorted triple, the eight
    products of every ordered tuple are pairwise distinct and equal, up
    to one sign, those of its relation quadruple."""

    def signed(i, j, k, l):
        keys = {}
        for c, (p, q), t in _cocycle_terms(i, j, k, l):
            keys[((min(p, q), max(p, q)), tuple(sorted(t)))] = c if p < q else -c
        assert len(keys) == 8
        return keys

    quads = {(i, j, k, l) for i, k, j, l in versal._relation_quadruples(n)}
    seen = set()
    for tup in itertools.permutations(range(1, n + 1), 4):
        quad, sign = _quadruple_tuple(*tup)
        assert quad in quads
        seen.add(quad)
        assert signed(*tup) == {key: sign * c for key, c in signed(*quad).items()}
    assert seen == quads


@pytest.mark.parametrize("n", range(4, 8))
def test_cocycle_agrees_with_the_ordered_oracle(n):
    assert cocycle_failures(n) == _ordered_cocycle_failures(n) == []


@pytest.mark.parametrize("n, quads", [(5, 12), (6, 18)])
def test_cocycle_fails_the_quadruples_of_the_oracle_under_a_symmetric_mutant(
    monkeypatch, fresh_caches, n, quads
):
    original = versal._phi

    def doubled(reg, i, j, k):
        p = original(reg, i, j, k)
        return 2 * p if sorted((i, j, k)) == [1, 2, 3] else p

    monkeypatch.setattr(versal, "_phi", doubled)
    assert phi_symmetry_failures(n) == []
    oracle = _ordered_cocycle_failures(n)
    fails = cocycle_failures(n)
    assert len(fails) == quads and len(oracle) == 4 * quads
    assert set(fails) == {_quadruple_tuple(*tup)[0] for tup in oracle}


def test_cocycle_skips_an_ordering_no_quadruple_reads(monkeypatch, fresh_caches):
    """phi doubled at (3, 2, 1) alone, an ordering that no relation
    quadruple reads: the ordered oracle and the symmetry check fail, the
    once-per-quadruple checker does not."""
    original = versal._phi

    def doubled(reg, i, j, k):
        p = original(reg, i, j, k)
        return 2 * p if (i, j, k) == (3, 2, 1) else p

    monkeypatch.setattr(versal, "_phi", doubled)
    assert _ordered_cocycle_failures(5)
    assert cocycle_failures(5) == []
    assert phi_symmetry_failures(5)


@pytest.mark.parametrize("where,expected", [
    ((3, 2, 1), [(3, 2, 1)]),
    ((1, 2, 3), [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]),
])
def test_phi_symmetry_failures_under_a_doubled_ordering(monkeypatch, fresh_caches, where, expected):
    """phi doubled at one ordering: the failures are that ordering, or
    every other ordering when the doubled one is the sorted reference.
    Both lists are the ones the public-``phi`` checker gave."""
    original = versal._phi

    def doubled(reg, i, j, k):
        p = original(reg, i, j, k)
        return 2 * p if (i, j, k) == where else p

    monkeypatch.setattr(versal, "_phi", doubled)
    assert phi_symmetry_failures(5) == expected


def test_quadric_checkers_catch_a_flipped_phi_sign(monkeypatch, fresh_caches):
    original = versal._quadric_phi_terms

    def flipped(*idx):
        terms = original(*idx)
        if idx != (1, 2, 3, 4, 5):
            return terms
        (t, sign), *rest = terms
        return ((t, -sign), *rest)

    monkeypatch.setattr(versal, "_quadric_phi_terms", flipped)
    assert four_term_failures(6)
    assert quadric_symmetry_failures(5)


def _polynomial_quadric_symmetry_failures(n):
    """``quadric_symmetry_failures`` as it was before it read
    phi-coordinates: it compares the expanded quadrics.  Kept as the
    oracle of the phi-coordinate verdict."""
    reg = base_registry(n)
    fails = []
    for (i, j, l, k, m) in quadric_index_set(n):
        q = versal._quadric(reg, i, j, l, k, m)
        neg = -q
        if (
            versal._quadric(reg, i, l, j, k, m) != neg
            or versal._quadric(reg, i, j, l, m, k) != neg
            or versal._quadric(reg, i, k, m, j, l) != q
        ):
            fails.append((i, j, l, k, m))
    return fails


def _polynomial_four_term_failures(n):
    """``four_term_failures`` as it was before it read phi-coordinates:
    it expands the 16 signed phi's into one polynomial.  Kept as the
    oracle of the phi-coordinate verdict."""
    reg = base_registry(n)
    fails = []
    pool = range(1, n)
    for j, l in itertools.combinations(pool, 2):
        rest = [x for x in pool if x not in (j, l)]
        for i, k, m in itertools.permutations(rest, 3):
            expr = versal._phi_sum(reg, (
                *versal._quadric_phi_terms(i, j, l, k, m),
                *((t, -sign) for t, sign in versal._quadric_phi_terms(n, j, l, k, m)),
                *((t, -sign) for t, sign in versal._quadric_phi_terms(k, j, l, i, n)),
                *versal._quadric_phi_terms(m, j, l, i, n),
            ))
            if not expr.is_zero():
                fails.append((i, j, l, k, m))
    return fails


@pytest.mark.parametrize("n", range(4, 10))
def test_quadric_symmetry_agrees_with_the_polynomial_oracle(n):
    assert quadric_symmetry_failures(n) == _polynomial_quadric_symmetry_failures(n) == []


@pytest.mark.parametrize("n", range(6, 10))
def test_four_term_agrees_with_the_polynomial_oracle(n):
    assert four_term_failures(n) == _polynomial_four_term_failures(n) == []


@pytest.mark.parametrize("target, slot", [
    ((1, 2, 3, 4, 5), 0),
    ((2, 1, 3, 4, 5), 1),
    ((1, 2, 3, 5, 4), 2),
    ((6, 2, 3, 4, 5), 3),
])
def test_phi_coordinate_verdicts_match_the_oracle_on_a_mutant(
    monkeypatch, fresh_caches, target, slot
):
    """Under one flipped sign the phi-coordinate checkers and the
    polynomial oracles report the same tuples, in the same order."""
    original = versal._quadric_phi_terms

    def flipped(*idx):
        terms = list(original(*idx))
        if idx == target:
            t, sign = terms[slot]
            terms[slot] = (t, -sign)
        return tuple(terms)

    monkeypatch.setattr(versal, "_quadric_phi_terms", flipped)
    for n in (6, 7):
        fails = quadric_symmetry_failures(n)
        assert fails == _polynomial_quadric_symmetry_failures(n)
        fails_four = four_term_failures(n)
        assert fails_four == _polynomial_four_term_failures(n)
        assert fails and fails_four


def _sorted_key_phi_vector(phi_terms):
    """``_phi_vector`` as it was before it read a certified basis: it
    sorts each triple.  Kept as the oracle of the basis lookup."""
    vec = {}
    for t, sign in phi_terms:
        key = tuple(sorted(t))
        vec[key] = vec.get(key, 0) + sign
    return {key: c for key, c in vec.items() if c}


def _four_term_sums(n):
    """The 16 (triple, sign) pairs of each tuple ``four_term_failures``
    reads."""
    pool = range(1, n)
    for j, l in itertools.combinations(pool, 2):
        rest = [x for x in pool if x not in (j, l)]
        for i, k, m in itertools.permutations(rest, 3):
            yield (
                *versal._quadric_phi_terms(i, j, l, k, m),
                *((t, -sign) for t, sign in versal._quadric_phi_terms(n, j, l, k, m)),
                *((t, -sign) for t, sign in versal._quadric_phi_terms(k, j, l, i, n)),
                *versal._quadric_phi_terms(m, j, l, i, n),
            )


@pytest.mark.parametrize("n", range(4, 10))
def test_phi_basis_vectors_match_the_sorted_key_oracle(n):
    basis = versal._phi_basis(n)
    sums = [versal._quadric_phi_terms(*q) for q in quadric_index_set(n)]
    if n >= 6:
        sums.extend(_four_term_sums(n))
    for terms in sums:
        got = versal._phi_vector(basis, terms)
        assert list(got.items()) == list(_sorted_key_phi_vector(terms).items())


@pytest.mark.parametrize("n", range(4, 10))
def test_phi_basis_maps_each_ordered_triple_to_its_sorted_triple(n):
    basis = versal._phi_basis(n)
    assert len(basis) == 6 * math.comb(n, 3)
    assert set(basis) == set(itertools.permutations(range(1, n + 1), 3))
    assert all(v == tuple(sorted(t)) for t, v in basis.items())
    with pytest.raises(KeyError):
        versal._phi_vector(basis, (((1, 2, 1), 1),))


def test_identity_checkers_expand_no_quadric(monkeypatch):
    def refuse(*args):
        raise AssertionError("a quadric was expanded")

    monkeypatch.setattr(versal, "_phi_sum", refuse)
    monkeypatch.setattr(versal, "_quadric", refuse)
    assert quadric_symmetry_failures(6) == []
    assert four_term_failures(6) == []


def test_identity_checkers_fail_on_dependent_phis(monkeypatch, fresh_caches):
    # phi_123 := phi_124 for every ordering of (1, 2, 3): phi stays
    # symmetric, but the phi_abc are no longer independent
    original = versal._phi

    def merged(reg, i, j, k):
        return original(reg, 1, 2, 4) if sorted((i, j, k)) == [1, 2, 3] else original(reg, i, j, k)

    monkeypatch.setattr(versal, "_phi", merged)
    assert not phi_symmetry_failures(6)
    with pytest.raises(versal.CertificateError, match="not independent"):
        quadric_symmetry_failures(6)
    with pytest.raises(versal.CertificateError, match="not independent"):
        four_term_failures(6)
    checks = {c.id: c for c in run_suite("identities", (6, 6)).checks}
    for cid in ("quadric-symmetry-n6", "four-term-n6"):
        assert checks[cid].status == "FAIL"
        assert "not independent" in checks[cid].details


def test_family_checkers_catch_an_added_generator_term(monkeypatch, fresh_caches):
    original = versal._family_gen

    def shifted(n, i, j, l, k):
        p = original(n, i, j, l, k)
        return p + parse("z1^2", p.reg) if (i, j, l, k) == (1, 2, 3, 4) else p

    monkeypatch.setattr(versal, "_family_gen", shifted)
    assert family_expanded_failures(5)
    assert family_k_change_failures(5)
    assert not verify_flatness(5).ok


def _four_product_family_gen(n, i, j, l, k):
    """The family generator with all four of its products written out,
    an oracle that shares no code with ``_pair_gen``."""
    reg = versal.versal_registry(n)

    def z(m):
        return Polynomial.var(reg, f"z{m}")

    def a(p, q):
        return Polynomial.var(reg, f"a_{p}_{q}")

    return sum_of_products(reg, (
        (1, z(i) - a(i, j), z(j) - a(j, i)),
        (-1, a(i, k) - a(i, j), a(j, k) - a(j, i)),
        (-1, z(i) - a(i, l), z(l) - a(l, i)),
        (1, a(i, k) - a(i, l), a(l, k) - a(l, i)),
    ))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_family_generator_is_a_difference_of_pair_generators(n):
    for i, j, l, k in itertools.permutations(range(1, n + 1), 4):
        expected = _four_product_family_gen(n, i, j, l, k)
        assert versal._family_gen(n, i, j, l, k) == expected, (i, j, l, k)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pair_generator_is_the_axes_generator(n):
    reg = build_registry(nz=n, npairs=n, ordered_pairs=True)

    def z(m):
        return Polynomial.var(reg, f"z{m}")

    def a(p, q):
        return Polynomial.var(reg, f"a_{p}_{q}")

    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        axes = (z(i) - a(i, j)) * (z(j) - a(j, i)) - (a(i, k) - a(i, j)) * (a(j, k) - a(j, i))
        assert versal._pair_gen(reg, i, j, k) == axes, (i, j, k)


def test_k_change_is_nontrivial():
    # the quadric the generator moves by is itself nonzero
    q = base_quadric(1, 2, 3, 4, 5, 5)
    assert not q.is_zero()
    diff = family_generator(1, 2, 3, 5, k=4) - family_generator(1, 2, 3, 5, k=5)
    assert not diff.is_zero()


def test_index_set_sizes():
    for n in (4, 5, 6):
        assert len(family_index_set(n)) == n * (n - 1) * (n - 2) // 2
        per_i = 3 * len(list(itertools.combinations(range(n - 1), 4)))
        assert len(quadric_index_set(n)) == n * per_i


def test_index_validation():
    with pytest.raises(ValueError):
        phi(1, 1, 2, 4)
    with pytest.raises(ValueError):
        phi(1, 2, 5, 4)
    with pytest.raises(ValueError):
        base_quadric(1, 2, 3, 4, 4, 5)
    with pytest.raises(ValueError):
        family_generator(1, 2, 3, 3)
    with pytest.raises(ValueError):
        family_generator(1, 2, 3, 5, k=2)
    assert canonical_fourth_index(1, 2, 4, 5) == 3


def test_phi_is_symmetric_spotcheck():
    assert phi(3, 1, 2, 4) == phi(1, 2, 3, 4)
    assert phi(2, 3, 1, 4) == phi(1, 2, 3, 4)


# ---------------------------------------------------------------------------
# tangent and obstruction spaces


@pytest.mark.parametrize("n,dim", [(4, 6), (5, 10)])
def test_t1_dimension(n, dim):
    res = t1_compute(n)
    assert res.dimension == dim
    assert res.by_degree == {-1: dim, -2: 0}
    assert res.basis_ok
    assert len(res.basis) == dim


_T1_DETAIL_KEYS = (
    "unknowns_deg1", "condition_rank_deg1", "solution_dim_deg1", "trivial_rank_deg1",
    "unknowns_deg2", "condition_rank_deg2", "solution_dim_deg2",
)
_T1_DETAIL = {
    4: (24, 10, 14, 8, 6, 5, 1),
    5: (50, 30, 20, 10, 10, 9, 1),
    6: (90, 63, 27, 12, 15, 14, 1),
    7: (147, 112, 35, 14, 21, 20, 1),
    8: (224, 180, 44, 16, 28, 27, 1),
    9: (324, 270, 54, 18, 36, 35, 1),
    10: (450, 385, 65, 20, 45, 44, 1),
    11: (605, 528, 77, 22, 55, 54, 1),
}
_T1_DIMENSION = {4: 6, 5: 10, 6: 15, 7: 21, 8: 28, 9: 36, 10: 45, 11: 55}


@pytest.mark.parametrize("n", sorted(_T1_DETAIL))
def test_t1_detail_frozen(n):
    res = t1_compute(n)
    assert dict(res.detail) == dict(zip(_T1_DETAIL_KEYS, _T1_DETAIL[n]))
    assert res.dimension == _T1_DIMENSION[n]
    assert res.by_degree == {-1: _T1_DIMENSION[n], -2: 0}


def test_t1_depends_on_relation_vectors(monkeypatch):
    real = versal.relations

    def poisoned(n):
        # the basis check rejects a poisoned vector (see test_curves), so
        # the first basis vector is poisoned after the check has run
        fam = real(n)
        (slot, entry), *rest = fam.basis[0]
        broken = dataclasses.replace(fam)
        vars(broken)["basis"] = (((slot, -entry), *rest),) + fam.basis[1:]
        return broken

    monkeypatch.setattr(versal, "relations", poisoned)
    t1_compute.cache_clear()
    try:
        for n, dim in ((4, 6), (5, 10)):
            res = t1_compute(n)
            assert not res.basis_ok
            assert res.dimension != dim
    finally:
        t1_compute.cache_clear()


def _t1_from_every_relation_vector(n, monkeypatch):
    """The oracle: t1_compute with every relation vector lifted in both
    weights instead of the relation basis."""
    with monkeypatch.context() as m:
        m.setattr(RelationFamily, "basis", property(lambda fam: fam.vectors))
        t1_compute.cache_clear()
        try:
            return t1_compute(n)
        finally:
            t1_compute.cache_clear()


@pytest.mark.parametrize("n", range(4, 13))
def test_t1_from_the_relation_basis_matches_every_vector(n, monkeypatch):
    oracle = _t1_from_every_relation_vector(n, monkeypatch)
    assert len(relations(n).basis) < len(relations(n).vectors)
    # every field, the condition ranks of both weights among the details
    assert t1_compute(n) == oracle


def _linear_rows(vectors):
    return [{(p, mono): c for p, entry in vec for mono, c in entry.terms.items()} for vec in vectors]


@pytest.mark.parametrize("n", range(4, 10))
def test_relation_basis_is_independent_and_spans_every_vector(n):
    fam = relations(n)
    span = Span()
    assert span.add(_linear_rows(fam.basis)) == len(fam.basis) == fam.expected_rank
    for row in _linear_rows(fam.vectors):
        assert not span.elim.reduce(span.columns(row))


# sha256 of the rows t1_compute(n) gives SparseEliminator.add, one
# repr(sorted(row.items())) line each, in the order given; the row order
# sets the fill-in of the elimination.  The rows are those of the relation
# basis, which gives the same T1Result as every relation vector (the
# oracle above)
_T1_ROWS_SHA256 = {
    4: "ca0dc51a9efacce24d530ee71fe4b219150400b2874ced148a10bb3ac9be7f81",
    5: "05ace4427c7057be6764992693ee24656c5a479fc2639ac665cda7c6b2d85dfa",
    6: "f7561cca07ba137b261924e6401a9dbd4772a4e30c5298a220cd0c8d8285aa12",
    7: "5451a7b03f5d619cf2425b88ebe3ee7007d586345912665b50dbde4267dd1522",
    8: "0841baf374da08f6a31e24a4c214a7e86948bec46554e76ae4b67b59e64ae15e",
}


@pytest.mark.parametrize("n", sorted(_T1_ROWS_SHA256))
def test_t1_lifting_rows_are_pinned(n, monkeypatch):
    # built first: buchberger and the relation basis feed SparseEliminator too
    versal._lines_gb(n, DEFAULT_BUDGET)
    relations(n).basis
    digest = hashlib.sha256()
    real = versal.SparseEliminator.add

    def recording(self, row):
        digest.update((repr(sorted(row.items())) + "\n").encode())
        return real(self, row)

    monkeypatch.setattr(versal.SparseEliminator, "add", recording)
    t1_compute.cache_clear()
    try:
        t1_compute(n)
    finally:
        t1_compute.cache_clear()
    assert digest.hexdigest() == _T1_ROWS_SHA256[n]


def test_t1_rejects_small_n():
    with pytest.raises(ValueError):
        t1_compute(3)


@pytest.mark.parametrize("n,dim", [(n, t2_formula(n)) for n in range(4, 17)])
def test_t2_dimension(n, dim):
    assert t2_dimension(n) == dim


@pytest.mark.parametrize("n", range(4, 11))
def test_t2_dimension_matches_full_family_rank(n):
    """The oracle: the rank of every base quadric over the monomials."""
    assert t2_dimension(n) == span_rank(base_ideal(n).generators)


def test_t2_certificate_fails_on_a_flipped_phi_sign(monkeypatch):
    n = 7
    bad = quadric_index_set(n)[0]
    original = versal._quadric_phi_terms

    def flipped(*q):
        terms = original(*q)
        if q != bad:
            return terms
        (t, sign), *rest = terms
        return ((t, -sign), *rest)

    before = base_quadric(*bad, n)
    monkeypatch.setattr(versal, "_quadric_phi_terms", flipped)
    assert base_quadric(*bad, n) != before
    lower, upper = t2_formula(n), t2_formula(n) + 3
    bounds = f"lower bound {lower}, upper bound {upper}$"
    vectors = versal._phi_coordinates(versal._phi_basis(n), n)
    with pytest.raises(versal.CertificateError, match=bounds):
        versal._bounded_rank(n, vectors, "T2")
    with pytest.raises(ValueError, match=bounds):
        t2_dimension(n)


def test_t2_certificate_fails_on_a_dropped_lead():
    n = 7
    vectors = list(versal._phi_coordinates(versal._phi_basis(n), n))
    lead = max(vectors[0])
    upper = t2_formula(n)
    with pytest.raises(versal.CertificateError, match=f"lower bound {upper - 1}, upper bound {upper}$"):
        versal._bounded_rank(n, [v for v in vectors if max(v) != lead], "T2")


def test_t2_certificate_fails_on_dependent_phis(monkeypatch):
    n = 6
    original = versal._phi

    def merged(reg, i, j, k):
        return original(reg, 1, 2, 4) if sorted((i, j, k)) == [1, 2, 3] else original(reg, i, j, k)

    monkeypatch.setattr(versal, "_phi", merged)
    assert not phi_symmetry_failures(n)
    with pytest.raises(versal.CertificateError, match="not independent"):
        versal._phi_basis(n)
    with pytest.raises(ValueError, match="not independent"):
        t2_dimension(n)
    with pytest.raises(versal.CertificateError, match="not independent"):
        base_equals_total(n)
    # the step runs the certificate at level n only, the oracle at n - 1 first
    kind, message = _outcome(base_equals_total, n)
    assert kind is _outcome(_five_pass_base_equals_total, n)[0]
    assert message.startswith(f"n={n}: the phi_abc are not independent")


@pytest.mark.parametrize("reader", [
    lambda: t2_dimension(6),
    lambda: quadric_symmetry_failures(6),
    lambda: four_term_failures(6),
    lambda: base_equals_total(6),
])
def test_every_phi_coordinate_reader_needs_the_certificate(monkeypatch, reader):
    def refuse(n):
        raise versal.CertificateError("refused")

    monkeypatch.setattr(versal, "_phi_basis", refuse)
    with pytest.raises(versal.CertificateError, match="refused"):
        reader()


def test_induction_checks_phi_independence_once_per_level(monkeypatch):
    """Once, at n: the level n - 1 ring embeds by name into the level n
    ring, so the level-n certificate covers the carried system."""
    calls = []
    original = versal.phi_symmetry_failures

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(versal, "phi_symmetry_failures", counting)
    bases = []
    original_basis = versal._phi_basis
    monkeypatch.setattr(versal, "_phi_basis", lambda n: bases.append(n) or original_basis(n))
    assert base_equals_total(6).ok
    assert calls == [6]
    assert bases == [6]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_induction_substitution_multiplies_nothing(monkeypatch, n):
    """The family generators have degree 2 and z_m -> a_mn maps each
    variable to one variable, so every term goes to the kernel as its
    two image factors, with no product built ahead."""
    breg = base_registry(n)
    assign = {f"z{m}": versal._av(breg, m, n) for m in range(1, n)}
    gens = [family_generator(i, j, l, n - 1) for (i, j, l) in family_index_set(n - 1)]
    calls = []
    original = Polynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    for g in gens:
        substitute(g, assign, target=breg)
    assert calls == []


@pytest.mark.parametrize("n", [5, 6])
def test_minimal_system_spans_all_quadrics(n):
    minimal = minimal_base_quadrics(n)
    assert len(minimal) == n * (n - 1) * (n - 2) // 6 - n
    full = list(base_ideal(n).generators)
    assert span_rank(minimal) == len(minimal)
    assert span_rank(minimal + full) == span_rank(minimal)


def test_minimal_system_empty_at_n4():
    assert minimal_base_quadrics(4) == []
    assert t2_dimension(4) == 0


# ---------------------------------------------------------------------------
# flatness


def _combination(n, i, k, j, l):
    """The six-term combination of the relation of (i, k, j, l), written
    out with the canonical auxiliary indices."""
    reg = versal_registry(n)
    z, a = versal._zv, versal._av
    return sum_of_products(reg, (
        (1, z(reg, k), family_generator(i, j, l, n)),
        (-1, z(reg, i), family_generator(k, j, l, n)),
        (-1, a(reg, i, j), family_generator(k, i, j, n)),
        (1, a(reg, i, l), family_generator(k, i, l, n)),
        (1, a(reg, k, j), family_generator(i, k, j, n)),
        (-1, a(reg, k, l), family_generator(i, k, l, n)),
    ))


def _generator_triples(i, k, j, l):
    """The triples of the six generators the combination of (i, k, j, l)
    reads, in the order of ``_combination``."""
    return [(i, j, l), (k, j, l), (k, i, j), (k, i, l), (i, k, j), (i, k, l)]


def _cofactor_sum(n, cert):
    """The certificate's cofactors multiplied out: the sum of
    sign * v * base quadric."""
    reg = versal_registry(n)
    total = Polynomial.zero(reg)
    for sign, v, quadric in cert.cofactors:
        name = f"z{v[0]}" if len(v) == 1 else f"a_{v[0]}_{v[1]}"
        lifted = substitute(base_quadric(*quadric, n), {}, target=reg)
        total = total + sign * parse(name, reg) * lifted
    return total


def _mixed_base_gb(n):
    """The Groebner basis of the minimal base ideal transported into the
    full ring, under a block order whose trailing block holds the
    parameters.  Leading terms are untouched by the transport, so the
    basis property carries over, and normal forms only ever rewrite
    parameter coefficients."""
    vreg = versal_registry(n)
    outer = [nm for nm in vreg.names if not nm.startswith("a_")]
    gb = versal._base_gb(n)
    lifted = tuple(substitute(p, {}, target=vreg) for p in gb.basis)
    return GroebnerBasis(registry=vreg, order=block_order(vreg, outer), basis=lifted, stats=gb.stats)


def _groebner_lift_verdicts(n):
    """The Groebner oracle: whether each quadruple's combination reduces
    to zero modulo the transported base basis."""
    gbx = _mixed_base_gb(n)
    return {q: normal_form(_combination(n, *q), gbx).is_zero() for q in _relation_quadruples(n)}


def _literal_flatness(n):
    """The oracle: every relation lifted literally at level n, after the
    same phi and minimal-rank certificates, as ``verify_flatness`` did at
    every n before its lifts were transported from levels 4 and 5."""
    basis = versal._phi_basis(n)
    versal._bounded_rank(n, (versal._phi_vector(basis, q) for q in versal._minimal_phi_terms(n)), "minimal")
    return versal._lift(n, basis)


def _lift_verdicts(n):
    return {c.quadruple: c.ok for c in _literal_flatness(n)}


def _failing(certificates):
    return {c.quadruple: c.residual for c in certificates if not c.ok}


def test_flatness_n4_lifts_literally():
    rep = verify_flatness(4)
    assert rep.ok
    assert len(rep.certificates) == 6
    for cert in rep.certificates:
        assert cert.cofactors == ()
        assert _combination(4, *cert.quadruple).is_zero()


def test_flatness_n5_reduces_to_zero():
    rep = verify_flatness(5)
    assert rep.ok
    assert len(rep.certificates) == 30
    for cert in rep.certificates:
        assert cert.combination is None and cert.residual is None
        assert _combination(5, *cert.quadruple) == _cofactor_sum(5, cert)
    # the base ideal does real work: some combination is nonzero upstairs
    assert any(cert.cofactors for cert in rep.certificates)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_flatness_agrees_with_the_groebner_oracle(n):
    verdicts = _lift_verdicts(n)
    assert verdicts == _groebner_lift_verdicts(n)
    assert all(verdicts.values())
    assert verify_flatness(n).ok


@pytest.mark.parametrize("n", range(4, 13))
def test_transported_flatness_agrees_with_the_literal_oracle(n):
    rep = verify_flatness(n)
    oracle = _literal_flatness(n)
    assert rep.ok == all(c.ok for c in oracle)
    assert _failing(rep.certificates) == _failing(oracle)
    assert rep.relations == len(oracle) == len(_relation_quadruples(n))
    assert rep.certificates == (oracle if n <= 5 else ())


@pytest.mark.parametrize("n", range(4, 15))
def test_each_quadruple_is_a_renamed_level_four_or_five_quadruple(n):
    """The index lemma behind the transport: the relation of Q reads the
    indices S = Q plus a, the smallest index outside Q, when a < max Q,
    else Q; the order-preserving sigma of S onto 1..|S| fixes every
    canonical index and carries the lift terms of Q to those of sigma(Q)
    at level |S|; and the sigma(Q) are the 30 quadruples of levels 4
    and 5, up to the six of level 4 seen again at level 5."""
    classes = set()
    for q in _relation_quadruples(n):
        terms = versal._lift_terms(*q)
        canonical = {canonical_fourth_index(*xyw, n) for _, _, xyw, _ in terms}
        outside = min(set(range(1, n + 2)) - set(q))
        S = set(q) | canonical
        assert S == (set(q) | {outside} if outside < max(q) else set(q))
        assert len(S) <= 5
        sigma = {v: r for r, v in enumerate(sorted(S), 1)}
        assert all(sigma[c] == c for c in canonical)
        rep = tuple(sigma[v] for v in q)
        assert rep in _relation_quadruples(len(S))
        renamed = [(sign, tuple(sigma[v] for v in mult), tuple(sigma[v] for v in xyw), sigma[o])
                   for sign, mult, xyw, o in terms]
        assert renamed == list(versal._lift_terms(*rep))
        assert [canonical_fourth_index(*xyw, len(S)) for _, _, xyw, _ in renamed] == [
            canonical_fourth_index(*xyw, n) for _, _, xyw, _ in terms]
        classes.add(rep)
    assert len(classes) == (6 if n == 4 else 30)
    level4 = set(_relation_quadruples(4))
    assert classes <= level4 | set(_relation_quadruples(5))
    assert len(level4 | set(_relation_quadruples(5))) == 30


def test_flatness_fails_the_quadruples_of_a_perturbed_generator(monkeypatch, fresh_caches):
    """A term added to F(1, 2, 9) at n=10, past any fixed small level,
    fails exactly the quadruples whose six products use that generator,
    each with the term, times its multiplier, as the residual."""
    n, target = 10, (1, 2, 9)
    original = versal._family_gen

    def shifted(m, i, j, l, k):
        p = original(m, i, j, l, k)
        return p + parse("z9^2", p.reg) if (m, i, j, l) == (n, *target) else p

    monkeypatch.setattr(versal, "_family_gen", shifted)
    users = {q for q in _relation_quadruples(n) if target in _generator_triples(*q)}
    assert versal._transport_break(n) == f"F{target} at n={n} is not its renamed representative"
    rep = verify_flatness(n)
    assert {c.quadruple for c in rep.certificates if not c.ok} == users
    assert users and len(users) < len(rep.certificates) == rep.relations
    assert _failing(rep.certificates) == _failing(_literal_flatness(n))
    assert _lift_verdicts(n) == _groebner_lift_verdicts(n)
    for cert in rep.certificates:
        if not cert.ok:
            assert cert.combination == _combination(n, *cert.quadruple)
            assert cert.residual == cert.combination - _cofactor_sum(n, cert)
            assert len(cert.residual.terms) == 1


def test_flatness_fails_a_phi_rescaled_above_the_representatives(monkeypatch, fresh_caches):
    """phi_678 doubled: the generators, built from pair generators and
    not from phi, still match their representatives, so only the phi
    renaming check sees that the cofactor quadrics at level 8 changed;
    the literal lift at level 8 then fails exactly the relations whose
    cofactor quadrics read phi_678."""
    n = 8
    original = versal._phi

    def scaled(reg, i, j, k):
        p = original(reg, i, j, k)
        return 2 * p if sorted((i, j, k)) == [6, 7, 8] else p

    monkeypatch.setattr(versal, "_phi", scaled)
    assert versal._transport_break(n) == "phi(6, 7, 8) at n=8 is not the renamed phi(1, 2, 3)"
    (check,) = run_suite("flatness", (n, n)).checks
    assert check.status == "FAIL"
    rep = verify_flatness(n)
    assert not rep.ok
    failing = _failing(rep.certificates)
    assert failing and failing == _failing(_literal_flatness(n))
    readers = {
        c.quadruple for c in rep.certificates
        if any(sorted(t) == [6, 7, 8] for _, _, q in c.cofactors for t, _ in versal._quadric_phi_terms(*q))
    }
    assert set(failing) == readers


def test_flatness_fails_a_generator_perturbed_only_at_level_five(monkeypatch, fresh_caches):
    """F(1, 2, 5) changed at n=5 alone: every level-8 generator is intact
    and the literal lift at level 8 passes, but the transport reads the
    level-5 lifts, so flatness at n=8 is not certified.  The level-5
    generators are also checked against their level-4 representatives
    on their own: a level-5 lift that passed with a generator that is
    not the renamed representative would certify nothing at level 8."""
    original = versal._family_gen

    def shifted(m, i, j, l, k):
        p = original(m, i, j, l, k)
        return p + parse("z5^2", p.reg) if (m, i, j, l) == (5, 1, 2, 5) else p

    monkeypatch.setattr(versal, "_family_gen", shifted)
    assert all(c.ok for c in _literal_flatness(8))
    (check,) = run_suite("flatness", (8, 8)).checks
    assert check.status == "FAIL"
    assert check.details == "n=8: flatness not transported, the relation of (1, 2, 3, 5) does not lift at n=5"
    monkeypatch.setattr(versal, "_lift", lambda m, basis: ())
    assert versal._transport_break(8) == "F(1, 2, 5) at n=5 is not its renamed representative"


def test_flatness_is_not_certified_without_a_minimal_quadric(monkeypatch, fresh_caches):
    n = 7
    original = versal._minimal_phi_terms
    monkeypatch.setattr(versal, "_minimal_phi_terms", lambda m: original(m)[1:] if m == n else original(m))
    (check,) = run_suite("flatness", (n, n)).checks
    assert check.status == "FAIL"
    assert check.details == f"n={n}: minimal rank not certified, lower bound 27, upper bound 28"
    assert not all(_groebner_lift_verdicts(n).values())


def test_flatness_fails_on_dependent_phis(monkeypatch, fresh_caches):
    n = 6
    original = versal._phi

    def merged(reg, i, j, k):
        return original(reg, 1, 2, 4) if sorted((i, j, k)) == [1, 2, 3] else original(reg, i, j, k)

    monkeypatch.setattr(versal, "_phi", merged)
    (check,) = run_suite("flatness", (n, n)).checks
    assert check.status == "FAIL"
    assert "not independent" in check.details
    assert not all(_groebner_lift_verdicts(n).values())


def test_flatness_fails_cofactor_quadrics_outside_the_minimal_span(monkeypatch):
    """The cofactors still multiply out to the combinations, but their
    phi-coordinates, phi_ijk - phi_ilk, have incidence sum 1 at k."""
    terms = versal._quadric_phi_terms
    monkeypatch.setattr(versal, "_quadric", lambda reg, *q: versal._phi_sum(reg, terms(*q)))
    monkeypatch.setattr(versal, "_quadric_phi_terms", lambda i, j, l, k, m: terms(i, j, l, k, m)[:2])
    rep = verify_flatness(5)
    assert {c.quadruple for c in rep.certificates if not c.ok} == {
        c.quadruple for c in rep.certificates if c.cofactors}
    assert all(c.residual.is_zero() for c in rep.certificates if not c.ok)


def test_flatness_reads_no_groebner_basis(monkeypatch, fresh_caches):
    calls = Counter()
    for mod in (groebner, versal):
        for name in ("buchberger", "normal_form"):
            original = getattr(mod, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counting)
    assert verify_flatness(7).ok
    assert calls == Counter()
    # the wrappers do see the engine: the T1 conditions reduce modulo a basis
    t1_compute(4)
    assert calls["buchberger"] and calls["normal_form"]


# ---------------------------------------------------------------------------
# base of level n = total space of level n-1


@pytest.mark.parametrize(
    "n,carried,combined", [(5, 0, 5), (6, 5, 14)]
)
def test_induction_step(n, carried, combined):
    rep = base_equals_total(n)
    assert rep.ok
    assert rep.substitution_matches
    assert rep.carried_rank == carried
    assert rep.combined_rank == combined
    assert rep.new_rank == n * (n - 3) // 2
    assert rep.ideal_equal_ok


def test_induction_rejects_small_n():
    with pytest.raises(ValueError):
        base_equals_total(4)


def test_induction_catches_a_flipped_generator_term(monkeypatch):
    n = 6
    original = versal._family_gen

    def flipped(m, i, j, l, k):
        p = original(m, i, j, l, k)
        if (i, j, l) != (1, 2, 3):
            return p
        mono = next(iter(p.terms))
        return Polynomial(p.reg, {**p.terms, mono: -p.terms[mono]})

    monkeypatch.setattr(versal, "_family_gen", flipped)
    rep = base_equals_total(n)
    assert dataclasses.asdict(rep) == _outcome(_five_pass_base_equals_total, n)
    assert not rep.substitution_matches
    assert rep.mismatches == ((1, 2, 3, 4),)
    assert not rep.ok


def _five_pass_base_equals_total(n):
    """``base_equals_total`` as it was while it also ranked the union of
    the combined and the target system and every base quadric (T2).
    Kept as the oracle of the three-pass step."""
    if n < 5:
        raise ValueError("need n >= 5")
    prev = n - 1
    breg = base_registry(n)
    prev_basis, basis = versal._phi_basis(prev), versal._phi_basis(n)
    assign = {f"z{m}": versal._av(breg, m, n) for m in range(1, n)}

    substituted = []
    mismatches = []
    for (i, j, l) in family_index_set(prev):
        k = canonical_fourth_index(i, j, l, prev)
        s = substitute(family_generator(i, j, l, prev), assign, target=breg)
        if s != versal._quadric(breg, i, j, l, n, k):
            mismatches.append((i, j, l, k))
        substituted.append(versal._phi_vector(basis, versal._quadric_phi_terms(i, j, l, n, k)))

    carried = [versal._phi_vector(prev_basis, q) for q in versal._minimal_phi_terms(prev)]
    target = [versal._phi_vector(basis, q) for q in versal._minimal_phi_terms(n)]
    combined = carried + substituted
    bounded = versal._bounded_rank
    carried_rank = bounded(prev, carried, "carried")
    combined_rank = bounded(n, combined, "combined")
    new_rank = combined_rank - carried_rank
    expected_new = n * (n - 3) // 2
    target_rank = bounded(n, target, "target")
    eq = combined_rank == target_rank == bounded(n, combined + target, "combined and target")
    ok = (
        not mismatches
        and new_rank == expected_new
        and combined_rank == bounded(n, versal._phi_coordinates(basis, n), "T2")
        and eq
    )
    return versal.InductionReport(
        n=n,
        substitution_matches=not mismatches,
        mismatches=tuple(mismatches),
        carried_rank=carried_rank,
        combined_rank=combined_rank,
        new_rank=new_rank,
        expected_new_rank=expected_new,
        ideal_equal_ok=eq,
        ok=ok,
    )


def _outcome(step, n):
    """The report of ``step(n)`` as a dict of its fields, or the type and
    message of the error it raises."""
    try:
        return dataclasses.asdict(step(n))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(5, 13))
def test_induction_agrees_with_the_five_pass_oracle(n):
    outcome = _outcome(base_equals_total, n)
    assert outcome == _outcome(_five_pass_base_equals_total, n)
    assert outcome["ok"]


def test_induction_ranks_only_the_systems_it_builds(monkeypatch):
    """No rank of the union of the combined and the target system, and
    none of the base quadrics outside the step's systems."""
    n = 7
    ranked = []
    original = versal._bounded_rank

    def recording(m, vectors, what):
        vectors = list(vectors)
        ranked.append((m, what, len(vectors)))
        return original(m, vectors, what)

    monkeypatch.setattr(versal, "_bounded_rank", recording)
    assert base_equals_total(n).ok
    carried = len(versal._minimal_phi_terms(n - 1))
    assert ranked == [
        (n - 1, "carried", carried),
        (n, "combined", carried + len(family_index_set(n - 1))),
        (n, "target", len(versal._minimal_phi_terms(n))),
    ]


@pytest.mark.parametrize("level,what", [(0, "target"), (1, "carried")])
def test_induction_certificate_fails_on_a_dropped_minimal_quadric(monkeypatch, level, what):
    """Dropping one quadric of the minimal system of level n - level
    loses one lead, while no incidence functional stops vanishing."""
    n = 7
    original = versal._minimal_phi_terms
    dropped = n - level
    size = len(original(dropped))
    monkeypatch.setattr(
        versal, "_minimal_phi_terms", lambda m: original(m)[1:] if m == dropped else original(m)
    )
    match = f"n={dropped}: {what} rank not certified, lower bound {size - 1}, upper bound {size}"
    assert _outcome(base_equals_total, n) == _outcome(_five_pass_base_equals_total, n)
    with pytest.raises(versal.CertificateError, match=match):
        base_equals_total(n)


# ---------------------------------------------------------------------------
# Pfaffian presentation of the degree-5 base


def test_pfaffian_presentation():
    rep = pfaffian_check()
    assert rep.ok
    assert rep.expansion_consistent
    assert rep.all_quadratic
    assert rep.ideal_equal_ok
    assert len(rep.pfaffians) == 5


# ---------------------------------------------------------------------------
# ideal equalities between quadric systems, decided in degree 2


def _induction_systems(n):
    """The substituted and the carried quadrics of the level-n
    induction step, as polynomials of the level-n base ring."""
    breg = base_registry(n)
    assign = {f"z{m}": Polynomial.var(breg, f"a_{m}_{n}") for m in range(1, n)}
    substituted = [
        substitute(family_generator(i, j, l, n - 1), assign, target=breg)
        for (i, j, l) in family_index_set(n - 1)
    ]
    carried = [substitute(p, {}, target=breg) for p in minimal_base_quadrics(n - 1)]
    return substituted, carried


def quadric_ideals_equal(V, W):
    """The span oracle: whether the quadrics V and W generate the same
    ideal, decided by ranks over the monomials.  The degree-2 part of an
    ideal generated by quadrics is their span, so this holds exactly
    when rank V = rank W = rank(V + W).  False also when an input is
    zero or not a homogeneous quadric."""
    quadrics = all(p and all(mono_degree(m) == 2 for m in p.terms) for p in (*V, *W))
    return quadrics and span_rank(V) == span_rank(W) == span_rank([*V, *W])


def test_ideal_equalities_need_no_groebner_basis(monkeypatch):
    versal._base_gb.cache_clear()
    calls = _record_buchberger(monkeypatch)
    assert base_equals_total(6).ok
    assert pfaffian_check().ok
    assert calls == []


def test_induction_eliminates_no_quadric(monkeypatch):
    """Every row eliminated during the induction step is an incidence
    functional keyed by sorted triples: n - 1 for the carried rank and n
    for each of the combined and target ranks.  No quadric and no
    phi_abc is eliminated over the monomials."""
    from versaldef.linalg import Span, SparseEliminator

    n = 6
    keyed, rows = [], []
    columns, add = Span.columns, SparseEliminator.add
    monkeypatch.setattr(Span, "columns", lambda self, row: keyed.append(row) or columns(self, row))
    monkeypatch.setattr(
        SparseEliminator, "add", lambda self, row: rows.append(row) or add(self, row)
    )
    report = base_equals_total(n)
    assert report.ok
    assert len(rows) == len(keyed) == (n - 1) + 2 * n
    for row in keyed:
        assert all(len(key) == 3 and list(key) == sorted(set(key)) for key in row), row
        assert all(isinstance(t, int) for key in row for t in key), row
        assert set(row.values()) == {1}
    substituted, carried = _induction_systems(n)
    assert report.carried_rank == span_rank(carried)
    assert report.combined_rank == span_rank(carried + substituted)


@pytest.mark.parametrize("n", range(5, 13))
def test_induction_matches_span_oracle(n):
    substituted, carried = _induction_systems(n)
    report = base_equals_total(n)
    assert report.carried_rank == span_rank(carried)
    assert report.combined_rank == span_rank(carried + substituted)
    assert report.ideal_equal_ok == quadric_ideals_equal(
        substituted + carried, minimal_base_quadrics(n)
    )
    assert report.ideal_equal_ok


def _perturbed(p):
    """p with the coefficient of its first term raised by one."""
    mono = next(iter(p.terms))
    return Polynomial(p.reg, {**p.terms, mono: p.terms[mono] + 1})


def test_quadric_ideal_equality_mutation_guard():
    substituted, carried = _induction_systems(6)
    target = minimal_base_quadrics(6)
    assert quadric_ideals_equal(substituted + carried, target)
    assert quadric_ideals_equal(target, substituted + carried)
    # the carried system alone spans too little
    assert not quadric_ideals_equal(carried, target)
    assert not quadric_ideals_equal(target, carried)
    # one coefficient of one substituted quadric perturbed, for each quadric
    for k, s in enumerate(substituted):
        mutated = substituted[:k] + [_perturbed(s)] + substituted[k + 1:]
        assert not quadric_ideals_equal(mutated + carried, target), k
        assert not quadric_ideals_equal(target, mutated + carried), k
    # as many independent quadrics as the target, one of them perturbed
    for k, q in enumerate(target):
        mutated = target[:k] + [_perturbed(q)] + target[k + 1:]
        assert span_rank(mutated) == span_rank(target)
        assert not quadric_ideals_equal(mutated, target), k
    # anything but nonzero quadrics is refused, even where the spans agree
    a12 = Polynomial.var(target[0].reg, "a_1_2")
    for extra in (target[0] * a12, a12, target[0] + 1, Polynomial.zero(a12.reg)):
        assert not quadric_ideals_equal(target + [extra], target + [extra])
        assert not quadric_ideals_equal(target, target + [extra])


@pytest.mark.parametrize("n", [5, 6])
def test_quadric_span_verdict_matches_groebner_engine(n):
    substituted, carried = _induction_systems(n)
    target = minimal_base_quadrics(n)
    reg = base_registry(n)
    systems = [
        substituted + carried,
        carried,
        substituted[1:] + carried,
        [_perturbed(substituted[0])] + substituted[1:] + carried,
    ]
    if n == 5:  # the engine needs ~5 s for the perturbed target at n = 6
        systems.append([_perturbed(target[0])] + target[1:])
        systems.append(list(pfaffian_check().pfaffians))
    for V in systems:
        assert quadric_ideals_equal(V, target) == (buchberger(Ideal(reg, V)) == versal._base_gb(n))
    assert quadric_ideals_equal(substituted + carried, target)


# a system missing two or more base quadrics can take the engine
# seconds, so the drawn systems miss at most one
@settings(max_examples=20, deadline=None)
@given(
    st.sets(st.integers(0, 13), max_size=1),
    st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(-2, 2)), max_size=2),
)
def test_quadric_span_verdict_matches_groebner_engine_on_subsystems(dropped, extras):
    gens = minimal_base_quadrics(6)
    V = [g for k, g in enumerate(gens) if k not in dropped]
    V += [gens[i] + c * gens[j] for i, j, c in extras if i != j]
    verdict = buchberger(Ideal(base_registry(6), V)) == versal._base_gb(6)
    assert quadric_ideals_equal(V, gens) == verdict


# ---------------------------------------------------------------------------
# smoothings


def _branch_checks(rep):
    return [c for c in rep.checks if "branch" in c.name]


@pytest.mark.parametrize("variant", [DIAGONAL, AXIS_PARABOLA])
@pytest.mark.parametrize("n", [4, 5])
def test_smoothing(variant, n):
    family, rep = smoothing_family(variant, n)
    assert rep.ok, [c for c in rep.checks if not c.ok]
    assert rep.branch_count == len(_branch_checks(rep)) == n
    assert len(family.total) == n * (n - 1) // 2
    assert family.base.generators == ()
    names = [c.name for c in rep.checks]
    assert "fiber-at-zero" in names
    if variant == DIAGONAL:
        assert "hyperbola-branch" in names
        assert "parabola-branch" in names
        assert "parameter-point-kills-phi" in names
    else:
        assert "conic-branch" in names
        assert "difference-factorization" in names


@pytest.mark.parametrize("variant,names", [
    (DIAGONAL, ["fiber-at-zero", "axis-branch-z1", "axis-branch-z2", "axis-branch-z3",
                "parabola-branch", "hyperbola-branch", "parameter-point-kills-phi"]),
    (AXIS_PARABOLA, ["fiber-at-zero", "difference-factorization", "line-branch-z1",
                     "line-branch-z2", "line-branch-z3", "line-branch-z4", "conic-branch"]),
])
def test_smoothing_check_order(variant, names):
    _, rep = smoothing_family(variant, 5)
    assert [c.name for c in rep.checks] == names


@pytest.mark.parametrize("variant", [DIAGONAL, AXIS_PARABOLA])
def test_smoothing_fiber_check_catches_a_perturbed_line(monkeypatch, variant):
    original = versal.line_generator

    def perturbed(reg, i, j):
        g = original(reg, i, j)
        return 2 * g if (i, j) == (1, 2) else g

    monkeypatch.setattr(versal, "line_generator", perturbed)
    _, rep = smoothing_family(variant, 5)
    assert [c.name for c in rep.checks if not c.ok] == ["fiber-at-zero"]


@pytest.mark.parametrize("variant", [DIAGONAL, AXIS_PARABOLA])
def test_smoothing_branch_checks_catch_a_shifted_last_coordinate(monkeypatch, fresh_caches, variant):
    n = 5
    original = versal._zv

    def shifted(reg, i):
        z = original(reg, i)
        return z + 1 if i == n else z

    monkeypatch.setattr(versal, "_zv", shifted)
    _, rep = smoothing_family(variant, n)
    assert any(not c.ok for c in _branch_checks(rep))
    assert not rep.ok


def test_smoothing_rejects_bad_input():
    with pytest.raises(ValueError):
        smoothing_family("PENCIL", 4)
    with pytest.raises(ValueError):
        smoothing_family(DIAGONAL, 3)


# ---------------------------------------------------------------------------
# elliptic monomial family


def test_elliptic_monomial_family_default():
    family, rep = elliptic_monomial_family(4)
    assert rep.ok
    assert rep.zero_fiber_ok
    assert rep.parametrization_ok
    assert len(rep.projections) == 2
    assert len(family.total) == 4 * 3 // 2 - 1  # pairs 2<=i<=j<=4 minus (2,4)
    assert len(default_projection_samples(4)) == 2


def test_elliptic_monomial_family_custom_sample():
    sample = (Fraction(1), Fraction(-2), Fraction(0), Fraction(1))
    _, rep = elliptic_monomial_family(4, samples=[sample])
    assert rep.projections == ((sample, True),)
    assert rep.ok


def test_elliptic_monomial_family_bad_sample_length():
    with pytest.raises(ValueError):
        elliptic_monomial_family(4, samples=[(1, 2)])


# ---------------------------------------------------------------------------
# coordinate axes analogue


@pytest.mark.parametrize("n", [4, 5])
def test_axes_family(n):
    rep = axes_family_report(n)
    assert rep.ok
    assert rep.parameter_count == n * (n - 1)
    assert rep.t1_dimension == n * (n - 2)
    family = axes_versal_family(n)
    assert len(family.total) == n * (n - 1) // 2


def test_axes_family_mutation_guard(monkeypatch):
    honest = axes_versal_family(5)
    reg = honest.parameters
    base = list(honest.base.generators)
    base[7] = base[7] + Polynomial.var(reg, "a_1_2") * Polynomial.var(reg, "a_3_4")
    perturbed = dataclasses.replace(honest, base=Ideal(reg, base))
    monkeypatch.setattr(versal, "axes_versal_family", lambda n: perturbed)
    rep = axes_family_report(5)
    assert rep.zero_fiber_ok
    assert not rep.k_independence_ok
    assert not rep.ok


# ---------------------------------------------------------------------------
# wedge straightening


def _eval_quadric(q, point):
    reg = q.reg
    assign = {
        f"z{m}": Polynomial.const(reg, Fraction(point[m - 1]))
        for m in range(1, len(point) + 1)
    }
    out = substitute(q, assign, target=reg)
    return out.constant_term()


def test_wedge_straightening():
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
    dw = wedge_a2_deformation(dirs, 3)
    assert dw.ok
    assert dw.r == 5
    assert dw.rank == 5
    # independent re-evaluation of the interpolation conditions
    for line in dirs[:-1]:
        assert _eval_quadric(dw.quadric, line) == 0
    assert _eval_quadric(dw.quadric, dirs[-1]) == 1


def test_wedge_degenerate_directions():
    with pytest.raises(RankDeficiencyError) as exc:
        wedge_a2_deformation([(1, 0, 0), (0, 1, 0), (1, 0, 0)], 3)
    assert exc.value.rank < exc.value.needed


def test_wedge_input_validation():
    with pytest.raises(ValueError):
        wedge_a2_deformation([(1, 0, 0)], 3)  # no target
    with pytest.raises(ValueError):
        wedge_a2_deformation([(1, 0, 0), (0, 1, 1)], 3)  # target not normalized
    with pytest.raises(ValueError):
        wedge_a2_deformation([(1, 0), (1, 1, 1)], 3)  # wrong length


# ---------------------------------------------------------------------------
# main family and serialization


def test_main_family_shapes():
    fam4 = main_family(4)
    d4 = fam4.to_json_dict()
    assert d4["n"] == 4
    assert len(d4["total"]) == 12
    assert d4["base"] == []
    assert len(d4["parameters"]) == 6

    fam5 = main_family(5)
    d5 = fam5.to_json_dict()
    assert len(d5["total"]) == 30
    assert len(d5["base"]) == 5
    assert len(d5["parameters"]) == 10


def test_base_ideal_generator_counts():
    assert len(base_ideal(5).generators) == len(quadric_index_set(5))
    assert len(base_ideal(5, minimal=True).generators) == 5


def test_nice_total_space():
    rep = nice_total_space_check()
    assert rep.ok
    assert rep.differences_ok
    assert rep.elimination_ok
