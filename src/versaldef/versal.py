"""The versal deformation of the generic-lines singularity.

The family deforms the quadric presentation of n+1 generic lines by
antisymmetric parameters a_ij (a_ji = -a_ij).  Its total space is cut
out by the generators F produced by ``family_generator`` and its base
space by the quadrics built from the fully symmetric expressions
phi_ijk = a_ij*a_ik + a_ji*a_jk + a_ki*a_kj.  All verification here is
exact: first-order deformations are solved as rational linear systems,
whose conditions are read off the generators z_i*z_j - y of the lines
(in weights 1 and 2, where every condition lives, their ideal is the
span of the generators, so no Groebner basis is read), flatness is
certified by explicit cofactors (each lifted relation equals
a sum of variables times base quadrics, term by term, with no Groebner
basis; the lifts of level 5 are built literally and carried to level
n by index renamings, once every generator and phi_abc at level n is
checked to be its renamed representative), and the explicit
smoothings and monomial-curve families are checked generator by
generator.  Every base
quadric is built from its (triple, sign) pairs, a signed sum of phi_abc.
Every linear statement about the phi_abc is decided in those
phi-coordinates, under one certificate: phi is symmetric and the phi_abc
are independent.  The certificate, ``_phi_basis``, returns the map
from ordered to sorted triples that every coordinate is read through,
so no coordinate is read without it.  The rank of the base quadrics,
the ranks of the systems the induction step builds (carried,
combined and minimal, each with rank bounds that meet), the minimal
rank and the incidence sums behind the flatness cofactors, and the
antisymmetry and four-term identities of the quadrics are read that
way, with no quadric eliminated; the induction step runs the
certificate once, at its level n, and the flatness check at its level
n and at level 5, whose lifts it transports.  The y-eliminations of
the lines and of the closed n = 4 presentation put the y-free part of
their first generator in for y and compare spans, with no Groebner
basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .curves import (
    MONOMIAL_ELLIPTIC,
    _relation_quadruples,
    axes_ideal,
    elliptic_monomial_table,
    line_generator,
    lines_ideal,
    lines_registry,
    monomial_rewrites,
    monomial_semigroup,
    relations,
)
from .groebner import (
    Budget,
    DEFAULT_BUDGET,
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    ideal_equal,
)
from .linalg import Span, SparseEliminator, in_kernel, solve
from .poly import (
    MONO_ONE, Mono, Polynomial, Scalar, VarRegistry, build_registry, mono_mul,
    parse, substitute, sum_of_products,
)

__all__ = [
    "DIAGONAL",
    "AXIS_PARABOLA",
    "DeformationFamily",
    "T1Result",
    "LiftCertificate",
    "FlatnessReport",
    "InductionReport",
    "PfaffianReport",
    "SmoothingCheck",
    "SmoothingReport",
    "MonomialFamilyReport",
    "AxesFamilyReport",
    "NiceFormulaReport",
    "WedgeDeformation",
    "RankDeficiencyError",
    "versal_registry",
    "base_registry",
    "phi",
    "base_quadric",
    "quadric_index_set",
    "family_generator",
    "family_index_set",
    "canonical_fourth_index",
    "minimal_base_quadrics",
    "base_ideal",
    "main_family",
    "t1_compute",
    "t2_dimension",
    "verify_flatness",
    "base_equals_total",
    "pfaffian_check",
    "smoothing_family",
    "elliptic_monomial_family",
    "default_projection_samples",
    "axes_versal_family",
    "axes_family_report",
    "wedge_a2_deformation",
    "nice_total_space_check",
    "phi_symmetry_failures",
    "quadric_symmetry_failures",
    "four_term_failures",
    "cocycle_failures",
    "family_expanded_failures",
    "family_k_change_failures",
    "span_rank",
    "CertificateError",
]

DIAGONAL = "DIAGONAL"
AXIS_PARABOLA = "AXIS_PARABOLA"


# ---------------------------------------------------------------------------
# registries and building blocks


@lru_cache(maxsize=None)
def versal_registry(n: int) -> VarRegistry:
    """The ring of the main family: z-variables, y and the antisymmetric
    deformation parameters.  The smoothings build their own ring."""
    return build_registry(nz=n, y=True, npairs=n)


@lru_cache(maxsize=None)
def base_registry(n: int) -> VarRegistry:
    """Parameters only."""
    return build_registry(npairs=n)


@lru_cache(maxsize=None)
def _zv(reg: VarRegistry, i: int) -> Polynomial:
    return Polynomial.var(reg, f"z{i}")


@lru_cache(maxsize=None)
def _av(reg: VarRegistry, i: int, j: int) -> Polynomial:
    return Polynomial.var(reg, f"a_{i}_{j}")


def _check_indices(n: int, *idx: int) -> None:
    if len(set(idx)) != len(idx):
        raise ValueError(f"indices must be pairwise distinct, got {idx}")
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")


@lru_cache(maxsize=None)
def _phi(reg: VarRegistry, i: int, j: int, k: int) -> Polynomial:
    return (
        _av(reg, i, j) * _av(reg, i, k)
        + _av(reg, j, i) * _av(reg, j, k)
        + _av(reg, k, i) * _av(reg, k, j)
    )


def phi(i: int, j: int, k: int, n: int) -> Polynomial:
    """The quadric a_ij*a_ik + a_ji*a_jk + a_ki*a_kj in normalized
    parameters (reversed pairs expanded through a_ji = -a_ij)."""
    _check_indices(n, i, j, k)
    return _phi(base_registry(n), i, j, k)


@lru_cache(maxsize=None)
def _pair_gen(reg: VarRegistry, i: int, j: int, k: int) -> Polynomial:
    """P_ij^k = (z_i - a_ij)(z_j - a_ji) - (a_ik - a_ij)(a_jk - a_ji).
    Over ordered parameters it is the axes generator of the pair (i, j)
    with auxiliary index k; over the antisymmetric ones (a_ji = -a_ij)
    the family generator is P_ij^k - P_il^k."""
    return sum_of_products(reg, (
        (1, _zv(reg, i) - _av(reg, i, j), _zv(reg, j) - _av(reg, j, i)),
        (-1, _av(reg, i, k) - _av(reg, i, j), _av(reg, j, k) - _av(reg, j, i)),
    ))


Triple = Tuple[int, int, int]


def _quadric_phi_terms(i: int, j: int, l: int, k: int, m: int) -> Tuple[Tuple[Triple, int], ...]:
    """The base quadric (i, j, l, k, m) as its (triple, sign) pairs,
    phi_ijk - phi_ilk - phi_ijm + phi_ilm.  ``_quadric`` sums them and the
    rank certificates read them, so the polynomial and its
    phi-coordinates cannot drift apart."""
    return (((i, j, k), 1), ((i, l, k), -1), ((i, j, m), -1), ((i, l, m), 1))


def _phi_sum(reg: VarRegistry, phi_terms: Sequence[Tuple[Triple, int]]) -> Polynomial:
    """The polynomial sum of sign * phi_t over the (triple, sign) pairs."""
    terms: Dict[Mono, int] = {}
    for t, sign in phi_terms:
        for mono, c in _phi(reg, *t).terms.items():
            acc = terms.get(mono, 0) + sign * c
            if acc:
                terms[mono] = acc
            else:
                del terms[mono]
    return Polynomial._raw(reg, terms)


def _quadric(reg: VarRegistry, i: int, j: int, l: int, k: int, m: int) -> Polynomial:
    return _phi_sum(reg, _quadric_phi_terms(i, j, l, k, m))


def base_quadric(i: int, j: int, l: int, k: int, m: int, n: int) -> Polynomial:
    """The base-space quadric phi_ijk - phi_ilk - phi_ijm + phi_ilm."""
    _check_indices(n, i, j, l, k, m)
    return _quadric(base_registry(n), i, j, l, k, m)


def canonical_fourth_index(i: int, j: int, l: int, n: int) -> int:
    """Smallest index not among i, j, l."""
    for k in range(1, n + 1):
        if k not in (i, j, l):
            return k
    raise ValueError(f"no fourth index available for n={n}")


def _family_gen(n: int, i: int, j: int, l: int, k: int) -> Polynomial:
    """F(i, j, l) with auxiliary index k, built from the cached pair
    generators on each call.  It is not cached: the flatness transport
    reads each of the n(n-1)(n-2) generators at level n once, and a
    cache would keep them all."""
    reg = versal_registry(n)
    return _pair_gen(reg, i, j, k) - _pair_gen(reg, i, l, k)


def family_generator(i: int, j: int, l: int, n: int, k: Optional[int] = None) -> Polynomial:
    """Total-space generator deforming z_i*z_j - z_i*z_l, in factored
    form, with the auxiliary index k defaulting to the smallest index
    outside {i, j, l}.  Changing k moves the generator by a base
    quadric only."""
    if n < 4:
        raise ValueError("need n >= 4")
    _check_indices(n, i, j, l)
    if k is None:
        k = canonical_fourth_index(i, j, l, n)
    else:
        _check_indices(n, i, j, l, k)
    return _family_gen(n, i, j, l, k)


def family_index_set(n: int) -> List[Tuple[int, int, int]]:
    """All (i, j, l) with j < l and i outside {j, l}."""
    out = []
    for i in range(1, n + 1):
        others = [m for m in range(1, n + 1) if m != i]
        for j, l in itertools.combinations(others, 2):
            out.append((i, j, l))
    return out


def _quadric_tuples(n: int) -> Iterator[Tuple[int, int, int, int, int]]:
    """The tuples of ``quadric_index_set``, one at a time."""
    for i in range(1, n + 1):
        others = [m for m in range(1, n + 1) if m != i]
        for four in itertools.combinations(others, 4):
            first, rest = four[0], four[1:]
            for t in range(3):
                j, l = first, rest[t]
                k, m = (x for x in rest if x != rest[t])
                yield (i, j, l, k, m)


def quadric_index_set(n: int) -> List[Tuple[int, int, int, int, int]]:
    """Canonical representatives (i, j, l, k, m) of the base quadrics:
    five distinct indices, j < l, k < m, with {j, l} the pair containing
    the smallest non-i index (the pair swap is a symmetry)."""
    return list(_quadric_tuples(n))


def _minimal_phi_terms(n: int) -> List[Tuple[Tuple[Triple, int], ...]]:
    """The (triple, sign) pairs of each quadric of the minimal system, in
    the order of ``minimal_base_quadrics``."""
    pairs = [p for p in itertools.combinations(range(3, n + 1), 2) if p != (3, 4)]
    out = [
        (((a, i, j), 1), ((1, 2, i), -1), ((1, 2, j), -1), ((a, 3, 4), -1),
         ((1, 2, 3), 1), ((1, 2, 4), 1))
        for a in (1, 2) for i, j in pairs
    ]
    out.extend(
        (((i, j, k), 1), ((1, 2, i), -1), ((1, 2, j), -1), ((1, 2, k), -1),
         ((1, 3, 4), -1), ((2, 3, 4), -1), ((1, 2, 3), 2), ((1, 2, 4), 2))
        for i, j, k in itertools.combinations(range(3, n + 1), 3)
    )
    return out


def minimal_base_quadrics(n: int) -> List[Polynomial]:
    """The binom(n,3) - n quadrics expressing all remaining phi_ijk
    through the n distinguished ones (the four with indices inside
    {1,2,3,4} and phi_12k for k >= 5)."""
    if n < 4:
        raise ValueError("need n >= 4")
    reg = base_registry(n)
    return [_phi_sum(reg, q) for q in _minimal_phi_terms(n)]


def base_ideal(n: int, minimal: bool = False) -> Ideal:
    """Base-space ideal: all base quadrics, or the minimal system."""
    if n < 4:
        raise ValueError("need n >= 4")
    reg = base_registry(n)
    if minimal:
        return Ideal(reg, minimal_base_quadrics(n))
    return Ideal(reg, [_quadric(reg, *t) for t in quadric_index_set(n)])


def span_rank(polys: Sequence[Polynomial]) -> int:
    """Rank of a list of polynomials as vectors over their monomials."""
    return Span().add(p.terms for p in polys)


def _same_span(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    """Whether ``a`` and ``b`` span one space over their monomials.  Equal
    spans generate equal ideals; for systems of homogeneous quadrics the
    converse holds too, as the degree-2 part of their ideal is their
    span, so then this decides equality of the ideals."""
    return span_rank(a) == span_rank(b) == span_rank([*a, *b])


class CertificateError(ValueError):
    """A rank or identity read from phi-coordinates is not certified: the
    phi_abc are not independent, or the two bounds on a rank do not meet;
    or a renaming that transports the flatness lifts does not hold; or y
    is not eliminated by a linear generator; or the lines are not cut
    out by z_i*z_j - y, as the T1 lifting conditions assume."""


def _eliminates_y_to(gens: Sequence[Polynomial], y_free: Sequence[Polynomial]) -> bool:
    """Whether eliminating y from the ideal of ``gens`` gives the ideal of
    ``y_free``, decided with no Groebner basis.  When gens[0] is f - y
    with f free of y, y = f modulo the ideal, so the contraction to the
    ring without y is generated by the other generators with f put in for
    y; that system and ``y_free`` are compared by ``_same_span``, so a
    True holds for any systems and a False is exact when both are
    homogeneous quadrics, as at every caller.  CertificateError when
    gens[0] is not of that form."""
    f = gens[0] + Polynomial.var(gens[0].reg, "y")
    if gens[0].reg.position("y") in f.variables():
        raise CertificateError(
            "y is not eliminated: the first generator is not f - y with f free of y"
        )
    target = y_free[0].reg
    assign = {"y": substitute(f, {}, target=target)}
    return _same_span([substitute(g, assign, target=target) for g in gens[1:]], y_free)


PhiBasis = Dict[Triple, Triple]


def _phi_basis(n: int) -> PhiBasis:
    """Every ordered triple of distinct indices in 1..n mapped to its
    sorted triple, once the certificate holds: phi of every ordering of a
    triple is phi of the sorted triple, and the C(n,3) phi_abc are
    nonzero with pairwise disjoint supports, hence linearly independent.
    Then the map e_abc -> phi_abc is injective, and a rank or a linear
    identity read in phi-coordinates keyed by sorted triples holds for
    the polynomials.  CertificateError otherwise.  Every reader of
    phi-coordinates takes this map, so none reads them uncertified."""
    reg = base_registry(n)
    triples = list(itertools.combinations(range(1, n + 1), 3))
    supports = [_phi(reg, *t).terms for t in triples]
    disjoint = len({m for s in supports for m in s}) == sum(map(len, supports))
    if phi_symmetry_failures(n) or not all(supports) or not disjoint:
        raise CertificateError(
            f"n={n}: the phi_abc are not independent, so phi-coordinates certify nothing"
        )
    return {p: t for t in triples for p in itertools.permutations(t)}


def _phi_vector(basis: PhiBasis, phi_terms: Sequence[Tuple[Triple, int]]) -> Dict[Triple, int]:
    """A quadric given by its (triple, sign) pairs as a vector over the
    phi_abc, keyed by the sorted triple a < b < c; KeyError for a triple
    outside ``basis``."""
    vec: Dict[Triple, int] = {}
    for t, sign in phi_terms:
        key = basis[t]
        vec[key] = vec.get(key, 0) + sign
    return {key: c for key, c in vec.items() if c}


def _phi_coordinates(basis: PhiBasis, n: int) -> Iterator[Dict[Triple, int]]:
    """Each base quadric as a vector over the phi_abc, one at a time."""
    return (_phi_vector(basis, _quadric_phi_terms(*q)) for q in _quadric_tuples(n))


def _incidence_sums(vec: Mapping[Triple, int]) -> Dict[int, int]:
    """The incidence functionals f_t(e_abc) = [t in {a, b, c}] evaluated
    on a phi-vector in one pass: each index t of some key maps to the sum
    of the coefficients of the keys that contain it.  Every other f_t is
    zero on ``vec``."""
    sums: Dict[int, int] = {}
    for key, c in vec.items():
        for t in key:
            sums[t] = sums.get(t, 0) + c
    return sums


def _bounded_rank(n: int, vectors: Iterable[Mapping[Triple, int]], what: str) -> int:
    """The rank of ``vectors``, given over the C(n,3) sorted triples, when
    two bounds read in one pass meet; CertificateError naming both
    otherwise.

    Upper: the incidence functionals f_t(e_abc) = [t in {a, b, c}] that
    vanish on every vector annihilate their span, and for n >= 4 the n
    functionals are independent: if sum lambda_t f_t = 0, the triples
    {a, b, c} and {a, b, d} give lambda_c = lambda_d, so all lambda_t are
    one lambda, and then 3 lambda = 0.  So the rank is at most C(n,3)
    minus the number of functionals that vanish.  Lower: vectors whose
    largest keys (leads) differ form a triangular system, so the number
    of distinct leads is at most the rank.
    """
    leads = set()
    nonvanishing = set()
    for vec in vectors:
        leads.add(max(vec))
        nonvanishing.update(t for t, v in _incidence_sums(vec).items() if v)
    lower, upper = len(leads), math.comb(n, 3) - (n - len(nonvanishing))
    if lower != upper:
        raise CertificateError(
            f"n={n}: {what} rank not certified, lower bound {lower}, upper bound {upper}"
        )
    return lower


def t2_dimension(n: int) -> int:
    """Rank of the full base-quadric family inside the space of
    quadratic monomials.  The paper gives this number as dim T2; no
    computation of T2 backs that reading here, so it is only the rank.

    The rank is certified from the phi-coordinates of the quadrics, not
    by eliminating them: the phi_abc are independent, the n incidence
    functionals vanish on every quadric and are independent, and there
    are C(n,3) - n distinct leads.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    return _bounded_rank(n, _phi_coordinates(_phi_basis(n), n), "T2")


# ---------------------------------------------------------------------------
# polynomial identities behind the construction


def phi_symmetry_failures(n: int) -> List[tuple]:
    """Orderings of a triple a < b < c whose phi differs from phi_abc;
    the sorted ordering itself is not compared."""
    reg = base_registry(n)
    fails = []
    for t in itertools.combinations(range(1, n + 1), 3):
        ref = _phi(reg, *t)
        fails.extend(p for p in itertools.permutations(t) if p != t and _phi(reg, *p) != ref)
    return fails


def quadric_symmetry_failures(n: int) -> List[tuple]:
    """Canonical tuples violating the antisymmetries in (j,l) and (k,m)
    or the symmetry under swapping the two pairs.

    Decided in phi-coordinates: each quadric is compared as its vector
    over the sorted triples.  If phi is symmetric, equal vectors give
    equal polynomials; if the phi_abc are independent, different vectors
    give different polynomials.  ``_phi_basis`` checks both, and
    CertificateError is raised when it fails.
    """
    basis = _phi_basis(n)
    fails = []
    for (i, j, l, k, m) in _quadric_tuples(n):
        q = _phi_vector(basis, _quadric_phi_terms(i, j, l, k, m))
        neg = {key: -c for key, c in q.items()}
        if (
            _phi_vector(basis, _quadric_phi_terms(i, l, j, k, m)) != neg
            or _phi_vector(basis, _quadric_phi_terms(i, j, l, m, k)) != neg
            or _phi_vector(basis, _quadric_phi_terms(i, k, m, j, l)) != q
        ):
            fails.append((i, j, l, k, m))
    return fails


def four_term_failures(n: int) -> List[tuple]:
    """Violations of the linear relation expressing the quadrics with
    superscript n through the others; needs six distinct indices.

    Decided in phi-coordinates: a tuple fails when the vector of the
    signed sum over the sorted triples is nonzero.  If phi is symmetric,
    a zero vector gives a zero polynomial; if the phi_abc are
    independent, a nonzero vector gives a nonzero polynomial.
    ``_phi_basis`` checks both, and CertificateError is raised when it
    fails.
    """
    if n < 6:
        raise ValueError("needs six distinct indices, so n >= 6")
    basis = _phi_basis(n)
    fails = []
    pool = range(1, n)
    for j, l in itertools.combinations(pool, 2):
        rest = [x for x in pool if x not in (j, l)]
        for i, k, m in itertools.permutations(rest, 3):
            if _phi_vector(basis, (
                *_quadric_phi_terms(i, j, l, k, m),
                *((t, -sign) for t, sign in _quadric_phi_terms(n, j, l, k, m)),
                *((t, -sign) for t, sign in _quadric_phi_terms(k, j, l, i, n)),
                *_quadric_phi_terms(m, j, l, i, n),
            )):
                fails.append((i, j, l, k, m))
    return fails


def cocycle_failures(n: int) -> List[tuple]:
    """Violations of the four-index identity that makes the lifted
    relation close up (every term cancels against another).

    Checked once per relation quadruple (i, k, j, l), i < k and j < l,
    the quadruples whose relations ``verify_flatness`` lifts, so the
    a-coefficients are those of the same lift.  Every other ordered
    tuple (i, j, k, l) is one of these with i and k, or j and l, or both
    swapped.  Once phi is symmetric (``phi_symmetry_failures``), each
    swap negates the identity term by term, so those tuples give the
    same identity up to sign."""
    if n < 4:
        raise ValueError("need n >= 4")
    reg = base_registry(n)
    fails = []
    for i, k, j, l in _relation_quadruples(n):
        expr = sum_of_products(reg, (
            (-1, _av(reg, i, j), _phi(reg, i, k, l)),
            (1, _av(reg, i, j), _phi(reg, j, k, l)),
            (1, _av(reg, i, l), _phi(reg, i, j, k)),
            (-1, _av(reg, i, l), _phi(reg, j, l, k)),
            (1, _av(reg, k, j), _phi(reg, i, k, l)),
            (-1, _av(reg, k, j), _phi(reg, i, j, l)),
            (-1, _av(reg, k, l), _phi(reg, i, j, k)),
            (1, _av(reg, k, l), _phi(reg, i, j, l)),
        ))
        if not expr.is_zero():
            fails.append((i, j, k, l))
    return fails


def family_expanded_failures(n: int) -> List[tuple]:
    """Index triples where the factored form of the family generator
    disagrees with its expanded form."""
    reg = versal_registry(n)
    fails = []
    for (i, j, l) in family_index_set(n):
        k = canonical_fourth_index(i, j, l, n)
        expanded = (
            _zv(reg, i) * _zv(reg, j)
            - _zv(reg, i) * _zv(reg, l)
            + (_av(reg, i, j) - _av(reg, i, l)) * _zv(reg, i)
            + _av(reg, j, i) * _zv(reg, j)
            - _av(reg, l, i) * _zv(reg, l)
            - _phi(reg, i, j, k)
            + _phi(reg, i, l, k)
        )
        if family_generator(i, j, l, n) != expanded:
            fails.append((i, j, l))
    return fails


def family_k_change_failures(n: int) -> List[tuple]:
    """Triples and index pairs where switching the auxiliary index does
    not move the family generator by exactly minus a base quadric."""
    reg = versal_registry(n)
    fails = []
    for (i, j, l) in family_index_set(n):
        k = canonical_fourth_index(i, j, l, n)
        gen = family_generator(i, j, l, n, k)
        for kp in range(1, n + 1):
            if kp in (i, j, l) or kp == k:
                continue
            diff = gen - family_generator(i, j, l, n, kp)
            if diff != -_quadric(reg, i, j, l, k, kp):
                fails.append((i, j, l, k, kp))
    return fails


# ---------------------------------------------------------------------------
# deformation families as data


@dataclass(frozen=True)
class DeformationFamily:
    """A family: total-space generators over a working ring, the base
    ideal in the parameters alone, and the parameter registry."""

    n: int
    total: tuple
    base: Ideal
    parameters: VarRegistry

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "parameters": list(self.parameters.names),
            "total": [str(p) for p in self.total],
            "base": [str(p) for p in self.base.generators],
        }


def main_family(n: int) -> DeformationFamily:
    """The versal family itself: all generators F with the minimal base
    system."""
    total = tuple(family_generator(i, j, l, n) for (i, j, l) in family_index_set(n))
    return DeformationFamily(
        n=n, total=total, base=base_ideal(n, minimal=True), parameters=base_registry(n)
    )


# ---------------------------------------------------------------------------
# first-order deformations


@dataclass(frozen=True)
class T1Result:
    n: int
    dimension: int
    by_degree: Mapping[int, int]
    basis: tuple
    basis_ok: bool
    detail: Mapping[str, int]


def _lifting_conditions(
    vectors: Sequence[tuple], shifts: Sequence[Mono], ideal: Ideal
) -> SparseEliminator:
    """The first-order lifting conditions of one weight modulo the
    lines' ideal ``ideal``, eliminated.

    Each relation vector r is given by its nonzero slots, as (p, r_p)
    pairs in ascending p.  The unknown in column p*len(shifts) + s is
    the coefficient of the monomial shifts[s] in the perturbation of
    generator p.  A relation vector r lifts iff sum_p r_p *
    perturbation_p lies in the ideal.  That sum has weight 2 or 1 (z of
    weight 1, y of weight 2), where the ideal is the span of its
    generators: each is m_p - y with m_p a product of two distinct z's,
    and no two m_p are equal, so I_1 = 0 and I_2 = span{m_p - y}.  The
    linear map that sends each m_p to y and every other monomial to
    itself has kernel exactly I_2, so the sum lifts iff its image is
    zero, and each monomial of the image is one linear condition on the
    unknowns; no Groebner basis is read.  CertificateError when a
    generator is not of that form.

    The rows are fed last row first: the last vector first, and within
    each vector its last condition first.  The rank does not depend on
    the order, but the fill-in does.  Leading columns grow along the
    forward order, so the rows whose leads come late become pivots
    first and the rows that follow meet fewer pivots; at n=12 the
    weight -1 system is eliminated about nine times faster than in the
    forward order.
    """
    y = ((ideal.registry.position("y"), 1),)
    quotient: Dict[Mono, Mono] = {}
    for g in ideal.generators:
        m = next((t for t in g.terms if t != y), MONO_ONE)
        # g is m - y with m = z_a*z_b, a != b, met for the first time
        if g.terms != {m: 1, y: -1} or [e for _, e in m] != [1, 1] or y[0] in m or m in quotient:
            raise CertificateError("the lines are not cut out by z_i*z_j - y")
        quotient[m] = y
    elim = SparseEliminator()
    for vec in reversed(vectors):
        cond: Dict[Mono, Dict[int, Scalar]] = {}
        for p, entry in vec:
            for mono, c in entry.terms.items():
                for s, shift in enumerate(shifts):
                    prod = mono_mul(mono, shift)
                    row = cond.setdefault(quotient.get(prod, prod), {})
                    u = p * len(shifts) + s
                    row[u] = row.get(u, 0) + c
        for row in reversed(cond.values()):
            elim.add(row)
    return elim


@lru_cache(maxsize=None)
def t1_compute(n: int) -> T1Result:
    """Solve the first-order lifting conditions for perturbations of
    the quadric generators by polynomials of degree at most 1, quotient
    out the coordinate-change directions, and certify the standard
    basis G_ij = z_i*z_j - y + a_ij*(z_i - z_j).

    The conditions come from lifting the distinguished relations
    (``curves.relations``), and only their basis is lifted: the
    quotient map is linear, so the conditions of a combination
    sum_t c_t*b_t of relation vectors are the same combination of the
    conditions of each b_t, and the basis gives the same span of
    condition rows as every vector would.  The linear system splits by
    weight: z-perturbations sit in weighted degree -1 and constant
    perturbations in degree -2, and the lifting conditions never mix the
    two, so the parts are solved separately.  In both weights the
    lines' ideal is the span of its generators, so the conditions are
    read off the generators with no Groebner basis
    (``_lifting_conditions``); CertificateError when a generator is not
    z_i*z_j - y.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    reg = lines_registry(n)
    ideal = lines_ideal(n)
    fam = relations(n)
    pairs = fam.pairs
    npairs = len(pairs)

    # weighted degree -1: column c*n + m-1 is the coefficient of z_m in
    # the perturbation of the generator of pair c
    elim1 = _lifting_conditions(
        fam.basis, [((reg.position(f"z{m}"), 1),) for m in range(1, n + 1)], ideal
    )
    nunk1 = npairs * n
    solution_dim1 = nunk1 - elim1.rank

    # y -> y + z_m moves every generator by -z_m; z_i -> z_i + 1 moves
    # the generator of a pair (p, q) containing i by z_j, j = p + q - i
    trivial1 = [{c * n + m - 1: -1 for c in range(npairs)} for m in range(1, n + 1)]
    for i in range(1, n + 1):
        trivial1.append(
            {c * n + p + q - i - 1: 1 for c, (p, q) in enumerate(pairs) if i in (p, q)}
        )
    candidates = [{c * n + p - 1: 1, c * n + q - 1: -1} for c, (p, q) in enumerate(pairs)]
    trivial_in_solutions = in_kernel(trivial1, elim1)
    candidates_in_solutions = in_kernel(candidates, elim1)

    telim = SparseEliminator()
    for v in trivial1:
        telim.add(v)
    trivial_rank1 = telim.rank
    for v in candidates:
        telim.add(v)
    independent = telim.rank == trivial_rank1 + npairs

    dim1 = solution_dim1 - trivial_rank1

    # weighted degree -2: column c is the constant perturbation of the
    # generator of pair c
    elim2 = _lifting_conditions(fam.basis, [MONO_ONE], ideal)
    solution_dim2 = npairs - elim2.rank
    shift_ok = in_kernel([{c: -1 for c in range(npairs)}], elim2)  # y -> y + constant
    dim2 = solution_dim2 - 1

    vreg = versal_registry(n)
    yv = Polynomial.var(vreg, "y")
    basis = tuple(
        _zv(vreg, i) * _zv(vreg, j) - yv + _av(vreg, i, j) * (_zv(vreg, i) - _zv(vreg, j))
        for (i, j) in pairs
    )
    basis_ok = (
        trivial_in_solutions
        and candidates_in_solutions
        and independent
        and shift_ok
        and solution_dim1 == trivial_rank1 + npairs
    )
    return T1Result(
        n=n,
        dimension=dim1 + dim2,
        by_degree={-1: dim1, -2: dim2},
        basis=basis,
        basis_ok=basis_ok,
        detail={
            "unknowns_deg1": nunk1,
            "condition_rank_deg1": elim1.rank,
            "solution_dim_deg1": solution_dim1,
            "trivial_rank_deg1": trivial_rank1,
            "unknowns_deg2": npairs,
            "condition_rank_deg2": elim2.rank,
            "solution_dim_deg2": solution_dim2,
        },
    )


# ---------------------------------------------------------------------------
# flatness certificates


@dataclass(frozen=True)
class LiftCertificate:
    """The lift of the relation of one quadruple (i, k, j, l).  Its
    six-term combination equals the sum of sign * v * quadric over
    ``cofactors``, each a (sign, v, quadric) tuple with v = (m,) for z_m
    or (p, q) for a_pq and the quadric the 5-tuple of ``base_quadric``.
    Only a failing certificate keeps polynomials: the combination and
    its residual, the combination minus the cofactor sum."""

    quadruple: tuple
    cofactors: tuple
    ok: bool
    combination: Optional[Polynomial] = None
    residual: Optional[Polynomial] = None


@dataclass(frozen=True)
class FlatnessReport:
    """``relations`` counts the distinguished relations at level n.
    ``certificates`` holds the literal lifts at level n when they ran:
    at n = 4 and 5, and at n >= 6 only to explain a failed transport."""

    n: int
    relations: int
    certificates: tuple
    ok: bool


@lru_cache(maxsize=None)
def _base_gb(n: int, budget: Budget = DEFAULT_BUDGET) -> GroebnerBasis:
    return buchberger(base_ideal(n, minimal=True), budget=budget)


def _lift_terms(i: int, k: int, j: int, l: int) -> Tuple[tuple, ...]:
    """The six products sign * v * F(x, y, w) of the lifted relation of
    (i, k, j, l), each as (sign, v, (x, y, w), o) with its natural
    auxiliary index o: k or i for the z-products, and the index of the
    quadruple outside {x, y, w} for the a-products.  Built with o in
    place of the canonical index, the six products cancel identically."""
    return (
        (1, (k,), (i, j, l), k), (-1, (i,), (k, j, l), i),
        (-1, (i, j), (k, i, j), l), (1, (i, l), (k, i, l), j),
        (1, (k, j), (i, k, j), l), (-1, (k, l), (i, k, l), j),
    )


def _multiplier(reg: VarRegistry, v: Tuple[int, ...]) -> Polynomial:
    return _zv(reg, *v) if len(v) == 1 else _av(reg, *v)


def _lift(n: int, basis: PhiBasis) -> Tuple[LiftCertificate, ...]:
    """The literal lift of every distinguished relation at level n, one
    certificate per quadruple.  ``basis`` is ``_phi_basis(n)``.

    F(x, y, w) with the canonical auxiliary index c differs from F with
    any other index o by the base quadric (x, y, w, o, c)
    (``family_k_change_failures``).  The six products of a relation
    cancel when each takes its natural index (``_lift_terms``), so the
    combination, built literally at level n, must equal the sum of
    sign * v * quadric(x, y, w, o, c) over the products with c != o, and
    each such quadric must have vanishing incidence sums; at n = 4 there
    are none and the combination vanishes.  Each generator is read at
    its canonical index through ``_family_gen``: the triples of
    ``_lift_terms`` are valid by construction, so no index check is
    repeated."""
    vreg = versal_registry(n)
    certs = []
    for quadruple in _relation_quadruples(n):
        products, cofactors = [], []
        for sign, v, xyw, o in _lift_terms(*quadruple):
            c = canonical_fourth_index(*xyw, n)
            products.append((sign, _multiplier(vreg, v), _family_gen(n, *xyw, c)))
            if c != o:
                cofactors.append((sign, v, (*xyw, o, c)))
        residual = sum_of_products(vreg, products + [
            (-sign, _multiplier(vreg, v), _quadric(vreg, *q)) for sign, v, q in cofactors
        ])
        ok = residual.is_zero() and not any(
            any(_incidence_sums(_phi_vector(basis, _quadric_phi_terms(*q))).values())
            for _, _, q in cofactors
        )
        failed = () if ok else (sum_of_products(vreg, products), residual)
        certs.append(LiftCertificate(quadruple, tuple(cofactors), ok, *failed))
    return tuple(certs)


def _renaming(idx: Sequence[int], src: VarRegistry, reg: VarRegistry) -> Dict[str, Polynomial]:
    """The assignment that renames each index r of ``src``, a ring over
    the indices 1..len(idx), to idx[r - 1] in ``reg``:
    a_rs -> a_idx[r-1]idx[s-1], and z_r -> z_idx[r-1] when ``src`` has
    z-variables.  For an increasing ``idx``, ``substitute`` with it is an
    injective ring map that keeps a_sr = -a_rs."""
    pos = range(1, len(idx) + 1)
    assign = {
        f"a_{r}_{s}": _av(reg, idx[r - 1], idx[s - 1]) for r, s in itertools.combinations(pos, 2)
    }
    if "z1" in src:
        assign.update((f"z{r}", _zv(reg, idx[r - 1])) for r in pos)
    return assign


def _transport_break(n: int) -> str:
    """The first link of the transport of the lifts to level n that
    fails, or "" when every link holds.

    The links: the literal lifts at level 5 pass; every ordering of
    every phi_abc the level-5 lifts read, and every sorted phi_abc of the
    base ring at level n (whose orderings ``_phi_basis(n)`` has made
    equal to it), is the renamed phi_123; and at levels 5 and n every
    generator F(x, y, w) at its canonical index c is its level-4
    representative, renamed along the sorted {x, y, w, c}.  The level-4
    generators serve only as representatives: the level-4 quadruples are
    level-5 quadruples, and a triple inside {1..4} keeps its canonical
    index at level 5, so the level-5 lifts of those quadruples are their
    level-4 lifts."""
    bad = [c.quadruple for c in _lift(5, _phi_basis(5)) if not c.ok]
    if bad:
        return f"the relation of {bad[0]} does not lift at n=5"
    ref = _phi(base_registry(3), 1, 2, 3)
    for m, reg, triples in (
        (5, versal_registry(5), itertools.permutations(range(1, 6), 3)),
        (n, base_registry(n), itertools.combinations(range(1, n + 1), 3)),
    ):
        for t in triples:
            if _phi(reg, *t) != substitute(ref, _renaming(sorted(t), ref.reg, reg), target=reg):
                return f"phi{t} at n={m} is not the renamed phi(1, 2, 3)"
    reps = {
        t: _family_gen(4, *t, canonical_fourth_index(*t, 4))
        for t in itertools.permutations(range(1, 5), 3)
    }
    for m in (5, n):
        vreg = versal_registry(m)
        for t in itertools.combinations(range(1, m + 1), 3):
            c = canonical_fourth_index(*t, m)
            idx = sorted((*t, c))
            assign = _renaming(idx, versal_registry(4), vreg)
            for xyw in itertools.permutations(t):
                rep = reps[tuple(idx.index(v) + 1 for v in xyw)]
                if _family_gen(m, *xyw, c) != substitute(rep, assign, target=vreg):
                    return f"F{xyw} at n={m} is not its renamed representative"
    return ""


def verify_flatness(n: int) -> FlatnessReport:
    """Lift every distinguished relation through the deformed
    generators and certify the obstruction with explicit cofactors.

    At n = 4 and 5 every relation is lifted literally (``_lift``).  At
    n >= 6 the lifts are transported from level 5.  The relation of a
    quadruple Q reads only the indices S of Q and the canonical indices
    of its triples.  With a the smallest index outside Q, S is Q plus a
    when a < max Q, else Q, so |S| <= 5.  Every index below a canonical
    index lies in S, so the order-preserving map sigma of S onto 1..|S|
    fixes each canonical index, and sigma(Q) is a level-5 quadruple whose
    lift at level 5 reads the canonical indices of level |S| (a triple
    inside {1..4} keeps its canonical index at level 5).  The renaming
    z_a -> z_sigma^-1(a), a_pq -> a_sigma^-1(p)sigma^-1(q) is an
    injective ring map that keeps a_ji = -a_ij, so it carries the
    literal lift of sigma(Q) at level 5 to the lift of Q at level n,
    once every generator the two lifts read, and every phi_abc of their
    cofactor quadrics, is the renaming of one representative
    (``_transport_break``).  Renaming
    permutes phi-coordinates along with indices, so the incidence sums
    of the cofactor quadrics still vanish.  No quadruple is enumerated
    at level n.

    Each cofactor quadric lies in the minimal base ideal by one
    phi-coordinate certificate at level n: ``_phi_basis(n)`` certifies
    the phi_abc independent, and ``_bounded_rank`` certifies the rank of
    the minimal system, which makes its span the common kernel of the
    incidence functionals that vanish on it.  With C(n,3) - n vectors
    that rank is C(n,3) - n and they are all n functionals (as in
    ``base_equals_total``), so a quadric whose incidence sums all vanish
    lies in the span.  No Groebner basis is read.

    When a link of the transport fails, the literal lift runs at level
    n to name the relations that fail there; if none does,
    CertificateError names the link."""
    if n < 4:
        raise ValueError("need n >= 4")
    basis = _phi_basis(n)
    _bounded_rank(n, (_phi_vector(basis, q) for q in _minimal_phi_terms(n)), "minimal")
    relations = math.comb(n, 2) * math.comb(n - 2, 2)
    broken = _transport_break(n) if n > 5 else ""
    if n > 5 and not broken:
        return FlatnessReport(n, relations, (), True)
    certs = _lift(n, basis)
    ok = all(c.ok for c in certs)
    if ok and broken:
        raise CertificateError(f"n={n}: flatness not transported, {broken}")
    return FlatnessReport(n, relations, certs, ok)


# ---------------------------------------------------------------------------
# base space equals previous total space


@dataclass(frozen=True)
class InductionReport:
    n: int
    substitution_matches: bool
    mismatches: tuple
    carried_rank: int
    combined_rank: int
    new_rank: int
    expected_new_rank: int
    ideal_equal_ok: bool
    ok: bool


def base_equals_total(n: int) -> InductionReport:
    """Substituting z_m -> a_mn into the level n-1 family generators
    must reproduce base quadrics of level n; on top of the carried
    level n-1 base system they must contribute exactly n(n-3)/2 new
    independent quadrics, and the two systems together must generate
    the level n base ideal.

    Each substituted generator is checked literally against its base
    quadric, so every system here is a signed sum of phi_abc and its
    rank is read from phi-coordinates: ``_phi_basis(n)`` certifies the
    phi_abc independent once, at level n, and each rank is
    ``_bounded_rank``; no quadric is eliminated.  The carried system is
    read through the level-n basis too: the maps of the two levels agree
    on every triple inside 1..n-1, and ``base_registry(n - 1)`` embeds
    by name into ``base_registry(n)``, sending each phi_abc to the
    phi_abc of the same triple.  An injective linear map keeps
    independence, so the level-n certificate covers the carried phi_abc
    and keeps their ranks.  Only the systems the step builds are ranked:
    the carried system, V = carried + substituted, and the minimal
    system W.  The degree-2 part of an
    ideal generated by quadrics is their span, so V generates the ideal
    of W exactly when their spans are equal, and here equal certified
    ranks suffice.  W has C(n,3) - n vectors, so its lower bound is at
    most C(n,3) - n, while its upper bound is at least that, as there
    are only n incidence functionals.  A certified rank of W is
    therefore C(n,3) - n, and all n functionals vanish on W.  If V's
    certified rank is the same, they vanish on V too, and both spans
    are the common kernel of the n functionals.  That rank is also the
    T2 dimension, which the ``t2-dimension`` check certifies over every
    base quadric; it is not re-derived here."""
    if n < 5:
        raise ValueError("need n >= 5")
    prev = n - 1
    breg = base_registry(n)
    basis = _phi_basis(n)
    assign = {f"z{m}": _av(breg, m, n) for m in range(1, n)}

    substituted = []
    mismatches = []
    for (i, j, l) in family_index_set(prev):
        k = canonical_fourth_index(i, j, l, prev)
        s = substitute(family_generator(i, j, l, prev), assign, target=breg)
        if s != _quadric(breg, i, j, l, n, k):
            mismatches.append((i, j, l, k))
        substituted.append(_phi_vector(basis, _quadric_phi_terms(i, j, l, n, k)))

    carried = [_phi_vector(basis, q) for q in _minimal_phi_terms(prev)]
    target = [_phi_vector(basis, q) for q in _minimal_phi_terms(n)]
    combined = carried + substituted
    carried_rank = _bounded_rank(prev, carried, "carried")
    combined_rank = _bounded_rank(n, combined, "combined")
    new_rank = combined_rank - carried_rank
    expected_new = n * (n - 3) // 2
    target_rank = _bounded_rank(n, target, "target")
    eq = combined_rank == target_rank
    ok = not mismatches and new_rank == expected_new and eq
    return InductionReport(
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


# ---------------------------------------------------------------------------
# the Pfaffian presentation at n = 5

_PFAFFIAN_UPPER = {
    (1, 2): "a_2_4 - a_2_5",
    (1, 3): "-a_1_4 + a_1_5",
    (1, 4): "-a_2_3 + a_2_5",
    (1, 5): "a_1_3 - a_1_5",
    (2, 3): "a_3_4 - a_3_5",
    (2, 4): "-a_1_2 - a_2_5",
    (2, 5): "a_1_2 - a_1_3 + a_2_4 - a_3_4",
    (3, 4): "a_1_2 - a_1_4 + a_2_3 + a_3_4",
    (3, 5): "-a_1_2 + a_1_5",
    (4, 5): "a_3_4 + a_4_5",
}


def _pf_expand(M: Mapping[tuple, Polynomial], idx: tuple, reg: VarRegistry) -> Polynomial:
    """Pfaffian by expansion along the first remaining row."""
    if not idx:
        return Polynomial.const(reg, 1)
    return sum_of_products(reg, (
        (1 if t % 2 else -1, M[(idx[0], idx[t])], _pf_expand(M, idx[1:t] + idx[t + 1:], reg))
        for t in range(1, len(idx))
    ))


def _pf_matchings(M: Mapping[tuple, Polynomial], idx: tuple, reg: VarRegistry) -> Polynomial:
    """Pfaffian straight from the signed-perfect-matching definition;
    an independent oracle for the expansion above."""
    acc = Polynomial.zero(reg)
    order = {v: c for c, v in enumerate(idx)}
    for perm in itertools.permutations(idx):
        if any(perm[2 * t] > perm[2 * t + 1] for t in range(len(idx) // 2)):
            continue
        if any(perm[2 * t] > perm[2 * t + 2] for t in range(len(idx) // 2 - 1)):
            continue
        inversions = sum(
            1
            for a, b in itertools.combinations(perm, 2)
            if order[a] > order[b]
        )
        term = Polynomial.const(reg, 1)
        for t in range(len(idx) // 2):
            term = term * M[(perm[2 * t], perm[2 * t + 1])]
        acc = acc + term if inversions % 2 == 0 else acc - term
    return acc


@dataclass(frozen=True)
class PfaffianReport:
    entries: tuple
    pfaffians: tuple
    all_quadratic: bool
    expansion_consistent: bool
    ideal_equal_ok: bool
    ok: bool


def pfaffian_check() -> PfaffianReport:
    """Builds the skew 5x5 matrix of linear forms, takes its five 4x4
    Pfaffians, and compares the ideal they generate with the base ideal
    at n = 5."""
    reg = base_registry(5)
    M: Dict[tuple, Polynomial] = {}
    for (r, c), txt in _PFAFFIAN_UPPER.items():
        p = parse(txt, reg)
        M[(r, c)] = p
        M[(c, r)] = -p
    pfaffians = []
    consistent = True
    for drop in range(1, 6):
        idx = tuple(x for x in range(1, 6) if x != drop)
        p1 = _pf_expand(M, idx, reg)
        p2 = _pf_matchings(M, idx, reg)
        consistent = consistent and p1 == p2
        pfaffians.append(p1)
    quadratic = all(p.total_degree() == 2 for p in pfaffians)
    W = minimal_base_quadrics(5)
    eq = quadratic and _same_span(pfaffians, W)
    return PfaffianReport(
        entries=tuple(sorted(_PFAFFIAN_UPPER.items())),
        pfaffians=tuple(pfaffians),
        all_quadratic=quadratic,
        expansion_consistent=consistent,
        ideal_equal_ok=eq,
        ok=quadratic and consistent and eq,
    )


# ---------------------------------------------------------------------------
# explicit one-parameter smoothings


@dataclass(frozen=True)
class SmoothingCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SmoothingReport:
    kind: str
    n: int
    branch_count: int
    checks: tuple
    ok: bool


def smoothing_family(variant: str, n: int) -> Tuple[DeformationFamily, SmoothingReport]:
    """The two explicit one-parameter partial smoothings: merging the
    last two lines into a hyperbola (DIAGONAL), or merging the last
    axis with the parabola branch into a conic (AXIS_PARABOLA).

    Each variant supplies only its data: the total space, its explicit
    branches as points over (t, s), its implicit branch as an
    assignment with the curve it leaves, and one check of its own.  One
    path then checks the fiber at t = 0 and certifies every branch by
    substitution.  For the implicit branch the substitution leaves the
    branch equation itself: each nonzero residual generator is literally
    the hyperbola or the conic, so the residual ideal is the principal
    ideal of the branch with no Groebner basis needed."""
    if n < 4:
        raise ValueError("need n >= 4")
    if variant not in (DIAGONAL, AXIS_PARABOLA):
        raise ValueError(f"unknown smoothing variant {variant!r}")
    reg = build_registry(nz=n, y=True, t=True, s=True)
    param_reg = build_registry(t=True)
    tv = Polynomial.var(reg, "t")
    sv = Polynomial.var(reg, "s")
    yv = Polynomial.var(reg, "y")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    ts = build_registry(t=True, s=True)
    ts_t = Polynomial.var(ts, "t")
    ts_s = Polynomial.var(ts, "s")
    ts_zero = Polynomial.zero(ts)

    def point(z: Mapping[int, Polynomial], y: Polynomial) -> Dict[str, Polynomial]:
        """The assignment z_m -> z[m] (zero if absent), y -> y over (t, s)."""
        return {**{f"z{m}": z.get(m, ts_zero) for m in range(1, n + 1)}, "y": y}

    if variant == DIAGONAL:
        total = [_zv(reg, i) * _zv(reg, j) - yv for (i, j) in pairs]
        total[-1] = total[-1] + tv * (_zv(reg, n - 1) - _zv(reg, n))  # the pair (n-1, n)
        explicit = [(f"axis-branch-z{i}", point({i: ts_s}, ts_zero)) for i in range(1, n - 1)]
        explicit.append(
            ("parabola-branch", point(dict.fromkeys(range(1, n + 1), ts_s), ts_s * ts_s))
        )
        rzero = Polynomial.zero(reg)
        implicit = (
            "hyperbola-branch",
            {**{f"z{m}": rzero for m in range(1, n - 1)}, "y": rzero},
            _zv(reg, n - 1) * _zv(reg, n) + tv * (_zv(reg, n - 1) - _zv(reg, n)),
        )
        breg = base_registry(n)
        passign = {nm: ts_zero for nm in breg.names}
        passign[f"a_{n-1}_{n}"] = ts_t
        extra = SmoothingCheck("parameter-point-kills-phi", all(
            substitute(_phi(breg, i, j, k), passign, target=ts).is_zero()
            for i, j, k in itertools.combinations(range(1, n + 1), 3)
        ))
    else:  # AXIS_PARABOLA
        total = [
            (_zv(reg, i) - tv) * (_zv(reg, n) + tv) - yv for i in range(1, n)
        ] + [
            _zv(reg, i) * _zv(reg, j) - yv
            for i, j in itertools.combinations(range(1, n), 2)
        ]
        explicit = [
            (f"line-branch-z{i}", point({i: ts_s, n: -ts_t}, ts_zero)) for i in range(1, n)
        ]
        implicit = (
            "conic-branch",
            {**{f"z{m}": sv for m in range(1, n)}, "y": sv * sv},
            (sv - tv) * (_zv(reg, n) + tv) - sv * sv,
        )
        extra = SmoothingCheck("difference-factorization", all(
            total[i - 1] - total[j - 1] == (_zv(reg, i) - _zv(reg, j)) * (_zv(reg, n) + tv)
            for i, j in itertools.combinations(range(1, n), 2)
        ))

    lreg = lines_registry(n)
    lzero = Polynomial.zero(lreg)
    fiber = sorted(str(substitute(g, {"t": lzero, "s": lzero}, target=lreg)) for g in total)
    expected_fiber = sorted(str(line_generator(lreg, i, j)) for (i, j) in pairs)
    fiber_check = SmoothingCheck("fiber-at-zero", fiber == expected_fiber)
    branches = [
        SmoothingCheck(name, all(substitute(g, assign, target=ts).is_zero() for g in total))
        for name, assign in explicit
    ]
    name, assign, curve = implicit
    residual = [substitute(g, assign, target=reg) for g in total]
    residual = [r for r in residual if not r.is_zero()]
    branches.append(SmoothingCheck(name, bool(residual) and all(r == curve for r in residual)))
    # the factorization explains the line branches, so it is reported before them
    if variant == AXIS_PARABOLA:
        checks = [fiber_check, extra, *branches]
    else:
        checks = [fiber_check, *branches, extra]

    family = DeformationFamily(
        n=n, total=tuple(total), base=Ideal(param_reg, []), parameters=param_reg
    )
    report = SmoothingReport(
        kind=variant,
        n=n,
        branch_count=len(branches),
        checks=tuple(checks),
        ok=all(c.ok for c in checks),
    )
    return family, report


# ---------------------------------------------------------------------------
# deformation of the elliptic monomial curve


@dataclass(frozen=True)
class MonomialFamilyReport:
    n: int
    zero_fiber_ok: bool
    parametrization_ok: bool
    projections: tuple
    ok: bool


def default_projection_samples(n: int) -> List[Tuple[Fraction, ...]]:
    e_first = tuple(Fraction(1 if m == 2 else 0) for m in range(2, n + 2))
    e_last = tuple(Fraction(1 if m == n + 1 else 0) for m in range(2, n + 2))
    return [e_first, e_last]


def elliptic_monomial_family(
    n: int,
    samples: Optional[Sequence[Sequence[Fraction]]] = None,
    budget: Budget = DEFAULT_BUDGET,
) -> Tuple[DeformationFamily, MonomialFamilyReport]:
    """Deformation of the monomial curve with semigroup <n+1, ..., 2n>
    over free parameters a_2 ... a_{n+1}: the square z_1^2 in the
    rewriting table is replaced by
    z_1^2 + a_2 z_n + a_3 z_{n-1} + ... + a_n z_2 + a_{n+1} z_1.
    At sampled rational parameter values the projection to the
    (z_1, z_2)-plane is computed by elimination and compared with
    z_2^(n+1) = z_1^(n+2) + sum a_m z_1^m z_2^(n+1-m)."""
    if n < 4:
        raise ValueError("need n >= 4")
    reg = build_registry(nz=n, params=tuple(range(2, n + 2)))
    param_reg = build_registry(params=tuple(range(2, n + 2)))

    def pv(m: int) -> Polynomial:
        return Polynomial.var(reg, f"a_{m}")

    q = _zv(reg, 1) ** 2 + pv(n + 1) * _zv(reg, 1)
    for m in range(2, n + 1):
        q = q + pv(m) * _zv(reg, n + 2 - m)

    total = [
        _zv(reg, i) * _zv(reg, j) - (q if len(rhs) == 3 else _zv(reg, rhs[0])) * _zv(reg, rhs[-1])
        for i, j, rhs in monomial_rewrites(MONOMIAL_ELLIPTIC, n)
    ]

    family = DeformationFamily(
        n=n, total=tuple(total), base=Ideal(param_reg, []), parameters=param_reg
    )

    zreg = build_registry(nz=n)
    zzero = Polynomial.zero(zreg)
    zero_assign = {f"a_{m}": zzero for m in range(2, n + 2)}
    fiber = [substitute(p, zero_assign, target=zreg) for p in total]
    zero_fiber_ok = fiber == elliptic_monomial_table(n)

    treg = build_registry(t=True)
    tvar = Polynomial.var(treg, "t")
    par_assign = {
        f"z{m}": tvar ** e for m, e in enumerate(monomial_semigroup(MONOMIAL_ELLIPTIC, n), 1)
    }
    par_assign.update({f"a_{m}": Polynomial.zero(treg) for m in range(2, n + 2)})
    parametrization_ok = all(
        substitute(p, par_assign, target=treg).is_zero() for p in total
    )

    if samples is None:
        samples = default_projection_samples(n)
    projections = []
    for sample in samples:
        values = tuple(Fraction(x) for x in sample)
        if len(values) != n:
            raise ValueError(f"sample needs {n} values (for a_2 .. a_{n+1})")
        sassign = {
            f"a_{m}": Polynomial.const(zreg, values[m - 2]) for m in range(2, n + 2)
        }
        gens = [substitute(p, sassign, target=zreg) for p in total]
        eliminated = eliminate(
            Ideal(zreg, gens), [f"z{m}" for m in range(3, n + 1)], budget
        )
        preg = eliminated.registry
        z1, z2 = _zv(preg, 1), _zv(preg, 2)
        expect = z2 ** (n + 1) - z1 ** (n + 2)
        for m in range(2, n + 2):
            expect = expect - Polynomial.const(preg, values[m - 2]) * z1 ** m * z2 ** (n + 1 - m)
        ok = ideal_equal(eliminated, Ideal(preg, [expect]), budget=budget)
        projections.append((values, ok))

    report = MonomialFamilyReport(
        n=n,
        zero_fiber_ok=zero_fiber_ok,
        parametrization_ok=parametrization_ok,
        projections=tuple(projections),
        ok=zero_fiber_ok and parametrization_ok and all(ok for _, ok in projections),
    )
    return family, report


# ---------------------------------------------------------------------------
# the coordinate-axes analogue


@dataclass(frozen=True)
class AxesFamilyReport:
    n: int
    zero_fiber_ok: bool
    k_independence_ok: bool
    parameter_count: int
    t1_dimension: int
    ok: bool


def _axes_pairs(n: int) -> List[Tuple[int, int, List[int]]]:
    """Each pair i < j with its complementary indices, ascending."""
    return [
        (i, j, [m for m in range(1, n + 1) if m not in (i, j)])
        for i, j in itertools.combinations(range(1, n + 1), 2)
    ]


def _corner(reg: VarRegistry, i: int, j: int, k: int) -> Polynomial:
    return (_av(reg, i, k) - _av(reg, i, j)) * (_av(reg, j, k) - _av(reg, j, i))


def axes_versal_family(n: int) -> DeformationFamily:
    """Deformation of the n coordinate axes with independent ordered
    parameters a_ij (no antisymmetry): generators
    (z_i - a_ij)(z_j - a_ji) - (a_ik - a_ij)(a_jk - a_ji) with the
    canonical auxiliary index, base ideal generated by the differences
    of the constant terms over the possible auxiliary indices."""
    if n < 4:
        raise ValueError("need n >= 4")
    reg = build_registry(nz=n, npairs=n, ordered_pairs=True)
    param_reg = build_registry(npairs=n, ordered_pairs=True)
    total = [_pair_gen(reg, i, j, comp[0]) for i, j, comp in _axes_pairs(n)]
    base = [
        _corner(param_reg, i, j, k) - _corner(param_reg, i, j, l)
        for i, j, comp in _axes_pairs(n)
        for k, l in itertools.combinations(comp, 2)
    ]

    return DeformationFamily(
        n=n, total=tuple(total), base=Ideal(param_reg, base), parameters=param_reg
    )


def axes_family_report(n: int) -> AxesFamilyReport:
    """Checks for the coordinate-axes family: special fiber, choice
    independence of the auxiliary index over the base, and the
    parameter bookkeeping (n(n-1) parameters for an n(n-2)-dimensional
    space of first-order deformations).

    Auxiliary-index independence is certified literally: for every pair
    (i, j) and auxiliary indices k < l, the generator with k minus the
    generator with l is exactly minus the base generator for (i, j, k, l),
    term by term.  A literal identity implies membership in the base
    ideal, so no Groebner basis is needed."""
    family = axes_versal_family(n)
    reg = family.total[0].reg
    param_reg = family.parameters

    expected = axes_ideal(n)
    zzero = Polynomial.zero(expected.registry)
    zero_assign = {nm: zzero for nm in param_reg.names}
    fiber = [substitute(p, zero_assign, target=expected.registry) for p in family.total]
    zero_fiber_ok = fiber == list(expected.generators)

    differences = []
    for i, j, comp in _axes_pairs(n):
        gens = {k: _pair_gen(reg, i, j, k) for k in comp}
        for k, l in itertools.combinations(comp, 2):
            differences.append(-substitute(gens[k] - gens[l], {}, target=param_reg))
    k_ok = differences == list(family.base.generators)

    parameter_count = len(param_reg.names)
    ok = zero_fiber_ok and k_ok and parameter_count == n * (n - 1)
    return AxesFamilyReport(
        n=n,
        zero_fiber_ok=zero_fiber_ok,
        k_independence_ok=k_ok,
        parameter_count=parameter_count,
        t1_dimension=n * (n - 2),
        ok=ok,
    )


# ---------------------------------------------------------------------------
# wedging on a cusp


class RankDeficiencyError(ValueError):
    """The line directions fail to impose independent conditions on
    quadrics, so no straightening quadric can be solved for."""

    def __init__(self, rank: int, needed: int):
        super().__init__(
            f"line conditions have rank {rank}, need {needed}; "
            "directions are degenerate"
        )
        self.rank = rank
        self.needed = needed


@dataclass(frozen=True)
class WedgeDeformation:
    n: int
    r: int
    quadric: Polynomial
    lines: tuple
    target: tuple
    rank: int
    lines_fixed_ok: bool
    straightened_ok: bool
    ok: bool


def wedge_a2_deformation(directions: Sequence[Sequence], n: int) -> WedgeDeformation:
    """Deform the wedge of r-1 lines with a cusp into r lines.

    ``directions`` lists the r-1 line directions followed by the target
    direction (first coordinate 1).  A quadric q in the z-variables is
    solved for which vanishes on the given lines and takes the value 1
    on the target direction; the coordinate change sending z_{n+1} to
    z_{n+1} - q/s^2 and z_{n+2} to z_{n+2} - z_1 q/s^3 then straightens
    the scaled cusp branch (a_1 s t, ..., a_n s t, t^2, t^3) into the
    line through the target while fixing the r-1 given lines.  Both
    facts are certified as polynomial identities in t and s (scaled by
    s^2 and s^3, as s is invertible)."""
    dirs = [tuple(Fraction(x) for x in v) for v in directions]
    if len(dirs) < 2:
        raise ValueError("need at least one line and the target direction")
    if any(len(v) != n for v in dirs):
        raise ValueError(f"every direction needs {n} coordinates")
    *lines, target = dirs
    r = len(lines) + 1
    if target[0] != 1:
        raise ValueError("target direction must be normalized to first coordinate 1")

    monos = [(p, q) for p in range(1, n + 1) for q in range(p, n + 1)]
    rows = [[v[p - 1] * v[q - 1] for (p, q) in monos] for v in lines]
    rows.append([target[p - 1] * target[q - 1] for (p, q) in monos])
    rank, coeffs = solve(rows, [0] * len(lines) + [1])
    if rank < r:
        raise RankDeficiencyError(rank, r)
    assert coeffs is not None  # full row rank

    zreg = build_registry(nz=n)
    quadric = Polynomial.zero(zreg)
    for c, (p, q) in zip(coeffs, monos):
        if c:
            quadric = quadric + Polynomial.const(zreg, c) * _zv(zreg, p) * _zv(zreg, q)

    ts = build_registry(t=True, s=True)
    tv = Polynomial.var(ts, "t")
    sv = Polynomial.var(ts, "s")

    def q_at(vec: tuple, scale: Polynomial) -> Polynomial:
        assign = {
            f"z{p}": Polynomial.const(ts, vec[p - 1]) * scale for p in range(1, n + 1)
        }
        return substitute(quadric, assign, target=ts)

    lines_fixed_ok = all(q_at(v, tv).is_zero() for v in lines)
    q_on_target = q_at(target, sv * tv)
    straightened_ok = (
        (sv ** 2 * tv ** 2 - q_on_target).is_zero()
        and (sv ** 3 * tv ** 3 - sv * tv * q_on_target).is_zero()
    )
    return WedgeDeformation(
        n=n,
        r=r,
        quadric=quadric,
        lines=tuple(lines),
        target=target,
        rank=rank,
        lines_fixed_ok=lines_fixed_ok,
        straightened_ok=straightened_ok,
        ok=lines_fixed_ok and straightened_ok,
    )


# ---------------------------------------------------------------------------
# the closed n = 4 presentation with y


@dataclass(frozen=True)
class NiceFormulaReport:
    differences_ok: bool
    elimination_ok: bool
    ok: bool


def nice_total_space_check() -> NiceFormulaReport:
    """At n = 4 the total space has a closed presentation retaining y:
    G_ij = z_i z_j - y + a_ij z_i + a_ji z_j - phi_ijk - phi_ijl with
    {k, l} the complementary pair.  Check that the differences
    G_ij - G_il reproduce the family generators and that eliminating y
    recovers the family ideal.  G_12 + y is free of y, so y is eliminated
    by putting G_12 + y in for it (``_eliminates_y_to``); both systems are
    then homogeneous quadrics when deg z = deg a = 1, and their spans
    decide.  No Groebner basis is computed."""
    reg = versal_registry(4)
    yv = Polynomial.var(reg, "y")
    g: Dict[tuple, Polynomial] = {}
    for i, j in itertools.combinations(range(1, 5), 2):
        k, l = (m for m in range(1, 5) if m not in (i, j))
        g[(i, j)] = (
            _zv(reg, i) * _zv(reg, j)
            - yv
            + _av(reg, i, j) * _zv(reg, i)
            + _av(reg, j, i) * _zv(reg, j)
            - _phi(reg, i, j, k)
            - _phi(reg, i, j, l)
        )

    def gsym(i: int, j: int) -> Polynomial:
        return g[(i, j) if i < j else (j, i)]

    index_set = family_index_set(4)
    family = [family_generator(i, j, l, 4) for (i, j, l) in index_set]
    differences_ok = all(gsym(i, j) - gsym(i, l) == f for (i, j, l), f in zip(index_set, family))
    elimination_ok = _eliminates_y_to(list(g.values()), family)
    return NiceFormulaReport(
        differences_ok=differences_ok,
        elimination_ok=elimination_ok,
        ok=differences_ok and elimination_ok,
    )
