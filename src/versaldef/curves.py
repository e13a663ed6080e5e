"""Curve germs: generic lines through the origin and monomial curves.

The central object is the union of n+1 lines in general position in
affine n-space.  After moving one line to a parabola via an auxiliary
coordinate y of weight 2, its ideal is generated by the quadrics
z_i*z_j - y over all pairs i < j; projecting y away recovers the pairwise
difference presentation z_i*z_j - z_k*z_l in the z-variables alone.

Monomial curves enter in two flavours, distinguished by their value
semigroups: the rational one <n, ..., 2n-1> and the elliptic one
<n+1, ..., 2n>, plus a non-monomial union of lines through roots of
unity satisfying the same shape of quadratic equations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from .groebner import (
    Budget,
    DEFAULT_BUDGET,
    Ideal,
    eliminate,
)
from .linalg import SparseEliminator
from .poly import Polynomial, VarRegistry, build_registry, mono_degree, sum_of_products

__all__ = [
    "LINES_GENERIC",
    "AXES",
    "MONOMIAL_RATIONAL",
    "MONOMIAL_ELLIPTIC",
    "NONRATIONAL_LINES",
    "WEDGE",
    "G_FORM",
    "F_FORM",
    "CurveSpec",
    "SemigroupData",
    "NumericInvariants",
    "RelationFamily",
    "NonrationalLinesReport",
    "lines_registry",
    "lines_ideal",
    "line_generator",
    "axes_ideal",
    "monomial_semigroup",
    "monomial_rewrites",
    "elliptic_monomial_table",
    "rational_monomial_table",
    "monomial_ideal",
    "parametrization_kernel",
    "nonrational_lines_check",
    "relations",
    "semigroup_invariants",
    "numeric_invariants",
    "elliptic_t1_formula",
    "t2_formula",
    "minimal_generator_formula",
    "linear_relation_formula",
]

LINES_GENERIC = "LINES_GENERIC"
AXES = "AXES"
MONOMIAL_RATIONAL = "MONOMIAL_RATIONAL"
MONOMIAL_ELLIPTIC = "MONOMIAL_ELLIPTIC"
NONRATIONAL_LINES = "NONRATIONAL_LINES"
WEDGE = "WEDGE"

G_FORM = "G_FORM"
F_FORM = "F_FORM"

_KINDS = (LINES_GENERIC, AXES, MONOMIAL_RATIONAL, MONOMIAL_ELLIPTIC, NONRATIONAL_LINES, WEDGE)


@dataclass(frozen=True)
class CurveSpec:
    """Serializable description of a supported curve germ."""

    kind: str
    n: int
    partition: Optional[tuple] = None
    presentation: str = G_FORM

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.presentation not in (G_FORM, F_FORM):
            raise ValueError(f"unknown presentation {self.presentation!r}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "partition": list(self.partition) if self.partition else None,
            "presentation": self.presentation,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CurveSpec":
        part = d.get("partition")
        return CurveSpec(
            kind=d["kind"],
            n=d["n"],
            partition=tuple(part) if part else None,
            presentation=d.get("presentation", G_FORM),
        )


# ---------------------------------------------------------------------------
# generic lines


@lru_cache(maxsize=None)
def lines_registry(n: int, with_y: bool = True) -> VarRegistry:
    """z_1..z_n, and y unless ``with_y`` is False; the y-free ring is
    also the ring of the coordinate axes and the monomial curves."""
    return build_registry(nz=n, y=with_y)


def _zvar(reg: VarRegistry, i: int) -> Polynomial:
    return Polynomial.var(reg, f"z{i}")


def line_generator(reg: VarRegistry, i: int, j: int) -> Polynomial:
    """The quadric z_i*z_j - y (indices symmetric)."""
    return _zvar(reg, i) * _zvar(reg, j) - Polynomial.var(reg, "y")


def lines_ideal(n: int, presentation: str = G_FORM) -> Ideal:
    """Ideal of n+1 generic lines through the origin.

    G_FORM: the binom(n, 2) quadrics z_i*z_j - y in n+1 ambient
    coordinates, with the extra line bent into the parabola branch.
    F_FORM: the canonical minimal system z_i*z_j - z_1*z_2 in the
    z-variables alone ((n+1)(n-2)/2 generators).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if presentation == G_FORM:
        reg = lines_registry(n)
        gens = [
            line_generator(reg, i, j)
            for i, j in itertools.combinations(range(1, n + 1), 2)
        ]
        return Ideal(reg, gens)
    if presentation == F_FORM:
        reg = lines_registry(n, with_y=False)
        base = _zvar(reg, 1) * _zvar(reg, 2)
        gens = [
            _zvar(reg, i) * _zvar(reg, j) - base
            for i, j in itertools.combinations(range(1, n + 1), 2)
            if (i, j) != (1, 2)
        ]
        return Ideal(reg, gens)
    raise ValueError(f"unknown presentation {presentation!r}")


def axes_ideal(n: int) -> Ideal:
    """Ideal of the n coordinate axes: the products z_i*z_j, i < j."""
    if n < 2:
        raise ValueError("coordinate axes need n >= 2")
    reg = lines_registry(n, with_y=False)
    return Ideal(reg, [
        _zvar(reg, i) * _zvar(reg, j) for i, j in itertools.combinations(range(1, n + 1), 2)
    ])


# ---------------------------------------------------------------------------
# the distinguished relation family of the G_FORM presentation


@dataclass(frozen=True)
class RelationFamily:
    """Syzygy vectors z_k(g_ij - g_il) - z_i(g_kj - g_kl) of the quadric
    presentation, indexed by quadruples of distinct indices, together
    with a basis of their linear coefficient vectors and its size, the
    rank, both computed once on first read.

    Each vector holds only its four nonzero slots, as a tuple of
    (slot, entry) pairs in ascending slot order; slot p is the
    coefficient of the generator of pairs[p].

    The basis is the vectors that raise the rank when the vectors are
    ranked in order.  It is all that the first-order lifting needs: the
    lifting conditions of a combination sum_t c_t*b_t of relation
    vectors are the same combination of the conditions of each b_t,
    because the quotient map is linear, so the basis spans every condition
    row the whole family gives.

    Only the basis vectors are checked to annihilate the generators,
    and that is enough: the entries are linear, so a vector that does
    not raise the rank is a Q-combination of earlier basis vectors, and
    annihilation is linear, so it annihilates when they do.  The first
    vector that does not annihilate lies outside the span of the ones
    before it, so it raises the rank and is checked."""

    n: int
    pairs: tuple
    quadruples: tuple
    vectors: tuple
    expected_rank: int

    @cached_property
    def basis(self) -> tuple:
        # columns in descending pair slot, so each row's lead is its last
        # slot; which vectors raise the rank does not depend on the column
        # order, only the fill-in does
        reg = lines_registry(self.n)
        nv = reg.nvars
        rows = (
            {-(p * nv + mono[0][0]): c for p, entry in vec for mono, c in entry.terms.items()}
            for vec in self.vectors
        )
        assert all(mono_degree(m) == 1 for vec in self.vectors for _, e in vec for m in e.terms)
        elim = SparseEliminator()
        basis = tuple(vec for vec, row in zip(self.vectors, rows) if elim.add(row))
        gens = [line_generator(reg, i, j) for i, j in self.pairs]
        for vec in basis:
            if sum_of_products(reg, ((1, v, gens[p]) for p, v in vec)):
                raise AssertionError("relation family vector is not a syzygy")
        return basis

    @property
    def rank(self) -> int:
        return len(self.basis)


def _relation_quadruples(n: int) -> List[Tuple[int, int, int, int]]:
    """The quadruples (i, k, j, l) indexing the distinguished relations:
    i < k, j < l, all four distinct."""
    out = []
    for i, k in itertools.combinations(range(1, n + 1), 2):
        rest = [m for m in range(1, n + 1) if m not in (i, k)]
        for j, l in itertools.combinations(rest, 2):
            out.append((i, k, j, l))
    return out


@lru_cache(maxsize=None)
def relations(n: int) -> RelationFamily:
    if n < 4:
        raise ValueError("relation family needs n >= 4")
    reg = lines_registry(n)
    pairs = tuple(itertools.combinations(range(1, n + 1), 2))
    pair_pos = {p: k for k, p in enumerate(pairs)}

    def ppos(i: int, j: int) -> int:
        return pair_pos[(i, j) if i < j else (j, i)]

    quadruples = _relation_quadruples(n)

    # the four slots are distinct, since i != k and j != l
    vectors = []
    for (i, k, j, l) in quadruples:
        zi, zk = _zvar(reg, i), _zvar(reg, k)
        slots = {
            ppos(i, j): zk,
            ppos(i, l): -zk,
            ppos(k, j): -zi,
            ppos(k, l): zi,
        }
        vectors.append(tuple(sorted(slots.items())))

    return RelationFamily(
        n=n,
        pairs=pairs,
        quadruples=tuple(quadruples),
        vectors=tuple(vectors),
        expected_rank=linear_relation_formula(n),
    )


# ---------------------------------------------------------------------------
# monomial curves


def monomial_semigroup(kind: str, n: int) -> range:
    """Generators off+1, ..., off+n of the value semigroup of a monomial
    curve parametrized by z_m = t^(off+m): off = n for the elliptic
    curve <n+1, ..., 2n> and off = n-1 for the rational one
    <n, ..., 2n-1>."""
    offsets = {MONOMIAL_ELLIPTIC: n, MONOMIAL_RATIONAL: n - 1}
    if kind not in offsets:
        raise ValueError(f"unsupported monomial curve kind {kind!r}")
    return range(offsets[kind] + 1, offsets[kind] + n + 1)


def monomial_rewrites(kind: str, n: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """The rewriting rule of a monomial curve as (i, j, rhs) over
    2 <= i <= j <= n: z_i*z_j equals the product of the z_k, k in rhs,
    on the curve.  With off as in ``monomial_semigroup`` and
    m = i+j-2-off, rhs is (1, i+j-1) when i+j <= n+1, (1, 1, m) when
    m >= 1, and (2, n) otherwise, which happens only on the elliptic
    curve at i+j = n+2; there the tautology (2, n) -> (2, n) is dropped.
    Every reader of the rule takes it from here."""
    off = monomial_semigroup(kind, n)[0] - 1
    out = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            m = i + j - 2 - off
            if i + j <= n + 1:
                rhs = (1, i + j - 1)
            elif m >= 1:
                rhs = (1, 1, m)
            else:
                rhs = (2, n)
            if rhs != (i, j):
                out.append((i, j, rhs))
    return out


def _monomial_table(kind: str, n: int) -> List[Polynomial]:
    if n < 3:
        raise ValueError("need n >= 3")
    reg = lines_registry(n, with_y=False)
    return [
        _zvar(reg, i) * _zvar(reg, j)
        - (_zvar(reg, 1) ** 2 if len(rhs) == 3 else _zvar(reg, rhs[0])) * _zvar(reg, rhs[-1])
        for i, j, rhs in monomial_rewrites(kind, n)
    ]


def elliptic_monomial_table(n: int) -> List[Polynomial]:
    """Equations z_i*z_j - rhs of the monomial curve with semigroup
    <n+1, ..., 2n> (z_m = t^(n+m)), one per rewrite of
    ``monomial_rewrites``: z_1*z_{i+j-1}, z_2*z_n or z_1^2*z_{i+j-n-2}."""
    return _monomial_table(MONOMIAL_ELLIPTIC, n)


def rational_monomial_table(n: int) -> List[Polynomial]:
    """The same for the semigroup <n, ..., 2n-1> (z_m = t^(n+m-1)):
    z_1*z_{i+j-1}, or z_1^2*z_{i+j-n-1}, which is z_1^3 at i+j = n+2."""
    return _monomial_table(MONOMIAL_RATIONAL, n)


def parametrization_kernel(
    n: int, exponents: Sequence[int], budget: Budget = DEFAULT_BUDGET
) -> Ideal:
    """Kernel of z_m -> t^(e_m): eliminate t from (z_m - t^(e_m))."""
    reg = build_registry(nz=n, t=True)
    tvar = Polynomial.var(reg, "t")
    gens = [
        Polynomial.var(reg, f"z{m}") - tvar ** exponents[m - 1]
        for m in range(1, n + 1)
    ]
    return eliminate(Ideal(reg, gens), ["t"], budget)


def monomial_ideal(kind: str, n: int, budget: Budget = DEFAULT_BUDGET) -> Ideal:
    """Ideal of a monomial curve: the elimination kernel of its
    parametrization z_m -> t^(off+m) (``monomial_semigroup``).  The
    rewriting tables are separate cross-checks against it."""
    return parametrization_kernel(n, monomial_semigroup(kind, n), budget)


# ---------------------------------------------------------------------------
# lines through roots of unity


@dataclass(frozen=True)
class NonrationalLinesReport:
    """Outcome of checking the root-of-unity lines against the quadratic
    rewriting system z_i*z_j = z_1*z_{i+j-1} / z_2*z_n / z_1*z_{i+j-n-2}.

    ``exponent_residues`` records, per generator, the two exponent sums
    modulo n+1 whose agreement makes the generator vanish on every line
    (e^(n+1) = 1).  ``uniform_wrap_ok`` reports the alternative reading
    that would patch the i+j = n+2 case with z_1*z_n instead of z_2*z_n;
    it fails the residue test, which is why the displayed reading is the
    one taken."""

    n: int
    generator_count: int
    displayed_ok: bool
    exponent_residues: tuple
    uniform_wrap_ok: bool


def _nonrational_system(n: int, wrap_with_z1: bool = False) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Exponent-level system: pairs (lhs indices, rhs indices), read
    from the elliptic rewrites with z_1^2*z_m taken as z_1*z_m.  The
    uniform-wrap variant rewrites every i+j = n+2 as z_1*z_n."""
    system = [((i, j), rhs[-2:]) for i, j, rhs in monomial_rewrites(MONOMIAL_ELLIPTIC, n)]
    if not wrap_with_z1:
        return system
    wrapped = [((i, j), (1, n) if i + j == n + 2 else rhs) for (i, j), rhs in system]
    return wrapped + [((2, n), (1, n))]


def _residues(n: int, system) -> tuple:
    return tuple((sum(lhs) % (n + 1), sum(rhs) % (n + 1)) for lhs, rhs in system)


def nonrational_lines_check(n: int) -> NonrationalLinesReport:
    """Verify that the lines z_m = e^m * t with e^(n+1) = 1 satisfy the
    quadratic system.  On such a line a generator z_a*z_b - z_c*z_d is
    (e^(a+b) - e^(c+d)) * t^2, which vanishes for every (n+1)-st root of
    unity e, the primitive ones included, exactly when
    a+b = c+d (mod n+1); no field extension or Groebner basis is needed."""
    if n < 3:
        raise ValueError("need n >= 3")
    system = _nonrational_system(n)
    residues = _residues(n, system)
    uniform = _residues(n, _nonrational_system(n, wrap_with_z1=True))
    return NonrationalLinesReport(
        n=n,
        generator_count=len(system),
        displayed_ok=all(a == b for a, b in residues),
        exponent_residues=residues,
        uniform_wrap_ok=all(a == b for a, b in uniform),
    )


# ---------------------------------------------------------------------------
# numerical invariants


@dataclass(frozen=True)
class SemigroupData:
    generators: tuple
    gaps: tuple
    delta: int
    multiplicity: int


def semigroup_invariants(generators: Iterable[int]) -> SemigroupData:
    """Gap count (= delta of the monomial curve) of a numerical
    semigroup; gaps are searched up to the square of the largest
    generator, far beyond the conductor."""
    gens = tuple(sorted(set(int(g) for g in generators)))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    if math.gcd(*gens) != 1:
        raise ValueError("generators with gcd > 1 leave infinitely many gaps")
    bound = max(gens) ** 2
    reachable = bytearray(bound + 1)
    reachable[0] = 1
    for v in range(1, bound + 1):
        for g in gens:
            if g > v:
                break
            if reachable[v - g]:
                reachable[v] = 1
                break
    gaps = tuple(v for v in range(1, bound + 1) if not reachable[v])
    return SemigroupData(
        generators=gens,
        gaps=gaps,
        delta=len(gaps),
        multiplicity=gens[0],
    )


@dataclass(frozen=True)
class NumericInvariants:
    delta: int
    branches: int
    mu: int
    genus: int


def numeric_invariants(delta: int, branches: int) -> NumericInvariants:
    """Milnor number and genus from delta and the branch count r:
    mu = 2*delta - r + 1 and genus = delta - r + 1."""
    return NumericInvariants(
        delta=delta,
        branches=branches,
        mu=2 * delta - branches + 1,
        genus=delta - branches + 1,
    )


def elliptic_t1_formula(n: int, branches: int) -> int:
    """Dimension of the first-order deformation space of an elliptic
    partition curve of multiplicity n+1 with r branches."""
    return n * (n + 1) // 2 - branches + 1


def t2_formula(n: int) -> int:
    """C(n,3) - n, the paper's dim T2 for the n+1 generic lines: a
    formula, not a computation of T2.  ``versal.t2_dimension`` certifies
    it as the rank of the base quadrics only."""
    return n * (n + 1) * (n - 4) // 6


def minimal_generator_formula(n: int) -> int:
    """Minimal number of generators of the ideal of n+1 generic lines
    in n-space (the y-free presentation)."""
    return (n + 1) * (n - 2) // 2


def linear_relation_formula(n: int) -> int:
    """Number of linearly independent non-Koszul relations of the
    quadric presentation."""
    return (n * n - 1) * (n - 3) // 3
