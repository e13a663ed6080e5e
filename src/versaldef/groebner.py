"""Buchberger-style Groebner engine over the rationals.

Deterministic by construction: the pair queue is a heap keyed by
(lcm total degree, generator indices), the normal selection strategy;
the reducer of a term is the first one in index order whose leading
monomial divides it, found once per monomial and remembered (a memo
shared by every reduction against one reducer list, which only grows by
appending), and the returned basis is the unique fully reduced one,
sorted ascending in the term order.  Plain runs interreduce the input
by one reduced row echelon form of its terms, autoreduced further only
where a reduction across degrees is possible.  Autoreduction is one
pass that reduces each item against the nonzero results before it; it
also turns the raw basis, in ascending order, into the reduced one.  The
chain criterion prunes pairs in every run, the product criterion only
in plain runs: a syzygy-recording run reduces coprime pairs too, so that
its zero reductions generate the full syzygy module.

Inside the engine a monomial is one int, its packed exponent vector for
the (order, registry) pair (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998; see
:class:`_Packing`): a larger int is a larger monomial, a product is an
addition and a divisibility test is one masked subtraction.  Monomials
are packed on entry and unpacked on exit, so polynomials and every result
keep the sparse tuples of :mod:`versaldef.poly`.

All potentially runaway loops are guarded by an explicit :class:`Budget`;
exhaustion raises :class:`BudgetExceeded` and is never silent.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Span, SparseEliminator
from .poly import (
    Mono,
    Polynomial,
    Scalar,
    VarRegistry,
    _exact,
    mono_coprime,
    mono_degree,
    mono_lcm,
    mono_mul,
    substitute,
    sum_of_products,
    weighted_degree,
)

__all__ = [
    "MonomialOrder",
    "DEGREVLEX",
    "LEX",
    "block_order",
    "Budget",
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "Ideal",
    "GroebnerBasis",
    "buchberger",
    "normal_form",
    "contains",
    "ideal_equal",
    "eliminate",
    "recheck",
    "SyzygyModule",
    "syzygies",
    "monomials_of_weighted_degree",
]


# ---------------------------------------------------------------------------
# orders


@dataclass(frozen=True)
class MonomialOrder:
    """A term order: 'degrevlex', 'lex', or 'block'.

    For 'block' the dropped variable positions come first (compared
    lexicographically among themselves) and the kept block is compared by
    graded reverse lexicographic order, which makes it an elimination
    order for the dropped variables.
    """

    kind: str
    block: tuple = ()


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def block_order(reg: VarRegistry, drop_names: Iterable[str]) -> MonomialOrder:
    drop = tuple(sorted(reg.position(n) for n in drop_names))
    return MonomialOrder("block", drop)


# Bits per packed field, its top bit a guard.  A wider field makes every
# packed int longer; 16 bits hold degrees up to 32767, far above any
# monomial of the paper.
FIELD_BITS = 16
_MAX_FIELD = (1 << (FIELD_BITS - 1)) - 1


def _overflow() -> OverflowError:
    return OverflowError(f"a monomial exponent or degree exceeds {_MAX_FIELD}, "
                         f"the largest a {FIELD_BITS}-bit packed field holds")


class _Packing:
    """One int per monomial for a fixed (order, registry) pair.

    P(m) = P(1) + sum(e_v * unit[v]) lays out FIELD_BITS-bit fields, most
    significant first in comparison order: the dropped block's exponents
    (every variable under lex), then, if any variable is kept, the kept
    degree and the complemented kept exponents _MAX_FIELD - e in reverse
    (degrevlex keeps every variable).  Every field of a valid packing lies
    in [0, _MAX_FIELD], so its top bit, the guard, is clear.  Hence a
    larger int is a larger monomial, P(ab) = P(a) + P(b) - P(1), and a | b
    iff (P(b) - P(a) + bias) & guard == plain, the guard bits of the plain
    (not complemented) fields: bias adds half a field to each field, less
    one to a complemented one, so with no borrow between fields a guard
    bit of the sum is set iff a plain field did not shrink or a
    complemented one grew.  A product out of range sets some guard bit.
    The plain fields hold the total degree between them: the dropped
    exponents and the kept degree.
    """

    def __init__(self, order: MonomialOrder, reg: VarRegistry) -> None:
        if order.kind not in ("degrevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {order.kind!r}")
        nv = reg.nvars
        drop = range(nv) if order.kind == "lex" else order.block
        keep = [v for v in range(nv) if v not in drop]
        layout = [(v, False) for v in drop]
        if keep:
            layout += [(None, False)] + [(v, True) for v in reversed(keep)]
        half = 1 << (FIELD_BITS - 1)
        self.unit = [0] * nv
        self.one = self.guard = self.plain = self.bias = deg = 0
        self.fields = []
        self.degree_shifts = []
        for i, (v, complemented) in enumerate(layout):
            shift = FIELD_BITS * (len(layout) - 1 - i)
            bit = 1 << shift
            self.guard += half * bit
            if complemented:
                self.unit[v] = deg - bit
                self.one += _MAX_FIELD * bit
                self.bias -= bit
            else:
                self.plain += half * bit
                self.degree_shifts.append(shift)
                if v is None:
                    deg = bit
                else:
                    self.unit[v] = bit
            if v is not None:
                self.fields.append((v, shift, complemented))
        self.bias += self.guard
        self.fields.sort()

    def encode(self, m: Mono) -> int:
        if mono_degree(m) > _MAX_FIELD:
            raise _overflow()
        p = self.one
        for v, e in m:
            p += e * self.unit[v]
        return p

    def decode(self, p: int) -> Mono:
        mask = (1 << FIELD_BITS) - 1
        out = []
        for v, shift, complemented in self.fields:
            e = (p >> shift) & mask
            if complemented:
                e = _MAX_FIELD - e
            if e:
                out.append((v, e))
        return tuple(out)

    def degree(self, p: int) -> int:
        mask = (1 << FIELD_BITS) - 1
        return sum((p >> shift) & mask for shift in self.degree_shifts)

    def pack(self, terms: dict) -> dict:
        return {self.encode(m): c for m, c in terms.items()}

    def unpack(self, terms: dict) -> dict:
        return {self.decode(m): c for m, c in terms.items()}

    def divides(self, a: int, b: int) -> bool:
        return (b - a + self.bias) & self.guard == self.plain

    def shift(self, terms: Iterable[Tuple[int, Scalar]], d: int, coeff: Scalar = 1) -> dict:
        """{m*q: c*coeff} for the (m, c) in terms, where d = P(q) - P(1)."""
        out = {m + d: c * coeff for m, c in terms}
        if d and any(m & self.guard for m in out):
            raise _overflow()
        return out


# ---------------------------------------------------------------------------
# budgets


@dataclass(frozen=True)
class Budget:
    """Resource limits for Groebner runs."""

    max_pairs: int = 2_000_000
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("max_pairs", "max_terms"):
            limit = getattr(self, name)
            if type(limit) is not int or limit < 1:
                raise ValueError(f"budget {name} must be an integer >= 1, got {limit!r}")


DEFAULT_BUDGET = Budget()


class BudgetExceeded(RuntimeError):
    """A declared resource limit was hit; carries what and where."""

    def __init__(self, what: str, limit: int, context: str = "") -> None:
        msg = f"budget exceeded: {what} > {limit}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.what = what
        self.limit = limit
        self.context = context


# ---------------------------------------------------------------------------
# ideals and bases


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal; zero generators are dropped on entry."""

    registry: VarRegistry
    generators: tuple

    def __init__(self, registry: VarRegistry, generators: Iterable[Polynomial]):
        gens = []
        for p in generators:
            if not isinstance(p, Polynomial):
                raise TypeError("generators must be Polynomial instances")
            if p.reg != registry:
                raise ValueError("generator lives over a different registry")
            if p:
                gens.append(p)
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "generators", tuple(gens))


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced Groebner basis of an ideal for a fixed order.  Its
    packed reducers, their memo and its leading monomials are built once,
    on first use, and shared by every reduction against it."""

    registry: VarRegistry
    order: MonomialOrder
    basis: tuple
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def _packed(self) -> Tuple[_Packing, list, dict]:
        pk = _Packing(self.order, self.registry)
        reducers = []
        for p in self.basis:
            terms = pk.pack(p.terms)
            reducers.append(_reducer(terms, max(terms)))
        return pk, reducers, {}

    @cached_property
    def _lts(self) -> tuple:
        pk, reducers, _ = self._packed
        return tuple(pk.decode(lt) for lt, _ in reducers)

    def leading_monomials(self) -> tuple:
        return self._lts


# ---------------------------------------------------------------------------
# the reduction core (works on packed term dicts)


def _reducer(monic: dict, lt: int) -> Tuple[int, tuple]:
    """(lt, tail) of a monic packed polynomial; the tail is shifted as it
    is by every reduction step that uses it."""
    return lt, tuple((m, c) for m, c in monic.items() if m != lt)


def _reduce_terms(
    terms: dict,
    reducers: Sequence[Tuple[int, tuple]],
    pk: _Packing,
    budget: Budget,
    memo: Dict[int, int],
    record: bool = False,
) -> Tuple[dict, Optional[Dict[int, dict]]]:
    """Complete reduction of a packed term dict against monic reducers
    (leading monomial, tail), all packed by pk.

    Returns (normal form, quotients) where quotients[k] maps the shift
    P(q) - P(1) of each term q of the cofactor of reducers[k] to its
    coefficient (only when record=True).  The normal form's coefficients
    are exact: ints where integral.  The reducer of a term is the first
    one in index order whose leading monomial divides it.

    memo maps a packed monomial to the index of its reducer, or, when
    none of the first c reducers divides it, to ~c; a lookup resumes the
    scan there.  Calls may share a memo only while the reducer list
    grows by appending.
    """
    rem: dict = {}
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    quot: Optional[Dict[int, dict]] = {} if record else None
    bias, guard, plain = pk.bias, pk.guard, pk.plain
    offsets = [bias - lt for lt, _ in reducers]
    scanned = ~len(offsets)
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        k = memo.get(m, -1)
        if k < 0:
            for k in range(~k, len(offsets)):
                if (m + offsets[k]) & guard == plain:
                    memo[m] = k
                    break
            else:
                memo[m] = scanned
                rem[m] = _exact(c)
                continue
        lt, tail = reducers[k]
        d = m - lt  # P(m / lt) - P(1)
        if record:
            qd = quot.setdefault(k, {})
            qd[d] = qd.get(d, 0) + c
        for mb, cb in tail:
            mm = mb + d
            acc = work.get(mm)
            if acc is None:
                if mm & guard:
                    raise _overflow()
                work[mm] = -c * cb
                heapq.heappush(heap, -mm)
            else:
                acc = acc - c * cb
                if acc:
                    work[mm] = acc
                else:
                    del work[mm]
        if len(work) + len(rem) > budget.max_terms:
            raise BudgetExceeded("terms", budget.max_terms, "reduction")
    return rem, quot


def _monic(terms: dict, lt: int) -> Tuple[Scalar, dict]:
    """(1/c, terms/c) for the coefficient c of lt.  This is the engine's
    only division; its results are exact (ints where integral)."""
    inv = _exact(Fraction(1) / terms[lt])
    return inv, {m: _exact(c * inv) for m, c in terms.items()}


def _spoly(pk: _Packing, a: Tuple[int, tuple], b: Tuple[int, tuple], lcm: int) -> dict:
    """The S-polynomial of two monic reducers at their packed lcm; the
    leading terms cancel, so only the tails are shifted."""
    s = pk.shift(a[1], lcm - a[0])
    for m, c in pk.shift(b[1], lcm - b[0]).items():
        acc = s.get(m, 0) - c
        if acc:
            s[m] = acc
        elif m in s:
            del s[m]
    return s


# ---------------------------------------------------------------------------
# row bookkeeping for syzygy recording


def _row_scale_shift(pk: _Packing, row: Dict[int, dict], d: int, coeff: Scalar) -> Dict[int, dict]:
    return {i: pk.shift(t.items(), d, coeff) for i, t in row.items()}


def _row_sub(acc: Dict[int, dict], other: Dict[int, dict]) -> None:
    for i, d in other.items():
        tgt = acc.setdefault(i, {})
        for m, c in d.items():
            v = tgt.get(m, 0) - c
            if v:
                tgt[m] = v
            elif m in tgt:
                del tgt[m]
        if not tgt:
            del acc[i]


# ---------------------------------------------------------------------------
# engine


class _Engine:
    def __init__(
        self,
        ideal: Ideal,
        order: MonomialOrder,
        budget: Budget,
        record: bool,
    ) -> None:
        self.budget = budget
        self.record = record
        self.pk = _Packing(order, ideal.registry)
        self.lts: List[Mono] = []  # sparse, for the lcm and its degree
        self.reducers: List[Tuple[int, tuple]] = []
        self.rows: List[Dict[int, dict]] = []
        self.syzygy_rows: List[Dict[int, dict]] = []
        self.stats = {"pairs_processed": 0, "zero_reductions": 0}

        seeds: List[Tuple[dict, Dict[int, dict]]] = []
        for gi, p in enumerate(ideal.generators):
            seeds.append((self.pk.pack(p.terms), {gi: {self.pk.one: 1}}))
        if not record:
            seeds = [(t, r) for t, r in seeds if t]
            seeds = self._interreduce(seeds)
        for terms, row in seeds:
            self._push(terms, row)

    def _interreduce(self, seeds):
        """Mutual reduction of the input set (plain runs only).

        Reducing a term by an equal leading monomial is a row operation,
        so the reduced row echelon form of the seeds, its columns the
        terms in descending packed order, does every such reduction at
        once; its rows keep the order in which their pivots were found.
        Any other reduction divides a term by a leading monomial of
        smaller degree, so only if some term has a degree above the
        least leading degree are the rows autoreduced, in that order.
        """
        cols = sorted({m for t, _ in seeds for m in t}, reverse=True)
        index = {m: k for k, m in enumerate(cols)}
        elim = SparseEliminator()
        for t, _ in seeds:
            elim.add({index[m]: c for m, c in t.items()})
        items = [{cols[k]: c for k, c in row.items()} for row in elim.reduced_echelon().values()]
        degree = self.pk.degree
        low = min((degree(max(x)) for x in items), default=0)
        if any(degree(m) > low for x in items for m in x):
            items = self._autoreduce(items)
        return [(x, {}) for x in items]

    def _autoreduce(self, items: List[dict]) -> List[dict]:
        """Each item reduced against the nonzero results before it, in
        order, those that reduce to zero dropped.  The reducers only grow
        by appending, so one memo serves every reduction."""
        kept: List[dict] = []
        reducers: List[Tuple[int, tuple]] = []
        memo: Dict[int, int] = {}
        for terms in items:
            rem, _ = _reduce_terms(terms, reducers, self.pk, self.budget, memo)
            if rem:
                kept.append(rem)
                lt = max(rem)
                reducers.append(_reducer(_monic(rem, lt)[1], lt))
        return kept

    def _push(self, terms: dict, row: Dict[int, dict]) -> int:
        lt = max(terms)
        inv, monic = _monic(terms, lt)
        self.lts.append(self.pk.decode(lt))
        self.reducers.append(_reducer(monic, lt))
        if self.record:
            self.rows.append(_row_scale_shift(self.pk, row, 0, inv))
        return len(self.lts) - 1

    def run(self) -> None:
        pk = self.pk
        pq: List[Tuple[int, int, int]] = []
        for i, j in itertools.combinations(range(len(self.lts)), 2):
            lcm = mono_lcm(self.lts[i], self.lts[j])
            heapq.heappush(pq, (mono_degree(lcm), i, j))
        done = set()
        memo: Dict[int, int] = {}
        pops = 0
        while pq:
            _, i, j = heapq.heappop(pq)
            pops += 1
            if pops > self.budget.max_pairs:
                raise BudgetExceeded("s-pairs", self.budget.max_pairs, "buchberger")
            done.add((i, j))
            lti, ltj = self.lts[i], self.lts[j]
            # a coprime pair's S-polynomial reduces to zero, but that says
            # nothing of whether its leading-term syzygy follows from the
            # others', so a recording run reduces it and records its lift
            if not self.record and mono_coprime(lti, ltj):
                continue
            lcm = pk.encode(mono_lcm(lti, ltj))
            if self._chain_skip(i, j, lcm, done):
                continue
            ri, rj = self.reducers[i], self.reducers[j]
            s = _spoly(pk, ri, rj, lcm)
            rem, quot = _reduce_terms(s, self.reducers, pk, self.budget, memo, self.record)
            row: Dict[int, dict] = {}
            if self.record:
                row = _row_scale_shift(pk, self.rows[i], lcm - ri[0], 1)
                _row_sub(row, _row_scale_shift(pk, self.rows[j], lcm - rj[0], 1))
                for k, qd in quot.items():
                    for qd_shift, qc in qd.items():
                        _row_sub(row, _row_scale_shift(pk, self.rows[k], qd_shift, qc))
            if rem:
                new = self._push(rem, row)
                for k in range(new):
                    lcm = mono_lcm(self.lts[k], self.lts[new])
                    heapq.heappush(pq, (mono_degree(lcm), k, new))
            else:
                self.stats["zero_reductions"] += 1
                if row:
                    self.syzygy_rows.append(row)
        self.stats["pairs_processed"] = pops
        self.stats["basis_size_raw"] = len(self.lts)

    def _chain_skip(self, i: int, j: int, lcm: int, done: set) -> bool:
        for k, (lt, _) in enumerate(self.reducers):
            if k == i or k == j:
                continue
            if self.pk.divides(lt, lcm):
                p1 = (i, k) if i < k else (k, i)
                p2 = (j, k) if j < k else (k, j)
                if p1 in done and p2 in done:
                    return True
        return False

    def reduced_basis(self) -> List[dict]:
        """The reduced basis, ascending: the raw reducers autoreduced in
        ascending order of leading monomial.  A term below a leading
        monomial is divisible only by a smaller one, so the items before
        an element are all it needs; one whose leading monomial is not
        minimal reduces to zero against them and drops out."""
        ascending = sorted(self.reducers, key=lambda r: r[0])
        return self._autoreduce([dict(((lt, 1),) + tail) for lt, tail in ascending])


# ---------------------------------------------------------------------------
# public operations


def buchberger(
    ideal: Ideal,
    order: MonomialOrder = DEGREVLEX,
    budget: Budget = DEFAULT_BUDGET,
) -> GroebnerBasis:
    """Reduced Groebner basis; unique for (ideal, order)."""
    eng = _Engine(ideal, order, budget, record=False)
    eng.run()
    basis = eng.reduced_basis()
    polys = tuple(Polynomial._raw(ideal.registry, eng.pk.unpack(t)) for t in basis)
    return GroebnerBasis(ideal.registry, order, polys, dict(eng.stats))


def normal_form(p: Polynomial, gb: GroebnerBasis, budget: Budget = DEFAULT_BUDGET) -> Polynomial:
    """Complete normal form of p against the basis; 0 iff p is a member."""
    if p.reg != gb.registry:
        raise ValueError("polynomial and basis live over different registries")
    pk, reducers, memo = gb._packed
    rem, _ = _reduce_terms(pk.pack(p.terms), reducers, pk, budget, memo)
    return Polynomial._raw(gb.registry, pk.unpack(rem))


def contains(gb: GroebnerBasis, p: Polynomial, budget: Budget = DEFAULT_BUDGET) -> bool:
    return normal_form(p, gb, budget).is_zero()


def ideal_equal(
    a: Ideal,
    b: Ideal,
    order: MonomialOrder = DEGREVLEX,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Exact ideal equality via coincidence of reduced bases."""
    if a.registry != b.registry:
        raise ValueError("ideals live over different registries")
    return buchberger(a, order, budget) == buchberger(b, order, budget)


def eliminate(
    ideal: Ideal,
    drop_names: Iterable[str],
    budget: Budget = DEFAULT_BUDGET,
) -> Ideal:
    """Generators of the contraction to the subring without the dropped
    variables, computed with a block elimination order.  They come out
    ascending in degrevlex on the subring: the reduced basis is ascending
    in the block order, which compares two monomials free of the dropped
    variables as degrevlex on the kept ones.  ``substitute`` moves each
    of them into the subring."""
    drop = tuple(drop_names)
    for n in drop:
        ideal.registry.position(n)
    order = block_order(ideal.registry, drop)
    gb = buchberger(ideal, order, budget)
    drop_pos = set(order.block)
    keep_names = [v.name for v in ideal.registry.vars if ideal.registry.position(v.name) not in drop_pos]
    sub = ideal.registry.restrict(keep_names)
    return Ideal(sub, [
        substitute(p, {}, target=sub)
        for p in gb.basis
        if not any(v in drop_pos for v in p.variables())
    ])


def recheck(gb: GroebnerBasis, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Internal consistency pass: every S-polynomial of the final basis
    reduces to zero against it."""
    pk, reducers, memo = gb._packed
    lts = gb._lts
    for i, j in itertools.combinations(range(len(lts)), 2):
        lcm = pk.encode(mono_lcm(lts[i], lts[j]))
        rem, _ = _reduce_terms(_spoly(pk, reducers[i], reducers[j], lcm), reducers, pk, budget, memo)
        if rem:
            return False
    return True


# ---------------------------------------------------------------------------
# syzygies

# the recorded syzygy run still pops every pair of generators, reduces
# each coprime one and keeps a cofactor row per element, so larger
# presentations are refused up front
SYZYGY_GENERATOR_GUARD = 64


@dataclass(frozen=True)
class SyzygyModule:
    """Generating set of the first syzygy module of an ideal's generators.

    Vectors are tuples of polynomials aligned with ``ideal.generators``;
    each satisfies sum(v[i] * gen[i]) == 0 exactly.  ``minimal_count`` is
    the number of generators of the module after graded minimalisation,
    with the per-degree breakdown in ``minimal_by_degree``.
    """

    ideal: Ideal
    vectors: tuple
    degrees: tuple
    minimal_count: int
    minimal_by_degree: dict = field(compare=False)


def monomials_of_weighted_degree(reg: VarRegistry, d: int) -> List[Mono]:
    """All monomials of exact weighted degree d, deterministic order."""
    weights = reg.weights
    nv = reg.nvars
    out: List[Mono] = []

    def rec(pos: int, left: int, acc: List[Tuple[int, int]]) -> None:
        if left == 0:
            out.append(tuple(acc))
            return
        if pos == nv:
            return
        w = weights[pos]
        rec(pos + 1, left, acc)
        for e in range(1, left // w + 1):
            acc.append((pos, e))
            rec(pos + 1, left - w * e, acc)
            acc.pop()

    rec(0, d, [])
    return sorted(out)


def syzygies(ideal: Ideal, budget: Budget = DEFAULT_BUDGET) -> SyzygyModule:
    """First syzygies of the given generators, with cofactors recorded
    during a degrevlex Buchberger run.

    The run skips a pair (i, j) by Buchberger's second (chain) criterion
    in the form of Gebauer and Moeller ("On an installation of
    Buchberger's algorithm", J. Symbolic Comput. 6, 1988): some k with
    lt_k | lcm_ij has had both (i, k) and (j, k) popped earlier.  Then
    the leading-term syzygy tau_ij is (m_ij/m_ik)*tau_ik - (m_ij/m_jk)*
    tau_jk, so by induction over the pop order the tau of the reduced
    pairs generate Syz(LT(G)), and by the lifting argument behind
    Schreyer's theorem (Eisenbud, *Commutative Algebra*, Thm 15.10)
    their recorded lifts generate Syz(G).  The lift of a pair that gave
    a new element maps to 0 back on the input generators, so the zero
    reductions' rows generate the syzygy module of the input, whose
    graded Nakayama count does not depend on the generating set.  The
    product criterion is not applied: a coprime pair's S-polynomial
    reduces to zero, but its leading-term syzygy need not follow from
    the others' (each Koszul syzygy of (z1^2, z2^3, z3^4) is minimal).

    Intended for small presentations; guarded by
    ``SYZYGY_GENERATOR_GUARD``.  Generators must be homogeneous for the
    registry weights so that the graded minimalisation applies.
    """
    gens = ideal.generators
    if len(gens) > SYZYGY_GENERATOR_GUARD:
        raise ValueError(
            f"syzygy computation guarded at {SYZYGY_GENERATOR_GUARD} generators; got {len(gens)}"
        )
    gen_degrees = []
    for p in gens:
        d = weighted_degree(p)
        if not isinstance(d, int):
            raise ValueError("syzygies need weighted-homogeneous generators")
        gen_degrees.append(d)

    eng = _Engine(ideal, DEGREVLEX, budget, record=True)
    eng.run()

    reg = ideal.registry
    raw_vectors = []
    for row in eng.syzygy_rows:
        vec = tuple(Polynomial(reg, eng.pk.unpack(row.get(i, {}))) for i in range(len(gens)))
        if any(vec):
            raw_vectors.append(vec)

    # exactness check and vector degrees
    degrees = []
    vectors = []
    seen = set()
    for vec in raw_vectors:
        if sum_of_products(reg, ((1, v, g) for v, g in zip(vec, gens))):
            raise AssertionError("recorded syzygy does not annihilate the generators")
        d = None
        for v, gd in zip(vec, gen_degrees):
            if v.is_zero():
                continue
            vd = weighted_degree(v)
            if not isinstance(vd, int):
                raise ValueError("inhomogeneous syzygy vector")
            if d is None:
                d = vd + gd
            elif d != vd + gd:
                raise ValueError("syzygy vector is not graded")
        fingerprint = tuple(tuple(sorted(v.terms.items())) for v in vec)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        vectors.append(vec)
        degrees.append(d)

    by_degree = _minimal_generator_count(reg, vectors, degrees)
    return SyzygyModule(
        ideal=ideal,
        vectors=tuple(vectors),
        degrees=tuple(degrees),
        minimal_count=sum(by_degree.values()),
        minimal_by_degree=by_degree,
    )


def _minimal_generator_count(reg: VarRegistry, vectors, degrees) -> dict:
    """Graded Nakayama count: in each degree, new generators modulo the
    span of monomial multiples of lower-degree ones.  A vector's
    coordinates are keyed by (generator index, monomial).

    In degree d the multiples L go in highest degree first, one lower
    vector at a time, and after each the degree-d vectors still outside
    the span are reduced further.  Once none is left, the degree has no
    new generator and its remaining multiples are never eliminated.
    Otherwise the count is rank(L + V) - rank(L), taken on the residues
    left: each is a nonzero multiple of its vector plus an element of L.
    """
    by_degree: dict = {}
    keyed = [{(i, m): c for i, v in enumerate(vec) for m, c in v.terms.items()} for vec in vectors]
    highest_first = sorted(range(len(vectors)), key=lambda k: (-degrees[k], k))
    for d in sorted(set(degrees)):
        span = Span()
        outside = [span.columns(row) for row, deg in zip(keyed, degrees) if deg == d]
        for k in highest_first:
            if not outside:
                break
            if degrees[k] < d:
                span.add(
                    {(i, mono_mul(m, mono)): c for (i, m), c in keyed[k].items()}
                    for mono in monomials_of_weighted_degree(reg, d - degrees[k])
                )
                outside = [r for r in map(span.elim.reduce, outside) if r]
        new = sum(span.elim.add(r) for r in outside)
        if new:
            by_degree[d] = new
    return by_degree
