"""Buchberger-style Groebner engine over the rationals.

Deterministic by construction: the pair queue is a heap keyed by
(lcm total degree, generator indices), the normal selection strategy;
reducers are scanned in basis order, and the returned basis is the unique
fully reduced one, sorted ascending in the term order.  The product and
chain criteria prune pairs in plain runs; syzygy-recording runs process
every pair so that the zero reductions generate the full syzygy module.

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

from .linalg import SparseEliminator
from .poly import (
    Mono,
    MONO_ONE,
    Polynomial,
    Scalar,
    VarRegistry,
    _exact,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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

    def key_func(self, reg: VarRegistry):
        """The order's descending key: a smaller key means a larger
        monomial, so a min-heap of keys pops the largest monomial first
        and the leading monomial is ``min(terms, key=key)``."""
        nv = reg.nvars
        if self.kind == "degrevlex":

            def key(m: Mono):
                dense = [0] * nv
                deg = 0
                for v, e in m:
                    dense[v] = e
                    deg += e
                dense.append(-deg)
                dense.reverse()
                return tuple(dense)

            return key
        if self.kind == "lex":

            def key(m: Mono):
                dense = [0] * nv
                for v, e in m:
                    dense[v] = -e
                return tuple(dense)

            return key
        if self.kind == "block":
            drop = self.block
            dpos = {v: i for i, v in enumerate(drop)}
            keep = [i for i in range(nv) if i not in dpos]
            kpos = {v: i for i, v in enumerate(keep)}
            nd, nk = len(drop), len(keep)

            def key(m: Mono):
                dd = [0] * nd
                dk = [0] * nk
                deg = 0
                for v, e in m:
                    di = dpos.get(v)
                    if di is not None:
                        dd[di] = -e
                    else:
                        dk[kpos[v]] = e
                        deg += e
                dd.append(-deg)
                dd.extend(reversed(dk))
                return tuple(dd)

            return key
        raise ValueError(f"unknown order kind {self.kind!r}")


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def block_order(reg: VarRegistry, drop_names: Iterable[str]) -> MonomialOrder:
    drop = tuple(sorted(reg.position(n) for n in drop_names))
    return MonomialOrder("block", drop)


class _KeyCache:
    """Memoised descending order key; the same monomials recur heavily in
    reductions."""

    __slots__ = ("f", "cache")

    def __init__(self, order: MonomialOrder, reg: VarRegistry) -> None:
        self.f = order.key_func(reg)
        self.cache: dict = {}

    def __call__(self, m: Mono):
        got = self.cache.get(m)
        if got is None:
            got = self.f(m)
            self.cache[m] = got
        return got


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
    order-key cache and leading monomials are built once, on first use,
    and shared by every reduction against it."""

    registry: VarRegistry
    order: MonomialOrder
    basis: tuple
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def _key(self) -> _KeyCache:
        return _KeyCache(self.order, self.registry)

    @cached_property
    def _lts(self) -> tuple:
        return tuple(min(p.terms, key=self._key) for p in self.basis)

    def leading_monomials(self) -> tuple:
        return self._lts


# ---------------------------------------------------------------------------
# the reduction core (works on raw term dicts)


def _shift(terms: dict, mono: Mono, coeff: Scalar = 1) -> dict:
    if mono == MONO_ONE and coeff == 1:
        return dict(terms)
    return {mono_mul(m, mono): c * coeff for m, c in terms.items()}


def _reduce_terms(
    terms: dict,
    lts: Sequence[Mono],
    polys: Sequence[dict],
    key: _KeyCache,
    budget: Budget,
    record: bool = False,
) -> Tuple[dict, Optional[Dict[int, dict]]]:
    """Complete reduction of a term dict against monic (lts, polys).

    Returns (normal form, quotients) where quotients[k] is the term dict
    of the cofactor of polys[k] (only when record=True).  The normal
    form's coefficients are exact: ints where integral.  The reducer of
    a term is the first one in index order whose leading monomial
    divides it; a support bitmask per monomial screens out reducers
    with a variable the term lacks before ``mono_divides`` runs.
    """
    rem: dict = {}
    work = dict(terms)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    quot: Optional[Dict[int, dict]] = {} if record else None
    masks = [sum(1 << v for v, _ in lt) for lt in lts]
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        outside = ~sum(1 << v for v, _ in m)
        red = -1
        for k, mask in enumerate(masks):
            if not mask & outside and mono_divides(lts[k], m):
                red = k
                break
        if red < 0:
            del work[m]
            rem[m] = _exact(c)
            continue
        q = mono_div(m, lts[red])
        del work[m]
        if record:
            qd = quot.setdefault(red, {})
            qd[q] = qd.get(q, 0) + c
        gp = polys[red]
        lt = lts[red]
        for mb, cb in gp.items():
            if mb == lt:
                continue
            mm = mono_mul(mb, q)
            acc = work.get(mm)
            if acc is None:
                work[mm] = -c * cb
                heapq.heappush(heap, (key(mm), mm))
            else:
                acc = acc - c * cb
                if acc:
                    work[mm] = acc
                else:
                    del work[mm]
        if len(work) + len(rem) > budget.max_terms:
            raise BudgetExceeded("terms", budget.max_terms, "reduction")
    return rem, quot


def _monic(terms: dict, lt: Mono) -> Tuple[Scalar, dict]:
    """(1/c, terms/c) for the coefficient c of lt.  This is the engine's
    only division; its results are exact (ints where integral)."""
    inv = _exact(Fraction(1) / terms[lt])
    return inv, {m: _exact(c * inv) for m, c in terms.items()}


# ---------------------------------------------------------------------------
# row bookkeeping for syzygy recording


def _row_scale_shift(row: Dict[int, dict], mono: Mono, coeff: Scalar) -> Dict[int, dict]:
    return {i: _shift(d, mono, coeff) for i, d in row.items()}


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
        self.reg = ideal.registry
        self.order = order
        self.budget = budget
        self.record = record
        self.key = _KeyCache(order, self.reg)
        self.lts: List[Mono] = []
        self.polys: List[dict] = []
        self.rows: List[Dict[int, dict]] = []
        self.syzygy_rows: List[Dict[int, dict]] = []
        self.stats = {"pairs_processed": 0, "zero_reductions": 0}

        seeds: List[Tuple[dict, Dict[int, dict]]] = []
        for gi, p in enumerate(ideal.generators):
            seeds.append((dict(p.terms), {gi: {MONO_ONE: 1}}))
        if not record:
            seeds = [(t, r) for t, r in seeds if t]
            seeds = self._interreduce(seeds)
        for terms, row in seeds:
            self._push(terms, row)

    def _interreduce(self, seeds):
        """Mutual reduction of the input set (plain runs only): Gauss-Seidel
        sweeps until nothing changes.  Each item's leading monomial and
        monic form are kept and recomputed only when the item changes."""
        items = [t for t, _ in seeds]
        heads = [self._head(x) for x in items]
        changed = True
        while changed:
            changed = False
            for i in range(len(items)):
                if not items[i]:
                    continue
                others = [h for k, h in enumerate(heads) if k != i and h]
                if not others:
                    continue
                rem, _ = _reduce_terms(
                    items[i],
                    [lt for lt, _ in others],
                    [monic for _, monic in others],
                    self.key,
                    self.budget,
                )
                if rem != items[i]:
                    items[i] = rem
                    heads[i] = self._head(rem) if rem else None
                    changed = True
        return [(x, {}) for x in items if x]

    def _head(self, terms: dict) -> Tuple[Mono, dict]:
        lt = min(terms, key=self.key)
        return lt, _monic(terms, lt)[1]

    def _push(self, terms: dict, row: Dict[int, dict]) -> int:
        lt = min(terms, key=self.key)
        inv, monic = _monic(terms, lt)
        self.lts.append(lt)
        self.polys.append(monic)
        if self.record:
            self.rows.append(_row_scale_shift(row, MONO_ONE, inv))
        return len(self.lts) - 1

    def run(self) -> None:
        pq: List[Tuple[int, int, int]] = []
        for i, j in itertools.combinations(range(len(self.lts)), 2):
            lcm = mono_lcm(self.lts[i], self.lts[j])
            heapq.heappush(pq, (mono_degree(lcm), i, j))
        done = set()
        pops = 0
        while pq:
            _, i, j = heapq.heappop(pq)
            pops += 1
            if pops > self.budget.max_pairs:
                raise BudgetExceeded("s-pairs", self.budget.max_pairs, "buchberger")
            done.add((i, j))
            lti, ltj = self.lts[i], self.lts[j]
            if not self.record:
                if mono_coprime(lti, ltj):
                    continue
                lcm = mono_lcm(lti, ltj)
                if self._chain_skip(i, j, lcm, done):
                    continue
            else:
                lcm = mono_lcm(lti, ltj)
            ui = mono_div(lcm, lti)
            uj = mono_div(lcm, ltj)
            s = _shift(self.polys[i], ui)
            for m, c in _shift(self.polys[j], uj).items():
                acc = s.get(m, 0) - c
                if acc:
                    s[m] = acc
                elif m in s:
                    del s[m]
            rem, quot = _reduce_terms(
                s, self.lts, self.polys, self.key, self.budget, self.record
            )
            row: Dict[int, dict] = {}
            if self.record:
                row = _row_scale_shift(self.rows[i], ui, 1)
                _row_sub(row, _row_scale_shift(self.rows[j], uj, 1))
                for k, qd in quot.items():
                    for qm, qc in qd.items():
                        _row_sub(row, _row_scale_shift(self.rows[k], qm, qc))
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

    def _chain_skip(self, i: int, j: int, lcm: Mono, done: set) -> bool:
        for k in range(len(self.lts)):
            if k == i or k == j:
                continue
            if mono_divides(self.lts[k], lcm):
                p1 = (i, k) if i < k else (k, i)
                p2 = (j, k) if j < k else (k, j)
                if p1 in done and p2 in done:
                    return True
        return False

    def reduced_basis(self) -> List[dict]:
        order_idx = sorted(
            range(len(self.lts)), key=lambda k: self.key(self.lts[k]), reverse=True
        )
        kept: List[int] = []
        kept_lts: List[Mono] = []
        for k in order_idx:
            lt = self.lts[k]
            if any(mono_divides(kl, lt) for kl in kept_lts):
                continue
            kept.append(k)
            kept_lts.append(lt)
        out = [dict(self.polys[k]) for k in kept]
        for pos in range(len(out)):
            lts = [kept_lts[q] for q in range(len(out)) if q != pos]
            polys = [out[q] for q in range(len(out)) if q != pos]
            rem, _ = _reduce_terms(out[pos], lts, polys, self.key, self.budget)
            out[pos] = rem
        return out


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
    polys = tuple(Polynomial._raw(ideal.registry, t) for t in basis)
    return GroebnerBasis(ideal.registry, order, polys, dict(eng.stats))


def normal_form(p: Polynomial, gb: GroebnerBasis, budget: Budget = DEFAULT_BUDGET) -> Polynomial:
    """Complete normal form of p against the basis; 0 iff p is a member."""
    if p.reg != gb.registry:
        raise ValueError("polynomial and basis live over different registries")
    polys = [q.terms for q in gb.basis]
    rem, _ = _reduce_terms(dict(p.terms), gb._lts, polys, gb._key, budget)
    return Polynomial._raw(gb.registry, rem)


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
    variables, computed with a block elimination order."""
    drop = tuple(drop_names)
    for n in drop:
        ideal.registry.position(n)
    order = block_order(ideal.registry, drop)
    gb = buchberger(ideal, order, budget)
    drop_pos = set(order.block)
    keep_names = [v.name for v in ideal.registry.vars if ideal.registry.position(v.name) not in drop_pos]
    sub = ideal.registry.restrict(keep_names)
    remap = {ideal.registry.position(n): sub.position(n) for n in keep_names}
    out = []
    for p in gb.basis:
        if any(v in drop_pos for v in p.variables()):
            continue
        terms = {
            tuple(sorted((remap[v], e) for v, e in m)): c for m, c in p.terms.items()
        }
        out.append(Polynomial._raw(sub, terms))
    key = _KeyCache(DEGREVLEX, sub)
    out.sort(key=lambda q: key(min(q.terms, key=key)), reverse=True)
    return Ideal(sub, out)


def recheck(gb: GroebnerBasis, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Internal consistency pass: every S-polynomial of the final basis
    reduces to zero against it."""
    lts = gb._lts
    polys = [q.terms for q in gb.basis]
    for i, j in itertools.combinations(range(len(lts)), 2):
        lcm = mono_lcm(lts[i], lts[j])
        s = _shift(polys[i], mono_div(lcm, lts[i]))
        for m, c in _shift(polys[j], mono_div(lcm, lts[j])).items():
            acc = s.get(m, 0) - c
            if acc:
                s[m] = acc
            elif m in s:
                del s[m]
        rem, _ = _reduce_terms(s, lts, polys, gb._key, budget)
        if rem:
            return False
    return True


# ---------------------------------------------------------------------------
# syzygies


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


def syzygies(
    ideal: Ideal,
    order: MonomialOrder = DEGREVLEX,
    budget: Budget = DEFAULT_BUDGET,
    max_generators: int = 64,
) -> SyzygyModule:
    """First syzygies of the given generators, with cofactors recorded
    during an all-pairs Buchberger run (no pair criteria, no discards).

    Intended for small presentations; guarded by ``max_generators``.
    Generators must be homogeneous for the registry weights so that the
    graded minimalisation applies.
    """
    gens = ideal.generators
    if len(gens) > max_generators:
        raise ValueError(
            f"syzygy computation guarded at {max_generators} generators; got {len(gens)}"
        )
    gen_degrees = []
    for p in gens:
        d = weighted_degree(p)
        if not isinstance(d, int):
            raise ValueError("syzygies need weighted-homogeneous generators")
        gen_degrees.append(d)

    eng = _Engine(ideal, order, budget, record=True)
    eng.run()

    reg = ideal.registry
    raw_vectors = []
    for row in eng.syzygy_rows:
        vec = tuple(Polynomial(reg, row.get(i, {})) for i in range(len(gens)))
        if any(vec):
            raw_vectors.append(vec)

    # exactness check and vector degrees
    degrees = []
    vectors = []
    seen = set()
    for vec in raw_vectors:
        total = Polynomial.zero(reg)
        for v, g in zip(vec, gens):
            total = total + v * g
        if total:
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

    by_degree = _minimal_generator_count(reg, gens, gen_degrees, vectors, degrees)
    return SyzygyModule(
        ideal=ideal,
        vectors=tuple(vectors),
        degrees=tuple(degrees),
        minimal_count=sum(by_degree.values()),
        minimal_by_degree=by_degree,
    )


def _vector_row(vec, gen_count: int, col_index: dict) -> dict:
    row = {}
    for i in range(gen_count):
        for m, c in vec[i].terms.items():
            key = (i, m)
            col = col_index.setdefault(key, len(col_index))
            row[col] = c
    return row


def _minimal_generator_count(
    reg: VarRegistry,
    gens,
    gen_degrees,
    vectors,
    degrees,
) -> dict:
    """Graded Nakayama count: in each degree, new generators modulo the
    span of monomial multiples of lower-degree ones."""
    by_degree: dict = {}
    if not vectors:
        return by_degree
    gen_count = len(gens)
    order_of = sorted(range(len(vectors)), key=lambda k: (degrees[k], k))
    distinct_degrees = sorted(set(degrees))
    for d in distinct_degrees:
        col_index: dict = {}
        elim = SparseEliminator()
        lower_rank = 0
        for k in order_of:
            if degrees[k] >= d:
                continue
            e = degrees[k]
            for mono in monomials_of_weighted_degree(reg, d - e):
                shifted = tuple(
                    Polynomial._raw(reg, _shift(v.terms, mono)) for v in vectors[k]
                )
                elim.add(_vector_row(shifted, gen_count, col_index))
        lower_rank = elim.rank
        for k in order_of:
            if degrees[k] != d:
                continue
            elim.add(_vector_row(vectors[k], gen_count, col_index))
        new = elim.rank - lower_rank
        if new:
            by_degree[d] = new
    return by_degree
