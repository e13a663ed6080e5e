"""Hilbert series data of weighted-homogeneous quotients.

The numerator of the Hilbert series of P/LT(I) over the common
denominator prod_i (1 - T^{w_i}) is computed from the leading-term
monomial ideal by the classic variable-splitting recursion.  The series
is then brought to the reduced form h(T) / (1 - T)^dim, from which the
Krull dimension, the multiplicity h(1) and the h-vector are read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .groebner import GroebnerBasis
from .poly import Mono, weighted_degree

__all__ = ["HilbertData", "hilbert_data", "hilbert_function_values", "krull_dimension_of_monomials"]


# polynomial-in-T helpers on int coefficient lists ---------------------------


def _poly_add(a: List[int], b: List[int]) -> List[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_shift(a: List[int], k: int) -> List[int]:
    return [0] * k + a if a else []


def _poly_divide_exact(a: List[int], b: List[int]) -> List[int]:
    """a / b when the division is exact; raises ArithmeticError otherwise."""
    if not b:
        raise ArithmeticError("division by zero polynomial")
    if not a:
        return []
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c % b[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // b[-1]
        out[i] = q
        if q:
            for j, cb in enumerate(b):
                rem[i + j] -= q * cb
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertData:
    """Reduced Hilbert series data: series = numerator / (1-T)^dimension.

    ``h_vector`` is the coefficient list of the numerator and
    ``multiplicity`` its value at T = 1.
    """

    dimension: int
    multiplicity: int
    h_vector: tuple
    numerator: tuple


def _interreduce_monomials(gens: List[Dict[int, int]]) -> List[Dict[int, int]]:
    out: List[Dict[int, int]] = []
    gens = sorted(gens, key=lambda g: (sum(g.values()), sorted(g.items())))
    for g in gens:
        if any(_divides(h, g) for h in out):
            continue
        out.append(g)
    return out


def _divides(a: Dict[int, int], b: Dict[int, int]) -> bool:
    return all(b.get(v, 0) >= e for v, e in a.items())


def _numerator(gens: List[Dict[int, int]], weights: Sequence[int], cache: dict) -> List[int]:
    gens = _interreduce_monomials(gens)
    if not gens:
        return [1]
    if any(not g for g in gens):
        return []
    key = tuple(sorted(tuple(sorted(g.items())) for g in gens))
    got = cache.get(key)
    if got is not None:
        return got

    def wdeg(g: Dict[int, int]) -> int:
        return sum(weights[v] * e for v, e in g.items())

    # pairwise coprime: product formula
    support_count: Dict[int, int] = {}
    for g in gens:
        for v in g:
            support_count[v] = support_count.get(v, 0) + 1
    if all(c == 1 for c in support_count.values()):
        acc = [1]
        for g in gens:
            factor = [1] + [0] * (wdeg(g) - 1) + [-1]
            acc = _poly_mul(acc, factor)
        cache[key] = acc
        return acc

    # split on the most shared variable (lowest index on ties)
    pivot = min(
        (v for v, c in support_count.items() if c > 1),
        key=lambda v: (-support_count[v], v),
    )
    # branch A: ideal + (pivot); gens containing pivot become redundant
    rest = [g for g in gens if pivot not in g]
    branch_a = _poly_mul([1] + [0] * (weights[pivot] - 1) + [-1], _numerator(rest, weights, cache))
    # branch B: ideal : pivot
    quo = []
    for g in gens:
        if pivot in g:
            h = dict(g)
            if h[pivot] == 1:
                del h[pivot]
            else:
                h[pivot] -= 1
            quo.append(h)
        else:
            quo.append(dict(g))
    branch_b = _poly_shift(_numerator(quo, weights, cache), weights[pivot])
    result = _poly_add(branch_a, branch_b)
    cache[key] = result
    return result


def hilbert_data(gb: GroebnerBasis) -> HilbertData:
    """Hilbert data of P/I from a Groebner basis of I.

    Requires every basis element to be homogeneous for the registry
    weights, so that standard monomials of the leading-term ideal count
    the graded pieces of the quotient.
    """
    reg = gb.registry
    for p in gb.basis:
        if not isinstance(weighted_degree(p), int):
            raise ValueError(
                "hilbert_data needs a weighted-homogeneous ideal; "
                f"offending element: {p}"
            )
    weights = reg.weights
    lead = [dict(m) for m in gb.leading_monomials()]
    num = _numerator(lead, weights, {})

    # divide off the non-(1-T) parts of the denominator
    reduced = num
    for w in weights:
        if w > 1:
            reduced = _poly_divide_exact(reduced, [1] * w)
    if not reduced:
        return HilbertData(dimension=-1, multiplicity=0, h_vector=(), numerator=())
    # strip (1 - T) factors
    strips = 0
    one_minus_t = [1, -1]
    while sum(reduced) == 0:
        reduced = _poly_divide_exact(reduced, one_minus_t)
        strips += 1
    dimension = reg.nvars - strips
    return HilbertData(
        dimension=dimension,
        multiplicity=sum(reduced),
        h_vector=tuple(reduced),
        numerator=tuple(reduced),
    )


def hilbert_function_values(data: HilbertData, upto: int) -> List[int]:
    """Values of the Hilbert function predicted by the reduced series.

    Expands numerator / (1-T)^dimension as a power series up to degree
    ``upto`` (inclusive).
    """
    d = data.dimension
    vals = [0] * (upto + 1)
    # 1/(1-T)^d has coefficients binom(k + d - 1, d - 1)
    from math import comb

    for shift, c in enumerate(data.h_vector):
        if not c:
            continue
        for k in range(shift, upto + 1):
            if d <= 0:
                vals[k] += c if k == shift else 0
            else:
                vals[k] += c * comb(k - shift + d - 1, d - 1)
    return vals


def krull_dimension_of_monomials(nvars: int, gens: List[Mono]) -> int:
    """Independent-set dimension of a monomial ideal: the largest set of
    variables touching no generator entirely.  Used as an oracle."""
    from itertools import combinations

    supports = [frozenset(v for v, _ in m) for m in gens]
    if any(not s for s in supports):
        return -1
    for size in range(nvars, -1, -1):
        for cand in combinations(range(nvars), size):
            cset = set(cand)
            if all(not s <= cset for s in supports):
                return size
    return 0
