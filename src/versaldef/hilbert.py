"""Hilbert series data of weighted-homogeneous quotients.

The numerator of the Hilbert series of P/LT(I) over the common
denominator prod_i (1 - T^{w_i}) is computed from the minimal generators
of the leading-term monomial ideal by the pivot algorithm of Bigatti
("Computation of Hilbert-Poincare series", JPAA 119, 1997): generators
in variable-disjoint components give the product of the components'
numerators, and a component is split on its most shared variable.  A
set of pairwise coprime generators is the case where every component is
a single generator g, whose numerator is 1 - T^{deg g}.  The series is
then brought to the reduced form h(T) / (1 - T)^dim, from which the
Krull dimension, the multiplicity h(1) and the h-vector are read off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from .groebner import GroebnerBasis
from .poly import MONO_ONE, Mono, mono_degree, mono_divides, mono_weighted_degree, weighted_degree

__all__ = ["HilbertData", "hilbert_data"]


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
    """Reduced Hilbert series data: series = h(T) / (1-T)^dimension.

    ``h_vector`` is the coefficient list of h and ``multiplicity`` its
    value at T = 1.
    """

    dimension: int
    multiplicity: int
    h_vector: tuple


def _one_minus_t_power(w: int) -> List[int]:
    return [1] + [0] * (w - 1) + [-1]


def _minimalise(gens: Iterable[Mono]) -> List[Mono]:
    """The minimal generators of the monomial ideal generated by ``gens``."""
    out: List[Mono] = []
    for g in sorted(set(gens), key=mono_degree):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return out


def _colon(g: Mono, x: int) -> Mono:
    """The generator of (g) : x: g with the exponent of x lowered by one."""
    return tuple((v, e - (v == x)) for v, e in g if v != x or e > 1)


def _components(gens: FrozenSet[Mono]) -> List[FrozenSet[Mono]]:
    """The generators grouped into classes that share no variable."""
    groups: List[Tuple[set, List[Mono]]] = []  # (variables, generators)
    for g in gens:
        support = {v for v, _ in g}
        members = [g]
        rest = []
        for variables, group in groups:
            if variables & support:
                support |= variables
                members += group
            else:
                rest.append((variables, group))
        groups = rest + [(support, members)]
    return [frozenset(members) for _, members in groups]


def _numerator(gens: FrozenSet[Mono], weights: Sequence[int], cache: dict) -> List[int]:
    """Numerator of the Hilbert series of P/(gens) over prod_i (1 - T^{w_i});
    ``gens`` must be minimal generators of a monomial ideal."""
    if not gens:
        return [1]
    if MONO_ONE in gens:
        return []
    if gens in cache:
        return cache[gens]
    parts = _components(gens)
    if len(parts) > 1:
        # variable-disjoint ideals: the numerator of the sum is the product
        result = [1]
        for part in parts:
            result = _poly_mul(result, _numerator(part, weights, cache))
    elif len(gens) == 1:
        (g,) = gens
        result = _one_minus_t_power(mono_weighted_degree(g, weights))
    else:
        # N(I) = N(I + (x)) + T^w_x N(I : x) on the most shared variable x
        # (lowest index on ties); N(I + (x)) = (1 - T^w_x) N(gens without x)
        count = Counter(v for g in gens for v, _ in g)
        x = min(count, key=lambda v: (-count[v], v))
        w = weights[x]
        without = frozenset(g for g in gens if all(v != x for v, _ in g))
        colon = frozenset(_minimalise(_colon(g, x) for g in gens))
        result = _poly_add(
            _poly_mul(_one_minus_t_power(w), _numerator(without, weights, cache)),
            _poly_shift(_numerator(colon, weights, cache), w),
        )
    cache[gens] = result
    return result


def hilbert_data(gb: GroebnerBasis) -> HilbertData:
    """Hilbert data of P/I from a Groebner basis of I.

    Requires every basis element to be homogeneous for the registry
    weights, so that standard monomials of the leading-term ideal count
    the graded pieces of the quotient, and raises ``ValueError`` when
    the series is not of the form h(T)/(1-T)^dim, as for P/(z4) in
    z1..z4 and y of weight 2, whose series is 1/((1-T)^3 (1-T^2)).
    """
    reg = gb.registry
    for p in gb.basis:
        if not isinstance(weighted_degree(p), int):
            raise ValueError(
                "hilbert_data needs a weighted-homogeneous ideal; "
                f"offending element: {p}"
            )
    weights = reg.weights
    num = _numerator(frozenset(_minimalise(gb.leading_monomials())), weights, {})

    # divide off the non-(1-T) parts of the denominator
    reduced = num
    try:
        for w in weights:
            if w > 1:
                reduced = _poly_divide_exact(reduced, [1] * w)
    except ArithmeticError:
        raise ValueError(
            "the Hilbert series of the quotient is not of the form "
            "h(T)/(1-T)^dim: a variable of weight w > 1 leaves a factor of "
            "1/(1 + T + ... + T^(w-1)) in it"
        ) from None
    if not reduced:
        return HilbertData(dimension=-1, multiplicity=0, h_vector=())
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
    )
