"""Small exact linear algebra over Q on integer rows.

``SparseEliminator`` is the one elimination here.  It takes sparse rows
(dicts column -> int or Fraction), clears each row's denominators on
entry and then works on integers only, by fraction-free
cross-multiplication in the sense of Bareiss (Math. Comp. 22, 1968);
the ranks it reports are exact ranks over Q.  ``Span`` puts columns
keyed by any hashable key (a monomial, a (slot, monomial) pair) in
front of it.  ``SparseEliminator.reduced_echelon`` back-substitutes
over the pivots; ``solve`` reads one solution of a linear system off
that reduced echelon form, and the Groebner engine interreduces its
seeds with it.  Everything
here is deterministic: pivots are always chosen as the smallest column
index of the row being processed, and rows are processed in input
order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]
Row = Dict[int, Scalar]
IntRow = Dict[int, int]


def _integer_row(row: Row) -> IntRow:
    """A fresh copy of ``row`` times the lcm of its denominators, without
    zero entries."""
    den = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}


def _clear(row: IntRow, piv: IntRow, col: int) -> None:
    """One Bareiss step in place: row <- a*row - b*piv with a/b =
    piv[col]/row[col] in lowest terms, which clears row[col].  a > 0
    because every pivot's entry at its lead is positive."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in piv.items():
        acc = row.get(k, 0) - b * v
        if acc:
            row[k] = acc
        else:
            del row[k]


class SparseEliminator:
    """Incremental fraction-free Gaussian elimination; feed rows, read
    off the rank.

    Each pivot is a primitive integer row (content 1) with a positive
    entry in its leading column.  ``add`` does only forward
    elimination, which the rank needs; ``reduced_echelon``
    back-substitutes over the pivots when the reduced form is wanted.
    """

    def __init__(self) -> None:
        self.pivots: Dict[int, IntRow] = {}

    def reduce(self, row: Row) -> IntRow:
        """Forward-eliminate ``row`` against the pivots.

        Returns a new dict: the residue over Q times a positive integer,
        with integer entries.  It is empty iff ``row`` lies in the span
        of the rows added so far.  ``row`` itself is left unchanged.
        """
        row = _integer_row(row)
        pivots = self.pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            _clear(row, piv, lead)
        return row

    def add(self, row: Row) -> bool:
        """Insert a row; True if it increased the rank."""
        red = self.reduce(row)
        if not red:
            return False
        lead = min(red)
        g = gcd(*red.values())
        if red[lead] < 0:
            g = -g
        if g != 1:
            red = {k: v // g for k, v in red.items()}
        self.pivots[lead] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduced_echelon(self) -> Dict[int, IntRow]:
        """The reduced row echelon form of the rows added: for each
        pivot lead, in the order the pivots were found, a primitive
        integer row with a positive entry at the lead and zeros at every
        other pivot column.

        A pivot row has no entry left of its lead, so back-substitution
        over the pivots in descending lead order clears each of its other
        pivot columns with a row that is already reduced and, being zero
        at every other pivot column, brings no new one in.
        """
        done: Dict[int, IntRow] = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for k in [k for k in row if k != lead and k in done]:
                _clear(row, done[k], k)
            g = gcd(*row.values())
            done[lead] = {j: v // g for j, v in row.items()} if g != 1 else row
        return {lead: done[lead] for lead in self.pivots}


class Span:
    """The span of sparse vectors whose coordinates are keyed by any
    hashable key, grown by ``add``; each key gets a column of one
    ``SparseEliminator`` on first sight, and each row is eliminated
    once."""

    __slots__ = ("elim", "cols")

    def __init__(self) -> None:
        self.elim = SparseEliminator()
        self.cols: Dict[Hashable, int] = {}

    def columns(self, row: Mapping[Hashable, Scalar]) -> Row:
        """``row`` with each key replaced by its column, a new key taking
        the next free one; the eliminator's rows are in this form."""
        cols = self.cols
        return {cols.setdefault(k, len(cols)): c for k, c in row.items()}

    def add(self, rows: Iterable[Mapping[Hashable, Scalar]]) -> int:
        """Add the rows (mappings key -> coefficient); return the rank of
        everything added so far."""
        for row in rows:
            self.elim.add(self.columns(row))
        return self.elim.rank


def in_kernel(vecs: Iterable[Row], elim: SparseEliminator) -> bool:
    """True iff every vector of ``vecs`` has dot product zero with every
    row added to ``elim``; True for no vectors.

    The pivots are enough to decide this: each pivot is a combination of
    rows added, and each row added is a combination of pivots (a row that
    did not raise the rank reduced to zero against them), so the pivots
    span the row space of everything added, and a vector orthogonal to
    a spanning set is orthogonal to the whole space.  The pivots are
    indexed by column once, so each vector's dot products visit only the
    pivots that share a column with it.
    """
    by_column: Dict[int, List[Tuple[int, int]]] = {}
    for lead, piv in elim.pivots.items():
        for k, v in piv.items():
            by_column.setdefault(k, []).append((lead, v))
    for vec in vecs:
        dots: Dict[int, Scalar] = {}
        for k, c in vec.items():
            for lead, v in by_column.get(k, ()):
                dots[lead] = dots.get(lead, 0) + c * v
        if any(dots.values()):
            return False
    return True


def solve(
    rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> Tuple[int, Optional[List[Fraction]]]:
    """The rank of A and one exact solution of A x = b, with the free
    unknowns set to zero; the solution is None when the system is
    inconsistent.

    The rows of [A | b] go into one eliminator, b in the column past
    every unknown, so the system is inconsistent exactly when that
    column becomes a pivot.  Otherwise each row of the reduced echelon
    form reads r[lead] x_lead + (free unknowns) = r[b], which gives x.
    """
    n = len(rows[0]) if rows else 0
    elim = SparseEliminator()
    for row, b in zip(rows, rhs):
        elim.add(dict(enumerate([*row, b])))
    if n in elim.pivots:
        return elim.rank - 1, None
    x = [Fraction(0)] * n
    for lead, row in elim.reduced_echelon().items():
        x[lead] = Fraction(row.get(n, 0), row[lead])
    return elim.rank, x
