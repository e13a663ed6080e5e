"""Small exact linear algebra over Q on integer rows.

``SparseEliminator`` takes sparse rows (dicts column -> int or Fraction),
clears each row's denominators on entry and then works on integers only,
by fraction-free cross-multiplication in the sense of Bareiss (Math.
Comp. 22, 1968); the ranks it reports are exact ranks over Q.
``solve_dense`` works on Fractions, since the solution it returns is
rational.  Everything here is deterministic: pivots are always chosen as
the smallest column index of the row being processed, and rows are
processed in input order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple, Union

Row = Dict[int, Union[int, Fraction]]
IntRow = Dict[int, int]


def _integer_row(row: Row) -> IntRow:
    """A fresh copy of ``row`` times the lcm of its denominators, without
    zero entries."""
    den = lcm(*(v.denominator for v in row.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in row.items() if v}


class SparseEliminator:
    """Incremental fraction-free Gaussian elimination; feed rows, read
    off the rank.

    Each pivot is a primitive integer row (content 1) with a positive
    entry in its leading column.  Only forward elimination is done,
    which is all the rank needs.
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
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            # row <- a*row - b*piv; a > 0 because pivot leads are positive
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                acc = row.get(k, 0) - b * v
                if acc:
                    row[k] = acc
                else:
                    del row[k]
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


def rank(rows: Iterable[Row]) -> int:
    elim = SparseEliminator()
    for r in rows:
        elim.add(r)
    return elim.rank


def in_span(row: Row, elim: SparseEliminator) -> bool:
    return not elim.reduce(row)


def in_kernel(vec: Row, elim: SparseEliminator) -> bool:
    """True iff ``vec`` has dot product zero with every row added to
    ``elim``.

    The pivots are enough to decide this: each pivot is a combination of
    rows added, and each row added is a combination of pivots (a row that
    did not raise the rank reduced to zero against them), so the pivots
    span the row space of everything added, and a vector orthogonal to
    a spanning set is orthogonal to the whole space.
    """
    return all(
        sum(c * piv.get(k, 0) for k, c in vec.items()) == 0
        for piv in elim.pivots.values()
    )


def solve_dense(
    matrix: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """One exact solution of A x = b with free variables set to zero.

    Returns None when the system is inconsistent.  Uses partial pivoting
    by first nonzero entry; fully deterministic.
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots: List[Tuple[int, int]] = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, m):
            if a[i][col]:
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = Fraction(1, 1) / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [vi - c * vr for vi, vr in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = a[row][n]
    return x


def dense_rank(matrix: List[List[Fraction]]) -> int:
    return rank(dict(enumerate(row)) for row in matrix)
