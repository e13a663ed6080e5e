"""Sparse elimination, spans and solutions against a dense rational
oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from versaldef.linalg import SparseEliminator, Span, in_kernel, solve


def in_span(row, elim):
    """Membership oracle: ``row`` reduces to zero against the pivots."""
    return not elim.reduce(row)


def _dense_rank_oracle(rows, ncols):
    """Textbook Gaussian elimination on dense copies."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rk = 0
    col = 0
    nrows = len(mat)
    while rk < nrows and col < ncols:
        pivot = next((i for i in range(rk, nrows) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rk], mat[pivot] = mat[pivot], mat[rk]
        for i in range(nrows):
            if i != rk and mat[i][col]:
                f = mat[i][col] / mat[rk][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
        col += 1
    return rk


row_strategy = st.dictionaries(
    st.integers(0, 5), st.fractions(min_value=-5, max_value=5, max_denominator=3),
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(st.lists(row_strategy, max_size=7))
def test_rank_matches_dense_oracle(rows):
    cleaned = [{c: v for c, v in r.items() if v} for r in rows]
    expected = _dense_rank_oracle(cleaned, 6)
    assert Span().add([dict(r) for r in cleaned]) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=5))
def test_in_span_detects_members(rows):
    cleaned = [{c: v for c, v in r.items() if v} for r in rows]
    elim = SparseEliminator()
    for r in cleaned:
        elim.add(dict(r))
    if cleaned and cleaned[0]:
        combo = {c: 2 * v for c, v in cleaned[0].items()}
        assert in_span(combo, elim)


def test_solve_solves():
    matrix = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    rhs = [Fraction(5), Fraction(3)]
    rk, sol = solve(matrix, rhs)
    assert rk == 2
    assert sol is not None
    for row, b in zip(matrix, rhs):
        assert sum(a * x for a, x in zip(row, sol)) == b


def test_solve_inconsistent_returns_none():
    matrix = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    rhs = [Fraction(1), Fraction(3)]
    assert solve(matrix, rhs) == (1, None)


def test_solve_reports_the_rank_of_the_matrix():
    assert solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [0, 0])[0] == 1
    assert solve([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], [0, 0])[0] == 2


def test_solve_sets_free_unknowns_to_zero():
    # x0 + x1 + x2 = 3 and x1 - x2 = 1: the pivots lead at x0 and x1
    assert solve([[1, 1, 1], [0, 1, -1]], [3, 1]) == (2, [Fraction(2), Fraction(1), Fraction(0)])
    assert solve([], []) == (0, [])


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([{0: Fraction(0)}], 0),
        ([{0: Fraction(0), 1: Fraction(1)}], 1),
        ([{3: Fraction(0)}, {3: Fraction(2)}], 1),
    ],
)
def test_rank_ignores_explicit_zero_entries(rows, expected):
    assert Span().add(rows) == expected


def test_zero_vector_is_in_span():
    elim = SparseEliminator()
    elim.add({0: Fraction(1), 2: Fraction(3)})
    assert in_span({1: Fraction(0)}, elim)


def test_add_and_reduce_leave_the_argument_unchanged():
    elim = SparseEliminator()
    first = {0: Fraction(2, 3), 1: Fraction(0), 4: Fraction(-5, 7)}
    second = {0: Fraction(1, 2), 3: Fraction(6)}
    third = {0: Fraction(3), 4: 9}
    for row in (first, second, third):
        before = dict(row)
        elim.add(row)
        elim.reduce(row)
        assert row == before
        assert all(type(row[k]) is type(before[k]) for k in row)


big_row_strategy = st.dictionaries(
    st.integers(0, 9),
    st.one_of(
        st.integers(-10**12, 10**12),
        st.fractions(min_value=-10**12, max_value=10**12, max_denominator=97),
    ),
    max_size=10,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(big_row_strategy, max_size=12))
def test_rank_matches_dense_oracle_on_large_entries(rows):
    assert Span().add(rows) == _dense_rank_oracle(rows, 10)


@settings(max_examples=100, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=5), row_strategy)
def test_in_span_rejects_non_members(rows, candidate):
    assume(_dense_rank_oracle(rows + [candidate], 6) > _dense_rank_oracle(rows, 6))
    elim = SparseEliminator()
    for r in rows:
        elim.add(r)
    assert not in_span(candidate, elim)


@settings(max_examples=100, deadline=None)
@given(st.lists(big_row_strategy, max_size=12))
def test_pivots_are_primitive_integer_rows(rows):
    elim = SparseEliminator()
    for r in rows:
        elim.add(r)
    for lead, piv in elim.pivots.items():
        assert lead == min(piv)
        assert all(type(v) is int and v for v in piv.values())
        assert piv[lead] > 0
        assert math.gcd(*piv.values()) == 1


def _dot(row, vec):
    return sum((Fraction(c) * vec.get(k, 0) for k, c in row.items()), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(st.lists(row_strategy, max_size=7), row_strategy, st.booleans())
def test_in_kernel_matches_dense_oracle(rows, vec, project):
    # with project set, each row loses its projection on vec, so vec lies
    # in the kernel by construction; the projected rows keep explicit zeros
    norm = _dot(vec, vec)
    if project and norm:
        rows = [
            {k: Fraction(r.get(k, 0)) - _dot(r, vec) / norm * vec.get(k, 0)
             for k in set(r) | set(vec)}
            for r in rows
        ]
    elim = SparseEliminator()
    for r in rows:
        elim.add(r)
    expected = all(_dot(r, vec) == 0 for r in rows)
    assert in_kernel([vec], elim) == expected
    if project and norm:
        assert expected


def test_in_kernel_decides_a_list_of_vectors():
    elim = SparseEliminator()
    for r in ({0: 1, 1: -1}, {1: 2, 2: 1}, {0: 1, 1: 1, 2: 1}):
        elim.add(r)
    passing = [{0: 1, 1: 1, 2: -2}, {3: 5}, {}]
    assert in_kernel([], elim)
    assert in_kernel(passing, elim)
    assert not in_kernel(passing[:2] + [{2: Fraction(1, 3)}] + passing[2:], elim)


def _dense(rows, ncols):
    return [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(row_strategy, min_size=1, max_size=7),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=6, max_size=6),
)
def test_solve_consistent_system_matches_dense_oracle(rows, x0):
    matrix = _dense(rows, 6)
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
    rk, x = solve(matrix, rhs)
    assert rk == _dense_rank_oracle(rows, 6)
    assert x is not None
    assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == rhs


@settings(max_examples=150, deadline=None)
@given(
    st.lists(row_strategy, min_size=1, max_size=7),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=7, max_size=7),
)
def test_solve_inconsistent_system_returns_none(rows, b):
    b = b[:len(rows)]
    augmented = [{**r, 6: v} for r, v in zip(rows, b)]
    rk = _dense_rank_oracle(rows, 6)
    assume(_dense_rank_oracle(augmented, 7) > rk)
    assert solve(_dense(rows, 6), b) == (rk, None)


@settings(max_examples=150, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=7))
def test_reduced_echelon_is_the_reduced_form_of_the_span(rows):
    elim = SparseEliminator()
    for r in rows:
        elim.add(r)
    reduced = elim.reduced_echelon()
    assert list(reduced) == list(elim.pivots)
    for lead, row in reduced.items():
        assert min(row) == lead and row[lead] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(k in row for k in reduced if k != lead)
    # rows, pivot columns and zeros elsewhere among them fix the form:
    # the reduced rows lie in the span and are as many as its rank
    rank = _dense_rank_oracle(rows, 6)
    assert len(reduced) == rank == _dense_rank_oracle(rows + list(reduced.values()), 6)
