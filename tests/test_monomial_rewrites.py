"""The one rewriting rule of the monomial curves, ``monomial_rewrites``,
against semigroup arithmetic and against frozen copies of the four
constructors that each wrote the rule out before it existed: the two
rewriting tables, the deformed table of the elliptic family and the
exponent system of the root-of-unity lines."""

import pytest

from versaldef.curves import (
    MONOMIAL_ELLIPTIC,
    MONOMIAL_RATIONAL,
    _nonrational_system,
    axes_ideal,
    elliptic_monomial_table,
    monomial_rewrites,
    monomial_semigroup,
    rational_monomial_table,
)
from versaldef.poly import Polynomial, build_registry
from versaldef.versal import elliptic_monomial_family

KINDS = (MONOMIAL_ELLIPTIC, MONOMIAL_RATIONAL)


def _z(reg, i):
    return Polynomial.var(reg, f"z{i}")


def _oracle_elliptic_table(n):
    reg = build_registry(nz=n)
    out = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            if (i, j) == (2, n):
                continue
            lhs = _z(reg, i) * _z(reg, j)
            if i + j <= n + 1:
                rhs = _z(reg, 1) * _z(reg, i + j - 1)
            elif i + j == n + 2:
                rhs = _z(reg, 2) * _z(reg, n)
            else:
                rhs = _z(reg, 1) ** 2 * _z(reg, i + j - n - 2)
            out.append(lhs - rhs)
    return out


def _oracle_rational_table(n):
    reg = build_registry(nz=n)
    out = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            lhs = _z(reg, i) * _z(reg, j)
            if i + j <= n + 1:
                rhs = _z(reg, 1) * _z(reg, i + j - 1)
            elif i + j == n + 2:
                rhs = _z(reg, 1) ** 3
            else:
                rhs = _z(reg, 1) ** 2 * _z(reg, i + j - n - 1)
            out.append(lhs - rhs)
    return out


def _oracle_family_total(n):
    reg = build_registry(nz=n, params=tuple(range(2, n + 2)))

    def pv(m):
        return Polynomial.var(reg, f"a_{m}")

    q = _z(reg, 1) ** 2 + pv(n + 1) * _z(reg, 1)
    for m in range(2, n + 1):
        q = q + pv(m) * _z(reg, n + 2 - m)
    total = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            if (i, j) == (2, n):
                continue
            lhs = _z(reg, i) * _z(reg, j)
            if i + j <= n + 1:
                rhs = _z(reg, 1) * _z(reg, i + j - 1)
            elif i + j == n + 2:
                rhs = _z(reg, 2) * _z(reg, n)
            else:
                rhs = q * _z(reg, i + j - n - 2)
            total.append(lhs - rhs)
    return total


def _oracle_nonrational_system(n, wrap_with_z1=False):
    out = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            if (i, j) == (2, n) and not wrap_with_z1:
                continue
            if i + j <= n + 1:
                rhs = (1, i + j - 1)
            elif i + j == n + 2:
                rhs = (1, n) if wrap_with_z1 else (2, n)
            else:
                rhs = (1, i + j - n - 2)
            if (i, j) == rhs:
                continue
            out.append(((i, j), rhs))
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(3, 21))
def test_rewrites_preserve_the_t_degree(kind, n):
    """Under z_m = t^(off+m) both sides of each rewrite have t-degree
    2*off + i + j, and no rewrite is a tautology."""
    exponents = monomial_semigroup(kind, n)
    off = exponents[0] - 1
    assert list(exponents) == [off + m for m in range(1, n + 1)]
    rewrites = monomial_rewrites(kind, n)
    for i, j, rhs in rewrites:
        assert 2 <= i <= j <= n
        assert sum(exponents[k - 1] for k in rhs) == 2 * off + i + j
        assert rhs != (i, j)
    pairs = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
    dropped = [(2, n)] if kind == MONOMIAL_ELLIPTIC else []
    assert [(i, j) for i, j, _ in rewrites] == [p for p in pairs if p not in dropped]


def test_semigroup_offsets():
    assert list(monomial_semigroup(MONOMIAL_ELLIPTIC, 4)) == [5, 6, 7, 8]
    assert list(monomial_semigroup(MONOMIAL_RATIONAL, 4)) == [4, 5, 6, 7]
    with pytest.raises(ValueError, match="unsupported monomial curve kind"):
        monomial_semigroup("LINES_GENERIC", 4)
    with pytest.raises(ValueError, match="unsupported monomial curve kind"):
        monomial_rewrites("LINES_GENERIC", 4)


@pytest.mark.parametrize("n", range(3, 15))
def test_tables_match_the_frozen_loops(n):
    for table, oracle in (
        (elliptic_monomial_table(n), _oracle_elliptic_table(n)),
        (rational_monomial_table(n), _oracle_rational_table(n)),
    ):
        assert table == oracle
        assert [str(p) for p in table] == [str(p) for p in oracle]


@pytest.mark.parametrize("n", range(4, 13))
def test_family_matches_the_frozen_loop(n):
    family, rep = elliptic_monomial_family(n, samples=[])
    assert family.total == tuple(_oracle_family_total(n))
    assert rep.zero_fiber_ok and rep.parametrization_ok


@pytest.mark.parametrize("n", range(3, 15))
def test_nonrational_systems_match_the_frozen_loop(n):
    assert _nonrational_system(n) == _oracle_nonrational_system(n)
    uniform = _nonrational_system(n, wrap_with_z1=True)
    oracle = _oracle_nonrational_system(n, wrap_with_z1=True)
    assert len(uniform) == len(oracle)
    assert set(uniform) == set(oracle)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_axes_ideal_is_the_pair_products(n):
    reg = build_registry(nz=n)
    expect = [_z(reg, i) * _z(reg, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    assert list(axes_ideal(n).generators) == expect


def test_axes_ideal_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 2"):
        axes_ideal(1)
