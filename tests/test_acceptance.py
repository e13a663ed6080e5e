"""Acceptance gate: the headline claims, one test per criterion.

Each criterion prints a single pass/fail line (visible with -s; the
verbose test line mirrors it) and enforces its wall-clock ceiling.
Every numeric comparison is exact; nothing here is approximate."""

import math
import time
from contextlib import contextmanager

from versaldef import curves, versal
from versaldef.groebner import BudgetExceeded, Ideal, buchberger, ideal_equal, syzygies
from versaldef.hilbert import hilbert_data
from versaldef.report import PASS
from versaldef.verify import run_suite


@contextmanager
def criterion(num, limit_s, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    dt = time.perf_counter() - t0
    print(f"[criterion {num:2d}] PASS  {desc}  ({dt:.1f}s)")
    assert dt < limit_s, f"criterion {num} took {dt:.1f}s, limit {limit_s}s"


def test_c01_identities_hold_up_to_n8():
    with criterion(1, 30, "polynomial identities for n = 4..8"):
        rep = run_suite("identities", (4, 8))
        bad = [c.id for c in rep.checks if c.status != PASS]
        assert not bad, bad


def test_c02_t1_dimension_and_basis():
    with criterion(2, 60, "T1 has dimension C(n,2) with the standard basis, n = 4..6"):
        for n in (4, 5, 6):
            res = versal.t1_compute(n)
            assert res.dimension == math.comb(n, 2), (n, res.dimension)
            assert res.by_degree[-2] == 0, (n, res.by_degree)
            assert res.basis_ok, (n, res.detail)


def test_c03_t2_dimension():
    with criterion(3, 30, "T2 has dimension C(n,3) - n, n = 4..7"):
        for n in (4, 5, 6, 7):
            got = versal.t2_dimension(n)
            assert got == math.comb(n, 3) - n, (n, got)


def test_c04_flatness():
    with criterion(4, 300, "every relation lifts flatly (n = 4 literally, n = 5, 6 by base-quadric cofactors)"):
        rep4 = versal.verify_flatness(4)
        assert rep4.ok
        assert all(not c.cofactors for c in rep4.certificates)
        rep5 = versal.verify_flatness(5)
        assert rep5.ok
        assert any(c.cofactors for c in rep5.certificates)
        rep6 = versal.verify_flatness(6)
        assert rep6.ok and rep6.relations == 90
        literal6 = versal._lift(6, versal._phi_basis(6))
        assert all(c.ok for c in literal6), [c.quadruple for c in literal6 if not c.ok]


def test_c05_base_space_geometry():
    with criterion(5, 300, "five-parameter base: dimension 7, multiplicity 5, h-vector (1,3,1), Pfaffian presentation"):
        gb = buchberger(versal.base_ideal(5, minimal=True))
        data = hilbert_data(gb)
        assert data.dimension == 7
        assert data.multiplicity == 5
        assert data.h_vector == (1, 3, 1)
        assert versal.pfaffian_check().ok
    try:
        gb6 = buchberger(versal.base_ideal(6, minimal=True))
        data6 = hilbert_data(gb6)
    except BudgetExceeded as e:
        print(f"[criterion  5] SKIP  base geometry at n = 6 hit its budget: {e}")
    else:
        assert data6.dimension == 8
        assert data6.multiplicity == 30
        print("[criterion  5] PASS  base geometry stretch case n = 6 (dimension 8, multiplicity 30)")


def test_c06_base_equals_previous_total():
    with criterion(6, 300, "the base at level n is the total space at level n-1, n = 5..6"):
        for n in (5, 6):
            rep = versal.base_equals_total(n)
            assert rep.ok, (n, rep)
            assert rep.new_rank == n * (n - 3) // 2
            assert rep.ideal_equal_ok


def test_c07_generator_relation_and_syzygy_counts():
    with criterion(7, 300, "generator counts, relation ranks, and syzygy degrees"):
        for n in (4, 5):
            ideal = curves.lines_ideal(n, curves.F_FORM)
            expect = (n + 1) * (n - 2) // 2
            assert len(ideal.generators) == expect
            assert versal.span_rank(ideal.generators) == expect
        expected_syzygies = {4: {3: 5, 4: 5}, 5: {3: 16, 4: 9}}
        for n, by_degree in expected_syzygies.items():
            mod = syzygies(curves.lines_ideal(n))
            assert dict(mod.minimal_by_degree) == by_degree, (n, mod.minimal_by_degree)
            assert mod.minimal_count == sum(by_degree.values())
        for n in (4, 5, 6, 7, 8):
            fam = curves.relations(n)
            assert fam.rank == (n * n - 1) * (n - 3) // 3, (n, fam.rank)


def test_c08_explicit_smoothings():
    with criterion(8, 10, "both one-parameter smoothings check out for n = 4..5"):
        for n in (4, 5):
            for variant in (versal.DIAGONAL, versal.AXIS_PARABOLA):
                _, rep = versal.smoothing_family(variant, n)
                assert rep.ok, (variant, n, [c for c in rep.checks if not c.ok])
            _, diag = versal.smoothing_family(versal.DIAGONAL, n)
            phi_check = next(
                c for c in diag.checks if c.name == "parameter-point-kills-phi"
            )
            assert phi_check.ok


def test_c09_monomial_curves():
    with criterion(9, 300, "monomial tables generate the kernels; projections and root-of-unity lines agree"):
        for n in (4, 5):
            table = curves.elliptic_monomial_table(n)
            kernel = curves.monomial_ideal(curves.MONOMIAL_ELLIPTIC, n)
            assert ideal_equal(Ideal(table[0].reg, table), kernel)
            rtable = curves.rational_monomial_table(n)
            rkernel = curves.monomial_ideal(curves.MONOMIAL_RATIONAL, n)
            assert ideal_equal(Ideal(rtable[0].reg, rtable), rkernel)
            rep = curves.nonrational_lines_check(n)
            assert rep.displayed_ok and not rep.uniform_wrap_ok
        _, fam_rep = versal.elliptic_monomial_family(4)
        assert fam_rep.ok
        assert len(fam_rep.projections) == 2
        assert all(ok for _, ok in fam_rep.projections)


def test_c10_semigroup_invariants():
    with criterion(10, 1, "semigroup delta is n-1 (rational) and n+1 (elliptic) for n = 3..12"):
        for n in range(3, 13):
            assert curves.semigroup_invariants(range(n, 2 * n)).delta == n - 1
            assert curves.semigroup_invariants(range(n + 1, 2 * n + 1)).delta == n + 1
