"""Verification suites: every mathematical claim the package encodes,
run as independent checks and collected into a diffable report.

A suite declares the checks of one n: it yields (check id, anchor, fn)
in report order.  ``run_suite`` iterates over the n range and runs each
check through ``_run``, the one place a check runs.  Each check carries
an anchor naming the claim in the claim registry (see CLAIMS.md); a
failing check records its counterexample in the details and never
aborts the rest of the suite.  A check that runs out of its Groebner
budget is reported as skipped, not as failed; a rank certificate whose
bounds do not meet fails its check, with both bounds in the details.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from time import perf_counter
from typing import Callable, Iterator, List, Optional, Tuple

from . import curves, versal
from .groebner import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    Ideal,
    ideal_equal,
    syzygies,
)
from .hilbert import hilbert_data
from .report import Check, FAIL, PASS, Report, SKIPPED_BUDGET, engine_config

__all__ = ["ANCHORS", "SUITES", "run_suite", "run_all"]


# every anchor a check may cite, with the claim it names; CLAIMS.md
# carries the same table in prose
ANCHORS = {
    "phi-symmetry": "phi_ijk is invariant under all six permutations of its indices",
    "quadric-antisymmetry": "the base quadric is antisymmetric in (j,l) and in (k,m) and symmetric under swapping the pairs",
    "quadric-four-term-relation": "base quadrics carrying the top index are integral linear combinations of the others",
    "relation-cocycle": "the alternating parameter combination attached to each relation quadruple vanishes identically",
    "family-expanded-form": "the factored family generator equals its expanded form",
    "family-auxiliary-index": "changing the auxiliary index moves a family generator by exactly minus a base quadric",
    "t1-dimension": "the space of first-order deformations modulo coordinate changes has dimension n(n+1)/2 - n",
    "t1-no-constant-part": "constant perturbations contribute nothing beyond coordinate changes",
    "t1-basis": "the perturbations a_ij(z_i - z_j) of the pair generators descend to a basis of first-order deformations",
    "t2-dimension": "the base quadrics span a space of dimension C(n,3) - n",
    "flatness-lift": "every relation lifts: the six-term combination of family generators equals an explicit sum of variables times base quadrics, each in the minimal base ideal",
    "base-minimal-system-size": "the minimal base system consists of C(n,3) - n quadrics",
    "base-dimension": "the base space has Krull dimension n + 2",
    "base-multiplicity": "the base space has multiplicity n!/24",
    "base-h-vector": "the five-parameter base space has h-vector (1, 3, 1)",
    "base-pfaffian-presentation": "at five parameters the base ideal is generated by the 4x4 Pfaffians of an explicit skew matrix of linear forms",
    "base-equals-previous-total": "substituting z_m -> a_mn turns the previous-level family generators into base quadrics generating, with the carried system, the next base ideal",
    "smoothing-diagonal": "the one-parameter diagonal deformation has the asserted n branches, with the last two lines merged into a hyperbola",
    "smoothing-axis-parabola": "the one-parameter deformation merging the last axis with the parabola branch has the asserted n branches",
    "elliptic-monomial-family": "the deformed rewriting table of the elliptic monomial curve has the stated special fiber and plane projections",
    "elliptic-monomial-kernel": "the rewriting table generates the full kernel of the elliptic monomial parametrization",
    "rational-monomial-kernel": "the analogous table generates the kernel of the rational monomial parametrization",
    "nonrational-lines": "the root-of-unity lines satisfy the displayed quadric system",
    "semigroup-delta": "the monomial semigroups have delta = n - 1 (rational) and n + 1 (elliptic)",
    "axes-family": "the coordinate-axes family has n(n-1) independent parameters and auxiliary-index independence over its base, as a literal identity",
    "generator-count": "the y-free ideal of the lines is minimally generated by (n+1)(n-2)/2 quadrics",
    "relation-rank": "the distinguished relations have (n^2-1)(n-3)/3 independent linear parts",
    "syzygy-count": "the pair presentation has the stated minimal first syzygies by degree",
    "nice-presentation": "at n = 4 the total space has the closed presentation retaining y",
    "wedge-straightening": "a quadric coordinate change straightens the wedged cusp into a line while fixing the other lines",
}


# one check as a suite declares it: (check id, anchor, fn); fn returns
# the verdict and its details
CheckSpec = Tuple[str, str, Callable[[], Tuple[bool, str]]]


def _run(
    checks: List[Check],
    cid: str,
    anchor: str,
    fn: Callable[[], Tuple[bool, str]],
) -> None:
    if anchor not in ANCHORS:
        raise KeyError(f"check {cid!r} cites unregistered anchor {anchor!r}")
    t0 = perf_counter()
    try:
        ok, details = fn()
        status = PASS if ok else FAIL
    except BudgetExceeded as e:
        status, details = SKIPPED_BUDGET, str(e)
    except versal.CertificateError as e:
        status, details = FAIL, str(e)
    ms = int((perf_counter() - t0) * 1000)
    checks.append(Check(id=cid, anchor=anchor, status=status, details=details, ms=ms))


def _fails_to_details(fails: list, what: str) -> Tuple[bool, str]:
    if not fails:
        return True, ""
    shown = ", ".join(str(f) for f in fails[:3])
    more = f" (+{len(fails) - 3} more)" if len(fails) > 3 else ""
    return False, f"{what} violated at {shown}{more}"


def _suite_identities(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    yield f"phi-symmetry-n{n}", "phi-symmetry", lambda: _fails_to_details(
        versal.phi_symmetry_failures(n), "symmetry")
    yield f"quadric-symmetry-n{n}", "quadric-antisymmetry", lambda: _fails_to_details(
        versal.quadric_symmetry_failures(n), "symmetry")
    yield f"cocycle-n{n}", "relation-cocycle", lambda: _fails_to_details(
        versal.cocycle_failures(n), "cocycle")
    yield f"family-expanded-n{n}", "family-expanded-form", lambda: _fails_to_details(
        versal.family_expanded_failures(n), "expansion")
    yield f"family-aux-index-n{n}", "family-auxiliary-index", lambda: _fails_to_details(
        versal.family_k_change_failures(n), "index change")
    if n >= 6:
        yield f"four-term-n{n}", "quadric-four-term-relation", lambda: _fails_to_details(
            versal.four_term_failures(n), "relation")


def _suite_t1t2(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    def t1_dim():
        r = versal.t1_compute(n)
        expect = curves.elliptic_t1_formula(n, n + 1)
        ok = r.dimension == expect
        return ok, f"dimension {r.dimension}, expected {expect}"

    def t1_deg2():
        r = versal.t1_compute(n)
        return r.by_degree[-2] == 0, f"degree -2 part has dimension {r.by_degree[-2]}"

    def t1_basis():
        r = versal.t1_compute(n)
        return r.basis_ok, f"detail: {dict(r.detail)}"

    def t2():
        d = versal.t2_dimension(n)
        expect = curves.t2_formula(n)
        return d == expect, f"rank {d}, expected {expect}"

    yield f"t1-dimension-n{n}", "t1-dimension", t1_dim
    yield f"t1-degree-minus-two-n{n}", "t1-no-constant-part", t1_deg2
    yield f"t1-basis-n{n}", "t1-basis", t1_basis
    yield f"t2-dimension-n{n}", "t2-dimension", t2


def _suite_flatness(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    def flat():
        rep = versal.verify_flatness(n)
        if rep.ok:
            return True, f"{rep.relations} relations lifted"
        bad = [c for c in rep.certificates if not c.ok]
        return False, (
            f"{len(bad)} relations fail; quadruple {bad[0].quadruple} "
            f"leaves residual {bad[0].residual}"
        )

    yield f"flatness-n{n}", "flatness-lift", flat


def _suite_base_geometry(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    @functools.cache
    def geometry():
        return hilbert_data(versal._base_gb(n, budget))

    def size():
        got = len(versal.base_ideal(n, minimal=True).generators)
        expect = math.comb(n, 3) - n
        return got == expect, f"{got} generators, expected {expect}"

    def dim():
        h = geometry()
        return h.dimension == n + 2, f"dimension {h.dimension}, expected {n + 2}"

    def mult():
        h = geometry()
        expect = math.factorial(n) // 24
        return h.multiplicity == expect, f"multiplicity {h.multiplicity}, expected {expect}"

    yield f"base-size-n{n}", "base-minimal-system-size", size
    yield f"base-dimension-n{n}", "base-dimension", dim
    yield f"base-multiplicity-n{n}", "base-multiplicity", mult

    if n == 5:
        def hvec():
            h = geometry()
            return h.h_vector == (1, 3, 1), f"h-vector {h.h_vector}"

        def pfaff():
            rep = versal.pfaffian_check()
            return rep.ok, (
                f"quadratic={rep.all_quadratic} "
                f"expansions-agree={rep.expansion_consistent} "
                f"ideal-equal={rep.ideal_equal_ok}"
            )

        yield "base-h-vector-n5", "base-h-vector", hvec
        yield "base-pfaffians-n5", "base-pfaffian-presentation", pfaff


def _suite_induction(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    if n < 5:
        return

    def induct():
        r = versal.base_equals_total(n)
        return r.ok, (
            f"substitution-matches={r.substitution_matches} "
            f"new-rank={r.new_rank}/{r.expected_new_rank} "
            f"combined-rank={r.combined_rank} ideal-equal={r.ideal_equal_ok}"
        )

    yield f"induction-n{n}", "base-equals-previous-total", induct


def _suite_smoothings(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    def smooth(variant):
        _, rep = versal.smoothing_family(variant, n)
        bad = [c.name for c in rep.checks if not c.ok]
        details = f"{rep.branch_count} branches, {len(rep.checks)} checks"
        if bad:
            details += f"; failing: {', '.join(bad)}"
        return rep.ok, details

    yield f"smoothing-diagonal-n{n}", "smoothing-diagonal", lambda: smooth(versal.DIAGONAL)
    yield (f"smoothing-axis-parabola-n{n}", "smoothing-axis-parabola",
           lambda: smooth(versal.AXIS_PARABOLA))


def _suite_monomial(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    def family():
        samples = None
        if rng is not None:
            samples = versal.default_projection_samples(n) + [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            ]
        _, rep = versal.elliptic_monomial_family(n, samples=samples, budget=budget)
        return rep.ok, (
            f"zero-fiber={rep.zero_fiber_ok} "
            f"parametrization={rep.parametrization_ok} "
            f"projections={[bool(ok) for _, ok in rep.projections]}"
        )

    def table_vs_kernel(kind, table):
        kernel = curves.monomial_ideal(kind, n, budget)
        ok = ideal_equal(Ideal(table[0].reg, table), kernel, budget=budget)
        return ok, f"{len(table)} table generators vs {len(kernel.generators)} kernel generators"

    def nonrational():
        rep = curves.nonrational_lines_check(n)
        return rep.displayed_ok, (
            f"displayed={rep.displayed_ok} uniform-wrap-would-pass={rep.uniform_wrap_ok}"
        )

    def semigroups():
        rat = curves.semigroup_invariants(curves.monomial_semigroup(curves.MONOMIAL_RATIONAL, n))
        ell = curves.semigroup_invariants(curves.monomial_semigroup(curves.MONOMIAL_ELLIPTIC, n))
        ok = (
            rat.delta == n - 1
            and rat.multiplicity == n
            and ell.delta == n + 1
            and ell.multiplicity == n + 1
        )
        return ok, f"rational delta={rat.delta} elliptic delta={ell.delta}"

    yield f"monomial-elliptic-n{n}", "elliptic-monomial-family", family
    yield (f"monomial-elliptic-kernel-n{n}", "elliptic-monomial-kernel", lambda: table_vs_kernel(
        curves.MONOMIAL_ELLIPTIC, curves.elliptic_monomial_table(n)))
    yield (f"monomial-rational-kernel-n{n}", "rational-monomial-kernel", lambda: table_vs_kernel(
        curves.MONOMIAL_RATIONAL, curves.rational_monomial_table(n)))
    yield f"nonrational-lines-n{n}", "nonrational-lines", nonrational
    yield f"semigroup-invariants-n{n}", "semigroup-delta", semigroups


def _suite_axes(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    def axes():
        r = versal.axes_family_report(n)
        return r.ok, (
            f"parameters={r.parameter_count} t1={r.t1_dimension} "
            f"fiber={r.zero_fiber_ok} aux-index={r.k_independence_ok}"
        )

    def wedge():
        # n coordinate axes plus the all-ones line, cusp straightened
        # into a generic target direction
        c = rng.randint(2, 9) if rng is not None else 2
        axes_dirs = [
            tuple(Fraction(1 if m == i else 0) for m in range(1, n + 1))
            for i in range(1, n + 1)
        ]
        ones = tuple(Fraction(1) for _ in range(n))
        target = tuple(Fraction(c) ** k for k in range(n))
        dw = versal.wedge_a2_deformation(axes_dirs + [ones, target], n)
        return dw.ok, (
            f"r={dw.r} rank={dw.rank} target c={c} "
            f"lines-fixed={dw.lines_fixed_ok} straightened={dw.straightened_ok}"
        )

    yield f"axes-family-n{n}", "axes-family", axes
    yield f"wedge-straightening-n{n}", "wedge-straightening", wedge


_SYZYGY_EXPECT = {4: {3: 5, 4: 5}, 5: {3: 16, 4: 9}}


def _suite_counts(n: int, budget: Budget, rng) -> Iterator[CheckSpec]:
    def gens():
        ideal = curves.lines_ideal(n, curves.F_FORM)
        expect = curves.minimal_generator_formula(n)
        count = len(ideal.generators)
        rank = versal.span_rank(ideal.generators)
        generates = versal._eliminates_y_to(
            curves.lines_ideal(n, curves.G_FORM).generators, ideal.generators
        )
        ok = count == expect and rank == expect and generates
        return ok, (
            f"{count} generators of rank {rank}, expected {expect}; "
            f"generate the eliminated ideal: {generates}"
        )

    def rel_rank():
        fam = curves.relations(n)
        return (
            fam.rank == fam.expected_rank,
            f"rank {fam.rank}, expected {fam.expected_rank}",
        )

    yield f"generator-count-n{n}", "generator-count", gens
    yield f"relation-rank-n{n}", "relation-rank", rel_rank

    if n in _SYZYGY_EXPECT:
        def syz():
            mod = syzygies(curves.lines_ideal(n), budget=budget)
            expect = _SYZYGY_EXPECT[n]
            got = dict(mod.minimal_by_degree)
            ok = got == expect and mod.minimal_count == sum(expect.values())
            return ok, f"minimal syzygies by degree {got}, expected {expect}"

        yield f"syzygy-count-n{n}", "syzygy-count", syz

    if n == 4:
        def nice():
            r = versal.nice_total_space_check()
            return r.ok, f"differences={r.differences_ok} elimination={r.elimination_ok}"

        yield "nice-presentation-n4", "nice-presentation", nice


SUITES = {
    "identities": _suite_identities,
    "t1t2": _suite_t1t2,
    "flatness": _suite_flatness,
    "base-geometry": _suite_base_geometry,
    "induction": _suite_induction,
    "smoothings": _suite_smoothings,
    "monomial": _suite_monomial,
    "axes": _suite_axes,
    "counts": _suite_counts,
}

DEFAULT_RANGES = {
    "identities": (4, 7),
    "t1t2": (4, 6),
    "flatness": (4, 5),
    "base-geometry": (5, 5),
    "induction": (5, 6),
    "smoothings": (4, 5),
    "monomial": (4, 5),
    "axes": (4, 5),
    "counts": (4, 6),
}


def run_suite(
    name: str,
    n_range: Optional[Tuple[int, int]] = None,
    budget: Budget = DEFAULT_BUDGET,
    seed: Optional[int] = None,
) -> Report:
    """Run one named suite over an inclusive n range and return the
    report; check failures are recorded, never raised.  A seed adds a
    reproducible random parameter sample to the sampled checks."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if n_range is None:
        n_range = DEFAULT_RANGES[name]
    lo, hi = n_range
    if type(lo) is not int or type(hi) is not int:
        raise ValueError(f"n range entries must be integers, got {n_range!r}")
    if lo < 4 or hi < lo:
        raise ValueError(f"need 4 <= lo <= hi, got ({lo}, {hi})")
    if seed is not None and type(seed) is not int:
        raise ValueError(f"seed must be an integer or None, got {seed!r}")
    if not isinstance(budget, Budget):
        raise ValueError(f"budget must be a Budget, got {budget!r}")
    rng = random.Random(seed) if seed is not None else None
    checks: List[Check] = []
    for n in range(lo, hi + 1):
        for cid, anchor, fn in SUITES[name](n, budget, rng):
            _run(checks, cid, anchor, fn)
    return Report(
        suite=name,
        n_range=(lo, hi),
        engine=engine_config(budget, seed),
        checks=tuple(checks),
    )


def run_all(budget: Budget = DEFAULT_BUDGET, seed: Optional[int] = None) -> List[Report]:
    """All suites at their default ranges."""
    return [run_suite(name, DEFAULT_RANGES[name], budget, seed) for name in SUITES]
