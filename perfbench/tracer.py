"""Outside-in tracer for the versaldef layers.

The tracer never edits the package.  It wraps public functions and
methods after import: every ``versaldef.*`` module attribute (and class
attribute) that *is* the original object is rebound to a wrapper, so
calls made through ``from .groebner import normal_form`` in ``versal``,
``curves`` and ``verify`` are seen as well as calls through the
defining module.

Each wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; ``write_spans`` dumps them at the end.  Exact
counters (Groebner pair statistics, term counts, rank gains) are taken
from the wrapped calls' arguments and results.  Self time is derived
from the spans afterwards by ``self_times``.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int]  # name, start, end, parent index

# (span name, module, attribute or "Class.method") for every wrapped
# callable; several attributes may share one span name
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("poly.mul", "poly", "Polynomial.__mul__"),
    ("poly.addsub", "poly", "Polynomial.__add__"),
    ("poly.addsub", "poly", "Polynomial.__sub__"),
    ("poly.addsub", "poly", "Polynomial.__rsub__"),
    ("poly.addsub", "poly", "Polynomial.__neg__"),
    ("poly.substitute", "poly", "substitute"),
    ("groebner.normal_form", "groebner", "normal_form"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.ideal_equal", "groebner", "ideal_equal"),
    ("groebner.eliminate", "groebner", "eliminate"),
    ("groebner.syzygies", "groebner", "syzygies"),
    ("linalg.eliminator_add", "linalg", "SparseEliminator.add"),
    ("hilbert.hilbert_data", "hilbert", "hilbert_data"),
    ("versal.t1_compute", "versal", "t1_compute"),
    ("versal.verify_flatness", "versal", "verify_flatness"),
    ("versal.base_equals_total", "versal", "base_equals_total"),
    ("versal.axes_family_report", "versal", "axes_family_report"),
    ("versal.span_rank", "versal", "span_rank"),
    ("versal.family_generator", "versal", "family_generator"),
    ("versal.identities", "versal", "phi_symmetry_failures"),
    ("versal.identities", "versal", "quadric_symmetry_failures"),
    ("versal.identities", "versal", "four_term_failures"),
    ("versal.identities", "versal", "cocycle_failures"),
    ("versal.identities", "versal", "family_expanded_failures"),
    ("versal.identities", "versal", "family_k_change_failures"),
    ("verify.run_suite", "verify", "run_suite"),
    ("report.to_json", "report", "Report.to_json"),
)


def _count_buchberger(counters: Counter, args, result) -> None:
    stats = result.stats
    counters["groebner.buchberger.pairs_processed"] += stats["pairs_processed"]
    counters["groebner.buchberger.zero_reductions"] += stats["zero_reductions"]
    counters["groebner.buchberger.basis_size_raw"] += stats["basis_size_raw"]


def _count_normal_form(counters: Counter, args, result) -> None:
    counters["groebner.normal_form.terms_in"] += len(args[0].terms)
    counters["groebner.normal_form.terms_out"] += len(result.terms)


def _count_syzygies(counters: Counter, args, result) -> None:
    counters["groebner.syzygies.vectors"] += len(result.vectors)


def _count_eliminator_add(counters: Counter, args, result) -> None:
    counters["linalg.eliminator_add.rank_gains"] += bool(result)


# span name -> hook(counters, args, result) run after each call returns
COUNTER_HOOKS: Dict[str, Callable] = {
    "groebner.buchberger": _count_buchberger,
    "groebner.normal_form": _count_normal_form,
    "groebner.syzygies": _count_syzygies,
    "linalg.eliminator_add": _count_eliminator_add,
}


class Tracer:
    """Span recorder.  Spans are stored column-wise: name id, parent
    index (-1 for a root), start and end in ``perf_counter`` seconds."""

    def __init__(self, rep: int = 0) -> None:
        self.rep = rep
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: List[int] = [-1]

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        open_, close, counters = self._open, self._close, self.counters

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span around the caller's block."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def spans(self) -> Iterable[Span]:
        for k in range(len(self.start)):
            yield self.names[self.name_id[k]], self.start[k], self.end[k], self.parent[k]

    def write_spans(self, path: str) -> None:
        """Append to a gzipped TSV of index, name, start, end, parent and
        repetition, so that the repetitions of one run share a file."""
        new = not os.path.exists(path)
        with gzip.open(path, "at", compresslevel=1) as out:
            if new:
                out.write("index\tname\tstart\tend\tparent\trep\n")
            for k, (name, s, e, p) in enumerate(self.spans()):
                out.write(f"{k}\t{name}\t{s!r}\t{e!r}\t{p}\t{self.rep}\n")


def self_times(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per-name (self seconds, total seconds, calls) from spans given as
    (name, start, end, parent index) in start order.

    A span's self time is its duration minus the part of its interval
    covered by the union of its direct children, each clipped to the
    parent.  Because children are visited in start order, the union is
    accumulated by a single sweep per parent.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)  # end of the union covered so far
    for name, s, e, p in spans:
        if p < 0:
            continue
        ps, pe = spans[p][1], spans[p][2]
        lo = max(s, ps, reach[p])
        hi = min(e, pe)
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for k, (name, s, e, p) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (e - s) - covered[k]
        total_s[name] = total_s.get(name, 0.0) + (e - s)
        calls[name] = calls.get(name, 0) + 1
    return self_s, total_s, calls


def install(tracer: Tracer, package: str = "versaldef") -> None:
    """Wrap every target.  Each original is looked up where it is
    defined, then every module of the package and every class defined
    in it is scanned for attributes bound to that same object."""
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == package or k.startswith(package + "."))]
    holders = {id(m): m for m in modules}
    for m in modules:
        holders.update((id(v), v) for v in vars(m).values()
                       if isinstance(v, type) and v.__module__.startswith(package))
    for name, mod, attr in TARGETS:
        home = importlib.import_module(f"{package}.{mod}")
        if "." in attr:
            cls, attr = attr.split(".")
            home = getattr(home, cls)
        orig = vars(home)[attr]
        wrapper = tracer.wrap(name, orig, COUNTER_HOOKS.get(name))
        for h in holders.values():
            for k, v in list(vars(h).items()):
                if v is orig:
                    setattr(h, k, wrapper)
