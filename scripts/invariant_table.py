#!/usr/bin/env python3
"""Tabulate how the deformation-theoretic invariants grow with n.

For each n the table lists, for the n+1 generic lines in n-space:
ideal generators, independent linear relation parts, the dimensions of
the first-order deformation space and the obstruction space, and the
dimension, multiplicity, and h-vector of the base space computed from
its Hilbert series.

    python scripts/invariant_table.py --upto 7
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from versaldef.curves import linear_relation_formula, minimal_generator_formula, relations
from versaldef.groebner import buchberger
from versaldef.hilbert import hilbert_data
from versaldef.versal import base_ideal, t1_compute, t2_dimension


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--upto", type=int, default=7, help="largest n (default 7)")
    parser.add_argument("--skip-geometry", action="store_true",
                        help="leave out the Hilbert-series columns")
    args = parser.parse_args(argv)
    if args.upto < 4:
        parser.error("need --upto >= 4")

    cols = ["n", "gens", "rel rank", "dim T1", "dim T2"]
    if not args.skip_geometry:
        cols += ["base dim", "base mult", "h-vector"]
    print("  ".join(f"{c:>9s}" for c in cols))

    for n in range(4, args.upto + 1):
        gens = minimal_generator_formula(n)
        rel = relations(n).rank
        assert rel == linear_relation_formula(n)
        t1 = t1_compute(n).dimension
        t2 = t2_dimension(n)
        row = [f"{n:9d}", f"{gens:9d}", f"{rel:9d}", f"{t1:9d}", f"{t2:9d}"]
        if not args.skip_geometry:
            data = hilbert_data(buchberger(base_ideal(n, minimal=True)))
            hv = ",".join(str(c) for c in data.h_vector)
            row += [f"{data.dimension:9d}", f"{data.multiplicity:9d}", f"  ({hv})"]
        print("  ".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
