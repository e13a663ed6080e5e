"""Command line interface.

Four subcommands: ``emit`` writes curves, the versal family, or the
base ideal in plain text, JSON, or as runnable Singular / Macaulay2
scripts; ``verify`` runs a named check suite and reports pass/fail;
``invariants`` prints the numeric invariants of a curve; ``groebner``
computes a basis (or an elimination ideal) for polynomials read from a
file, inferring the ring from the variable names that occur.

Exit codes: 0 success, 1 at least one check failed, 2 usage error,
3 a computation hit its declared budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional, Sequence, Tuple

from . import curves, versal, verify
from .groebner import (
    Budget,
    BudgetExceeded,
    DEFAULT_BUDGET,
    DEGREVLEX,
    LEX,
    Ideal,
    buchberger,
    eliminate,
)
from .poly import ParseError, Polynomial, VarRegistry, build_registry, parse, to_str
from .report import FAIL, PASS, SKIPPED_BUDGET

FORMATS = ("plain", "json", "singular", "macaulay2")

USAGE_ERROR = 2
BUDGET_EXIT = 3


# ---------------------------------------------------------------------------
# export formats


def _export_name(name: str, fmt: str) -> str:
    if fmt == "singular":
        m = re.fullmatch(r"z(\d+)", name)
        if m:
            return f"z({m.group(1)})"
        return name
    if fmt == "macaulay2":
        m = re.fullmatch(r"z(\d+)", name)
        if m:
            return f"z_{m.group(1)}"
        m = re.fullmatch(r"a_(\d+)_(\d+)", name)
        if m:
            return f"a_({m.group(1)},{m.group(2)})"
        return name
    return name


def _mapping_comment(reg: VarRegistry, fmt: str, prefix: str) -> List[str]:
    renames = [
        f"{_export_name(nm, fmt)} = {nm}" for nm in reg.names if _export_name(nm, fmt) != nm
    ]
    lines = [f"{prefix} generated by versaldef"]
    if renames:
        lines.append(f"{prefix} variable map: " + ", ".join(renames))
    if reg.antisymmetric_pairs and any(nm.startswith("a_") for nm in reg.names):
        lines.append(
            f"{prefix} pair parameters are antisymmetric: a_j_i with j > i means -a_i_j"
        )
    return lines


def _script_singular(reg: VarRegistry, gens: Sequence[Polynomial]) -> str:
    mapped = [_export_name(nm, "singular") for nm in reg.names]
    if all(w == 1 for w in reg.weights):
        order = "dp"
    else:
        order = "wp(" + ",".join(str(w) for w in reg.weights) + ")"
    lines = _mapping_comment(reg, "singular", "//")
    lines.append(f"ring r = 0, ({', '.join(mapped)}), {order};")
    if gens:
        body = ",\n  ".join(to_str(g, mapped) for g in gens)
        lines.append(f"ideal I =\n  {body};")
    else:
        lines.append("ideal I = 0;")
    return "\n".join(lines) + "\n"


def _script_macaulay2(reg: VarRegistry, gens: Sequence[Polynomial]) -> str:
    mapped = [_export_name(nm, "macaulay2") for nm in reg.names]
    degrees = ""
    if any(w != 1 for w in reg.weights):
        degrees = ", Degrees => {" + ",".join(str(w) for w in reg.weights) + "}"
    lines = _mapping_comment(reg, "macaulay2", "--")
    lines.append(f"R = QQ[{', '.join(mapped)}{degrees}];")
    if gens:
        body = ",\n  ".join(to_str(g, mapped) for g in gens)
        lines.append(f"I = ideal(\n  {body});")
    else:
        lines.append("I = ideal 0_R;")
    return "\n".join(lines) + "\n"


def _render(reg: VarRegistry, gens: Sequence[Polynomial], fmt: str, json_payload: dict) -> str:
    if fmt == "plain":
        return "\n".join(to_str(g) for g in gens) + "\n"
    if fmt == "json":
        return json.dumps(json_payload, indent=2, sort_keys=True) + "\n"
    if fmt == "singular":
        return _script_singular(reg, gens)
    return _script_macaulay2(reg, gens)


# ---------------------------------------------------------------------------
# emit


def _emit_curve(args) -> Tuple[VarRegistry, List[Polynomial], dict]:
    n = args.n
    if args.curve == "L":
        if n < 3:
            raise ValueError("generic lines need n >= 3")
        presentation = curves.G_FORM if args.presentation == "g" else curves.F_FORM
        spec = curves.CurveSpec(curves.LINES_GENERIC, n, presentation=presentation)
        gens = list(curves.lines_ideal(n, presentation).generators)
    elif args.curve == "axes":
        spec = curves.CurveSpec(curves.AXES, n)
        gens = list(curves.axes_ideal(n).generators)
    elif args.curve == "elliptic":
        spec = curves.CurveSpec(curves.MONOMIAL_ELLIPTIC, n)
        gens = curves.elliptic_monomial_table(n)
    elif args.curve == "rational":
        spec = curves.CurveSpec(curves.MONOMIAL_RATIONAL, n)
        gens = curves.rational_monomial_table(n)
    else:
        raise ValueError(f"unknown curve kind {args.curve!r}")
    reg = gens[0].reg
    return reg, gens, {
        "curve": spec.to_json_dict(),
        "variables": list(reg.names),
        "generators": [to_str(g) for g in gens],
    }


def _emit_family(args) -> Tuple[VarRegistry, List[Polynomial], dict]:
    family = versal.main_family(args.n)
    reg = family.total[0].reg
    return reg, list(family.total), family.to_json_dict()


def _emit_base(args) -> Tuple[VarRegistry, List[Polynomial], dict]:
    ideal = versal.base_ideal(args.n, minimal=args.minimal)
    return ideal.registry, list(ideal.generators), {
        "n": args.n,
        "minimal": bool(args.minimal),
        "parameters": list(ideal.registry.names),
        "generators": [to_str(g) for g in ideal.generators],
    }


def _cmd_emit(args) -> Tuple[int, str]:
    if args.what == "curve":
        reg, gens, payload = _emit_curve(args)
    elif args.what == "family":
        reg, gens, payload = _emit_family(args)
    else:
        reg, gens, payload = _emit_base(args)
    return 0, _render(reg, gens, args.format, payload)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> Tuple[int, str]:
    """Prints one line per check and per suite; the text returned is the
    JSON report, which goes only to ``--out``."""
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    n_range = tuple(args.n) if args.n else None
    reports = [verify.run_suite(nm, n_range, args.budget, seed=args.seed) for nm in names]

    for rep in reports:
        for c in rep.checks:
            line = f"{c.status:14s} {c.id}"
            if c.details and c.status != PASS:
                line += f"  [{c.details}]"
            print(line)
        s = rep.summary
        print(
            f"suite {rep.suite}: {s['pass']} passed, {s['fail']} failed, "
            f"{s['skipped']} skipped (n = {rep.n_range[0]}..{rep.n_range[1]})"
        )

    text = ""
    if args.out:
        if len(reports) == 1:
            text = reports[0].to_json()
        else:
            payload = [r.to_json_dict() for r in reports]
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    if any(c.status == FAIL for r in reports for c in r.checks):
        return 1, text
    if any(c.status == SKIPPED_BUDGET for r in reports for c in r.checks):
        return BUDGET_EXIT, text
    return 0, text


# ---------------------------------------------------------------------------
# invariants


def _cmd_invariants(args) -> Tuple[int, str]:
    if args.family == "L":
        m = args.index  # number of lines
        if m < 4:
            raise ValueError("need at least 4 lines")
        n = m - 1
        data = {
            "delta": m,
            "r": m,
            "mu": m + 1,
            "g": 1,
            "dimT1": curves.elliptic_t1_formula(n, m),
            "dimT2": max(0, curves.t2_formula(n)),
        }
    elif args.family in ("elliptic", "rational"):
        n = args.index
        if n < 2:
            raise ValueError("need n >= 2")
        kind = curves.MONOMIAL_ELLIPTIC if args.family == "elliptic" else curves.MONOMIAL_RATIONAL
        semi = curves.semigroup_invariants(curves.monomial_semigroup(kind, n))
        num = curves.numeric_invariants(semi.delta, branches=1)
        data = {
            "delta": semi.delta,
            "r": 1,
            "mu": num.mu,
            "g": num.genus,
            "mult": semi.multiplicity,
        }
    else:
        raise ValueError(f"unknown family {args.family!r}")

    if args.format == "json":
        return 0, json.dumps(data, indent=2, sort_keys=True) + "\n"
    return 0, ", ".join(f"{k} {v}" for k, v in data.items()) + "\n"


# ---------------------------------------------------------------------------
# ad-hoc groebner runs


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _infer_registry(lines: Sequence[str]) -> VarRegistry:
    nz = 0
    y = t = s = False
    npairs = 0
    params: set = set()
    for line in lines:
        for name in _NAME_RE.findall(line):
            m = re.fullmatch(r"z(\d+)", name)
            if m:
                nz = max(nz, int(m.group(1)))
                continue
            if name == "y":
                y = True
            elif name == "t":
                t = True
            elif name == "s":
                s = True
            else:
                m = re.fullmatch(r"a_(\d+)_(\d+)", name)
                if m:
                    npairs = max(npairs, int(m.group(1)), int(m.group(2)))
                    continue
                m = re.fullmatch(r"a_(\d+)", name)
                if m:
                    params.add(int(m.group(1)))
                    continue
                raise ValueError(f"cannot place variable {name!r} in a registry")
    return build_registry(
        nz=nz, y=y, t=t, s=s, npairs=npairs, params=tuple(sorted(params))
    )


def _cmd_groebner(args) -> Tuple[int, str]:
    with open(args.file, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [ln.strip() for ln in raw]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"no polynomials in {args.file}")
    reg = _infer_registry(lines)
    polys = [parse(ln, reg) for ln in lines]
    ideal = Ideal(reg, polys)
    if args.eliminate:
        drop = [v.strip() for v in args.eliminate.split(",") if v.strip()]
        result = eliminate(ideal, drop, args.budget)
        reg, gens = result.registry, list(result.generators)
        label = {"eliminated": drop}
    else:
        order = LEX if args.order == "lex" else DEGREVLEX
        gb = buchberger(ideal, order, args.budget)
        reg, gens = gb.registry, list(gb.basis)
        label = {"order": args.order}
    payload = dict(label)
    payload.update(
        {"variables": list(reg.names), "basis": [to_str(g) for g in gens]}
    )
    return 0, _render(reg, gens, args.format, payload)


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="versaldef",
        description="Versal deformations of generic-lines curve singularities: "
        "construction, verification, and export.",
    )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file with default option values (command line wins)",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default=None, help="output format (default plain)"
    )
    common.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")
    common.add_argument(
        "--spair-budget", type=int, default=None, metavar="N",
        help="abort Groebner runs after N S-pairs",
    )
    common.add_argument(
        "--term-budget", type=int, default=None, metavar="N",
        help="abort reductions when a polynomial exceeds N terms",
    )
    common.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="seed for the extra sampled-parameter checks",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit", help="write curves, families, or base ideals")
    emit_sub = emit.add_subparsers(dest="what", required=True)

    ec = emit_sub.add_parser("curve", parents=[common], help="a curve presentation")
    ec.add_argument("curve", choices=("L", "axes", "elliptic", "rational"),
                    help="L: generic lines in n-space; axes: coordinate axes; "
                    "elliptic/rational: monomial curves")
    ec.add_argument("n", type=int, help="ambient dimension n")
    ec.add_argument("--presentation", choices=("g", "f"), default="g",
                    help="g: pair quadrics with y; f: y-free differences")

    ef = emit_sub.add_parser("family", parents=[common], help="the versal family")
    ef.add_argument("--n", type=int, required=True)

    eb = emit_sub.add_parser("base", parents=[common], help="the base-space ideal")
    eb.add_argument("--n", type=int, required=True)
    eb.add_argument("--minimal", action="store_true", help="minimal system instead of the full one")

    ver = sub.add_parser("verify", parents=[common], help="run a verification suite")
    ver.add_argument("suite", choices=tuple(verify.SUITES) + ("all",))
    ver.add_argument("--n", type=int, nargs=2, metavar=("LO", "HI"),
                     help="inclusive n range (default per suite)")

    inv = sub.add_parser("invariants", parents=[common], help="numeric invariants of a curve")
    inv.add_argument("family", choices=("L", "elliptic", "rational"),
                     help="L: m generic lines; elliptic/rational: monomial curves")
    inv.add_argument("index", type=int, help="number of lines for L, n for monomial curves")

    gro = sub.add_parser("groebner", parents=[common],
                         help="Groebner basis of polynomials from a file (one per line)")
    gro.add_argument("file")
    gro.add_argument("--order", choices=("degrevlex", "lex"), default="degrevlex")
    gro.add_argument("--eliminate", metavar="VARS",
                     help="comma-separated variables to eliminate instead")

    return parser


_CONFIG_KEYS = ("format", "out", "spair_budget", "term_budget", "seed")


def _apply_config(args) -> None:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(config).__name__}")
        unknown = set(config) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = {
        "format": "plain",
        "out": None,
        "spair_budget": DEFAULT_BUDGET.max_pairs,
        "term_budget": DEFAULT_BUDGET.max_terms,
        "seed": None,
    }
    for key in _CONFIG_KEYS:
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, defaults[key]))
    formats = _COMMANDS[args.command][1]
    if args.format not in formats:
        raise ValueError(f"{args.command} takes format {' or '.join(formats)}, got {args.format!r}")
    if args.seed is not None and type(args.seed) is not int:
        raise ValueError(f"seed must be an integer or null, got {args.seed!r}")
    if args.out is not None and not isinstance(args.out, str):
        raise ValueError(f"out must be a file name or null, got {args.out!r}")
    args.budget = Budget(max_pairs=args.spair_budget, max_terms=args.term_budget)


# each command with the formats it writes: verify writes its JSON report
# only to --out, and invariants has no ring to write a script for
_COMMANDS = {
    "emit": (_cmd_emit, FORMATS),
    "verify": (_cmd_verify, ("plain",)),
    "invariants": (_cmd_invariants, ("plain", "json")),
    "groebner": (_cmd_groebner, FORMATS),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        code, text = _COMMANDS[args.command][0](args)
        # written only once the command has returned, so a failed
        # command leaves an existing --out file as it was
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return BUDGET_EXIT
    except (ValueError, KeyError, ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
