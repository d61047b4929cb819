"""Command-line front end.

Every subcommand prints a single JSON document on stdout and is
deterministic given its inputs.  Exit codes: 0 success / verification
passed, 1 verification failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import degeneration, verify as verify_mod
from .algebra import (
    IDENTITIES,
    check_identity,
    is_poisson,
    is_transposed_poisson,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    sc_to_entries,
)
from .catalog import CATALOG, InadmissibleParameter, UnknownId, instantiate, sample_params
from .derivations import NotALieAlgebra, delta_derivations, half_biderivations
from .dspecial import derivation_matching_bracket, derived_bracket
from .enumeration import member_pair, tp_family
from .iso import FINGERPRINT_FIELDS, distinguish, fingerprint, verify_witness
from .scalars import QQ, ScalarParseError, parse_rational


class CliError(Exception):
    """Usage-level failure; mapped to exit code 2."""


def _emit(doc, pretty=False):
    if pretty:
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        print(json.dumps(doc, sort_keys=False))


def _parse_params(args):
    out = []
    for name in getattr(args, "_param_names", ()):
        v = getattr(args, name, None)
        if v is not None:
            out.append(_rational(name, v))
    return out


def _rational(name, text):
    try:
        return parse_rational(text)
    except ScalarParseError as exc:
        raise CliError(f"bad rational for --{name}: {text!r}") from exc


def _load_pair(path):
    try:
        if path == "-":
            return pair_from_json(json.load(sys.stdin))
        with open(path) as fh:
            return pair_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read algebra file {path}: {exc}") from exc


def _resolve_input(args):
    if getattr(args, "input", None):
        return _load_pair(args.input)
    lie = getattr(args, "lie", None) or getattr(args, "id", None)
    if lie is None:
        raise CliError("give --id/--lie or --input")
    try:
        return instantiate(lie, _parse_params(args))
    except (UnknownId, InadmissibleParameter) as exc:
        raise CliError(str(exc)) from exc


def _space_doc(space):
    """A solution space with its entries in the space's own field (Q or Q(t))."""
    if space.kind == "matrix":
        basis = [matrix_to_json(b, space.field) for b in space.basis]
    else:
        basis = [[matrix_to_json(plane, space.field) for plane in b] for b in space.basis]
    return {"dim": space.dim, "kind": space.kind, "basis": basis}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args):
    pair = _resolve_input(args)
    idents = {w: check_identity(pair, w).holds for w in IDENTITIES}
    doc = {
        "identities": idents,
        "transposed_poisson": is_transposed_poisson(pair),
        "poisson": is_poisson(pair),
    }
    if getattr(args, "id", None):
        doc = {"id": args.id, **doc}
    _emit(doc, args.pretty)
    return 0


def cmd_der(args):
    pair = _resolve_input(args)
    delta = _rational("delta", args.delta)
    space = delta_derivations(pair.bracket if not args.mul else pair.mul, delta)
    _emit({"delta": str(delta), **_space_doc(space)}, args.pretty)
    return 0


def cmd_biderive(args):
    pair = _resolve_input(args)
    try:
        space = half_biderivations(pair.bracket, symmetric=not args.full)
    except NotALieAlgebra as exc:
        raise CliError(str(exc)) from exc
    _emit(_space_doc(space), args.pretty)
    return 0


def cmd_enumerate(args):
    pair = _resolve_input(args)
    try:
        family = tp_family(pair.bracket)
    except NotALieAlgebra as exc:
        raise CliError(str(exc)) from exc
    grid = []
    for coords in _sample_coords(family.dim):
        grid.append({
            "coords": [QQ.format(c) for c in coords],
            "residual_zero": check_identity(member_pair(family, coords), "associative").holds,
        })
    doc = {"family_dim": family.dim,
           "basis": _space_doc(family.space)["basis"],
           "residual_grid": grid}
    _emit(doc, args.pretty)
    return 0


def _sample_coords(dim):
    vals = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    out = [[vals[(i + j) % len(vals)] for j in range(dim)] for i in range(4)]
    out.append([Fraction(1)] * dim)
    return out


def cmd_iso(args):
    lhs = _load_pair(args.lhs)
    rhs = _load_pair(args.rhs)
    try:
        with open(args.witness) as fh:
            witness = matrix_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read witness file {args.witness}: {exc}") from exc
    if not lhs.dim == rhs.dim == len(witness):
        raise CliError(f"witness is {len(witness)}x{len(witness)}, pairs have "
                       f"dimensions {lhs.dim} and {rhs.dim}")
    ok = verify_witness(lhs, rhs, witness)
    _emit({"isomorphic_via_witness": ok, "distinguish": distinguish(lhs, rhs)},
          args.pretty)
    return 0 if ok else 1


def cmd_fingerprint(args):
    pair = _resolve_input(args)
    fp = fingerprint(pair)
    _emit({"fingerprint": list(fp),
           "fields": list(FINGERPRINT_FIELDS)}, args.pretty)
    return 0


def cmd_dspecial(args):
    try:
        pair = instantiate(args.comm) if args.comm else _resolve_input(args)
    except (UnknownId, InadmissibleParameter) as exc:
        raise CliError(str(exc)) from exc
    comm = pair.mul
    doc = {}
    if args.all_derivations or args.comm:
        space = delta_derivations(comm, 1)
        doc["derivations"] = _space_doc(space)
        doc["derived_brackets"] = [
            sc_to_entries(derived_bracket(comm, [list(r) for r in d]))
            for d in space.basis
        ]
    if args.feasible:
        d = derivation_matching_bracket(pair.mul, pair.bracket)
        doc["strong_d_special"] = d is not None
        if d is not None:
            doc["derivation"] = matrix_to_json(d, pair.field)
    _emit(doc, args.pretty)
    return 0


def cmd_degenerate(args):
    if args.row is not None:
        try:
            reports = degeneration.verify_row(args.row)
        except degeneration.UnknownRow as exc:
            raise CliError(str(exc)) from exc
    else:
        reports = degeneration.verify_all()
    rows = []
    for r in reports:
        rows.append({
            "row": r.row, "instance": r.instance, "name": r.name,
            "matched": r.matched, "family_source": r.family_source,
            "limit": r.limit, "der_dims": r.der_dims, "checks": r.checks,
            "note": r.note,
        })
    ok = all(r.verified and r.checks and r.checks["ok"] for r in reports)
    _emit({"rows": rows, "witness_errata": degeneration.witness_errata(reports),
           "all_verified": ok}, args.pretty)
    return 0 if ok else 1


def cmd_catalog(args):
    if args.action != "dump":
        raise CliError(f"unknown catalog action {args.action!r}")
    entries = []
    for cid in sorted(CATALOG):
        e = CATALOG[cid]
        for params in sample_params(cid, 3):
            pair = instantiate(cid, params)
            doc = pair_to_json(pair)
            doc["meta"] = {
                "id": cid,
                "params": [QQ.format(p) for p in params],
                "kind": e.kind,
                "alt_name": e.alt_name,
            }
            entries.append(doc)
    _emit({"entries": entries}, args.pretty)
    return 0


def cmd_verify_paper(args):
    out = verify_mod.run_suite()
    _emit(out, args.pretty)
    return 0 if out["pass"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_algebra_source(p, with_id=True,
                        params=("alpha", "beta", "gamma", "delta", "epsilon")):
    if with_id:
        p.add_argument("--id", help="catalog id (e.g. T05, g2, A04)")
    p.add_argument("--lie", help="catalog id of a Lie algebra (e.g. g2)")
    p.add_argument("--input", help="path to an algebra JSON file ('-' for stdin)")
    for name in params:
        p.add_argument(f"--{name}", help=f"family parameter {name} (rational)")
    p.set_defaults(_param_names=params)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tpa",
        description="Exact workbench for 3-dimensional transposed Poisson algebras",
    )
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the identity checkers on one algebra")
    _add_algebra_source(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("der", help="delta-derivations of a bracket (or product)")
    _add_algebra_source(p, params=("alpha", "beta", "gamma"))
    p.add_argument("--delta", default="1/2", help="the delta, e.g. 1/2 or 1")
    p.add_argument("--mul", action="store_true",
                   help="solve on the product instead of the bracket")
    p.set_defaults(func=cmd_der)

    p = sub.add_parser("biderive", help="half-biderivations of a Lie bracket")
    _add_algebra_source(p)
    p.add_argument("--full", action="store_true", help="drop the symmetry restriction")
    p.set_defaults(func=cmd_biderive)

    p = sub.add_parser("enumerate",
                       help="transposed Poisson product family on a Lie algebra")
    _add_algebra_source(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("iso", help="verify an isomorphism witness")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--witness", required=True,
                   help="JSON file: 3x3 rational matrix, row-major")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("fingerprint", help="isomorphism invariants of a pair")
    _add_algebra_source(p)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("dspecial", help="derivation-induced brackets")
    p.add_argument("--comm", help="commutative catalog id (e.g. A04)")
    p.add_argument("--all-derivations", action="store_true",
                   help="print the derivation basis and each derived bracket")
    p.add_argument("--feasible", action="store_true",
                   help="solve for a derivation reproducing the bracket")
    _add_algebra_source(p, with_id=True)
    p.set_defaults(func=cmd_dspecial)

    p = sub.add_parser("degenerate", help="verify degeneration table rows")
    p.add_argument("--row", type=int, help="verify one table row (1..17)")
    p.add_argument("--all", action="store_true", help="verify the whole table")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=["dump"])
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-paper", help="run the whole reproduction suite")
    p.set_defaults(func=cmd_verify_paper)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
