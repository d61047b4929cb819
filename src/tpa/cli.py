"""Command-line front end.

Each subcommand handler returns ``(document, passed)`` and is deterministic
given its inputs; ``main`` alone meets the process.  It prints the document
as one JSON line on stdout (indented under ``--pretty``) and exits 0 when
it passed, 1 when a verification failed, 2 on a usage or parse error:
``CliError`` and the library's input errors (an unknown id or row, an
inadmissible parameter, a bracket that is not a Lie bracket) exit 2 with
their message as one stderr line; a closed stdout keeps the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import degeneration, verify as verify_mod
from .algebra import (
    IDENTITIES,
    POISSON_AXIOMS,
    TRANSPOSED_POISSON_AXIOMS,
    check_identity,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    sc_to_entries,
)
from .catalog import (
    CATALOG, InadmissibleParameter, UnknownId, entry, instantiate, sample_params,
)
from .derivations import NotALieAlgebra, delta_derivations, half_biderivations
from .dspecial import derivation_matching_bracket, derived_bracket
from .enumeration import member_pair, tp_family
from .iso import distinguish, fingerprint, verify_witness
from .scalars import QQ, ScalarParseError, excerpt, parse_rational


class CliError(Exception):
    """Usage-level failure; mapped to exit code 2."""


def _instantiate(args, family_id):
    """The catalog family at the parameters given by its own options.

    Each parameter binds to the option of its name (``args._param_option``
    names the exceptions); an option the family does not take, or a
    missing one, is a usage error."""
    names = entry(family_id).param_names
    options = [args._param_option.get(name, name) for name in names]
    _reject_params(args, family_id, allowed=options)
    missing = [f"--{o}" for o in options if getattr(args, o) is None]
    if missing:
        raise CliError(f"{family_id} needs {', '.join(missing)}")
    return instantiate(family_id, [_rational(o, getattr(args, o)) for o in options])


def _reject_params(args, owner, allowed=()):
    """CliError naming the first parameter option given outside ``allowed``."""
    for name in args._param_names:
        if name not in allowed and getattr(args, name) is not None:
            raise CliError(f"{owner} takes no parameter --{name}")


def _rational(name, text):
    try:
        return parse_rational(text)
    except ScalarParseError as exc:
        raise CliError(f"bad rational for --{name}: {excerpt(text)}") from exc


def _json_int(text):
    try:
        return int(text)
    except ValueError:  # past the digit limit; int's own message is 168 bytes
        raise ValueError("JSON integer too long") from None


def _read_json(path, what, parse):
    """parse(the JSON document in the file at path, '-' for stdin); a read
    or parse failure is a CliError naming the file."""
    try:
        if path == "-":
            return parse(json.load(sys.stdin, parse_int=_json_int))
        with open(path) as fh:
            return parse(json.load(fh, parse_int=_json_int))
    except RecursionError as exc:  # its own message is long and names the decoder
        raise CliError(f"cannot read {what} file {path}: JSON nested too deeply") from exc
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc


def _load_pair(path):
    return _read_json(path, "algebra", pair_from_json)


def _resolve_input(args):
    if args.input:
        _reject_params(args, "--input")
        return _load_pair(args.input)
    if args.id is None:
        raise CliError("give --id or --input")
    return _instantiate(args, args.id)


def _space_doc(space):
    """A solution space with its entries in the space's own field (Q or Q(t))."""
    def encode(x):
        return [encode(v) for v in x] if isinstance(x, tuple) else space.field.format(x)

    return {"dim": space.dim, "kind": "matrix" if space.depth == 2 else "tensor",
            "basis": encode(space.basis)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args):
    pair = _resolve_input(args)
    idents = {w: check_identity(pair, w).holds for w in IDENTITIES}
    doc = {
        "identities": idents,
        "transposed_poisson": all(idents[w] for w in TRANSPOSED_POISSON_AXIOMS),
        "poisson": all(idents[w] for w in POISSON_AXIOMS),
    }
    if args.id:
        doc = {"id": args.id, **doc}
    return doc, True


def cmd_der(args):
    pair = _resolve_input(args)
    delta = _rational("delta", args.delta)
    space = delta_derivations(pair.bracket if not args.mul else pair.mul, delta)
    return {"delta": QQ.format(delta), **_space_doc(space)}, True


def cmd_biderive(args):
    pair = _resolve_input(args)
    space = half_biderivations(pair.bracket, symmetric=not args.full)
    return _space_doc(space), True


def cmd_enumerate(args):
    pair = _resolve_input(args)
    family = tp_family(pair.bracket)
    grid = []
    for coords in _sample_coords(family.dim):
        grid.append({
            "coords": [QQ.format(c) for c in coords],
            "residual_zero": check_identity(member_pair(family, coords), "associative").holds,
        })
    doc = {"family_dim": family.dim,
           "basis": _space_doc(family.space)["basis"],
           "residual_grid": grid}
    return doc, True


def _sample_coords(dim):
    vals = [0, 1, -1, 2]
    out = [[vals[(i + j) % len(vals)] for j in range(dim)] for i in range(4)]
    out.append([1] * dim)
    return out


def cmd_iso(args):
    lhs = _load_pair(args.lhs)
    rhs = _load_pair(args.rhs)
    witness = _read_json(args.witness, "witness", matrix_from_json)
    if not lhs.dim == rhs.dim == len(witness):
        raise CliError(f"witness is {len(witness)}x{len(witness)}, pairs have "
                       f"dimensions {lhs.dim} and {rhs.dim}")
    ok = verify_witness(lhs, rhs, witness)
    return {"isomorphic_via_witness": ok, "distinguish": distinguish(lhs, rhs)}, ok


def cmd_fingerprint(args):
    pair = _resolve_input(args)
    fp = fingerprint(pair)
    return {"fingerprint": list(fp), "fields": list(fp._fields)}, True


def cmd_dspecial(args):
    if not (args.all_derivations or args.feasible):
        raise CliError("give --all-derivations or --feasible")
    pair = _resolve_input(args)
    comm = pair.mul
    doc = {}
    if args.all_derivations:
        space = delta_derivations(comm, 1)
        doc["derivations"] = _space_doc(space)
        doc["derived_brackets"] = [
            sc_to_entries(derived_bracket(comm, d))
            for d in space.basis
        ]
    if args.feasible:
        d = derivation_matching_bracket(pair.mul, pair.bracket)
        doc["strong_d_special"] = d is not None
        if d is not None:
            doc["derivation"] = matrix_to_json(d, pair.field)
    return doc, True


def cmd_degenerate(args):
    reports = (degeneration.verify_row(args.row) if args.row is not None
               else degeneration.verify_all())
    rows = [{k: v for k, v in r._asdict().items() if k not in ("source", "target")}
            for r in reports]
    ok = all(r.verified and r.checks and r.checks["ok"] for r in reports)
    return {"rows": rows, "witness_errata": degeneration.witness_errata(reports),
            "all_verified": ok}, ok


def cmd_catalog(args):
    entries = []
    for cid in sorted(CATALOG):
        e = CATALOG[cid]
        for params in sample_params(cid)[:3]:
            pair = instantiate(cid, params)
            doc = pair_to_json(pair)
            doc["meta"] = {
                "id": cid,
                "params": [QQ.format(p) for p in params],
                "kind": e.kind,
                "alt_name": e.alt_name,
            }
            entries.append(doc)
    return {"entries": entries}, True


def cmd_verify_paper(args):
    out = verify_mod.run_suite()
    return out, out["pass"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

#: every parameter name of the catalog, in order of first use
_PARAM_NAMES = tuple(dict.fromkeys(n for e in CATALOG.values() for n in e.param_names))


def _add_algebra_source(p, rename=None):
    """One option per family parameter name, then --id and --input as one
    mutually exclusive group; ``rename`` maps a parameter to another option
    where the command uses its name for something else."""
    params = tuple(dict.fromkeys((rename or {}).get(n, n) for n in _PARAM_NAMES))
    for name in params:
        p.add_argument(f"--{name}", help=f"family parameter {name} (rational)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--id", help="catalog id (e.g. T05, g2, A04)")
    source.add_argument("--input", help="path to an algebra JSON file ('-' for stdin)")
    p.set_defaults(_param_names=params, _param_option=rename or {})


def build_parser():
    # options match only as declared: no parser takes a prefix of one
    parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    ap = parser(
        prog="tpa",
        description="Exact workbench for 3-dimensional transposed Poisson algebras",
    )
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=parser)

    p = sub.add_parser("check", help="run the identity checkers on one algebra")
    _add_algebra_source(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("der", help="delta-derivations of a bracket (or product)")
    # --delta is the delta, so a family parameter named delta is --epsilon
    _add_algebra_source(p, rename={"delta": "epsilon"})
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
    p.add_argument("--lhs", required=True, help="algebra JSON file: the pair to rewrite")
    p.add_argument("--rhs", required=True,
                   help="algebra JSON file: the pair it must become, of the same dimension")
    p.add_argument("--witness", required=True,
                   help="JSON file: an n x n rational matrix as a list of rows, n the "
                        "pairs' dimension; its columns are the new basis vectors in the "
                        "lhs coordinates, as transport reads it")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("fingerprint", help="isomorphism invariants of a pair")
    _add_algebra_source(p)
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("dspecial", help="derivation-induced brackets")
    p.add_argument("--all-derivations", action="store_true",
                   help="print the derivation basis and each derived bracket")
    p.add_argument("--feasible", action="store_true",
                   help="solve for a derivation reproducing the bracket")
    _add_algebra_source(p)
    p.set_defaults(func=cmd_dspecial)

    p = sub.add_parser("degenerate", help="verify degeneration table rows")
    p.add_argument("--row", type=int, help="verify one table row (1..17), else the whole table")
    p.set_defaults(func=cmd_degenerate)

    p = sub.add_parser("catalog", help="every catalog entry at up to three samples")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-paper", help="run the whole reproduction suite")
    p.set_defaults(func=cmd_verify_paper)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc, passed = args.func(args)
    except (CliError, UnknownId, InadmissibleParameter, NotALieAlgebra,
            degeneration.UnknownRow) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        print(json.dumps(doc, indent=2 if args.pretty else None), flush=True)
    except BrokenPipeError:  # the reader has gone: keep the code, silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
