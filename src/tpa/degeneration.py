"""Exact verification of the degeneration table and the related
necessary conditions.

A table row gives a curve of bases g(t); the row verifies when the limit
t -> 0 of the group action of g(t) on the (possibly t-parametrized)
source pair equals the target pair, either exactly or after a post-limit
change of basis.  Rows whose source parameter is itself a function of t
are family degenerations: for those the derivation-dimension argument
only gives weak (non-strict) semicontinuity.

``necessary_checks`` is the one statement of the closed necessary
conditions; table rows and the rigidity audit both compare
``closure_invariants`` records through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import linalg
from .algebra import (
    gl_action,
    limit_pair,
    matrix_from_json,
    pair_from_json,
    pair_to_json,
    pairs_equal,
)
from .catalog import instantiate
from .derivations import pair_derivations
from .iso import span_dims, verify_witness
from .scalars import QQ, QQ_T, Diverges


class SingularFamily(ValueError):
    """The parametrized basis matrix is singular over Q(t)."""


class UnknownRow(ValueError):
    """The table has no row with the requested number."""


@dataclass(frozen=True)
class DegenerationInstance:
    row: int
    name: str
    source: tuple          # (id, params as Q(t) strings)
    target: tuple          # (id, params as rational strings)
    g_columns: tuple       # 3 columns of Q(t) strings
    post_witness: tuple = None
    note: str = None

    def source_pair(self):
        params = [QQ_T.parse(p) for p in self.source[1]]
        return instantiate(self.source[0], params, field=QQ_T)

    def target_pair(self):
        params = [QQ.parse(p) for p in self.target[1]]
        return instantiate(self.target[0], params)

    def g_matrix(self):
        cols = [[QQ_T.parse(v) for v in col] for col in self.g_columns]
        return [[cols[c][r] for c in range(3)] for r in range(3)]

    def is_family(self):
        """Whether a source parameter depends on t."""
        return any(not QQ_T.parse(p).is_constant() for p in self.source[1])

    def t_samples(self):
        """Rational parameter values of the source along the curve, used to
        evaluate derivation dimensions away from the limit."""
        out = []
        for t0 in (Fraction(1, 2), Fraction(2), Fraction(3)):
            params = []
            ok = True
            for p in self.source[1]:
                r = QQ_T.parse(p)
                num = sum(c * t0 ** e for e, c in enumerate(r.num))
                den = sum(c * t0 ** e for e, c in enumerate(r.den))
                if den == 0:
                    ok = False
                    break
                params.append(num / den)
            if ok:
                out.append(tuple(params))
        return out


@dataclass(frozen=True)
class ClosureInvariants:
    """What the closed necessary conditions compare (see ``necessary_checks``)."""

    spans: tuple        # (dim V.V, dim [V,V], dim of their sum)
    der_dim: int        # joint derivation dimension
    mul_zero: bool
    bracket_zero: bool


@dataclass
class DegenerationReport:
    row: int
    name: str
    instance: int
    source: tuple                   # the instance's (id, params as Q(t) strings)
    target: tuple                   # the instance's (id, params as rational strings)
    matched: str                    # "exact" | "via_post_witness" | "failed" | "diverges"
    family_source: bool
    limit: dict = None
    der_dims: dict = None
    checks: dict = None
    note: str = None

    @property
    def verified(self):
        return self.matched in ("exact", "via_post_witness")


def load_rows():
    """Table instances from the package data file.

    Each document is the t-substituted source pair in the standard algebra
    JSON format, extended with a ``family`` block (basis columns, source
    and target coordinates, optional post-limit witness).  The embedded
    tensors are cross-checked against the catalog instantiation."""
    data = json.loads(resources.files("tpa.data").joinpath("degenerations.json").read_text())
    return _rows_from_data(data)


def _rows_from_data(data):
    rows = []
    for doc in data["rows"]:
        fam = doc["family"]
        inst = DegenerationInstance(
            row=fam["row"],
            name=fam["name"],
            source=(fam["source"]["id"], tuple(fam["source"]["params"])),
            target=(fam["target"]["id"], tuple(fam["target"]["params"])),
            g_columns=tuple(tuple(col) for col in fam["g"]),
            post_witness=tuple(map(tuple, fam["post_witness"])) if fam.get("post_witness") else None,
            note=fam.get("note"),
        )
        embedded = pair_from_json({k: doc[k] for k in ("dim", "mul", "bracket")}, field=QQ_T)
        if not pairs_equal(embedded, inst.source_pair()):
            raise ValueError(f"row {fam['row']}: embedded tensors disagree with the catalog")
        rows.append(inst)
    return rows


def row_numbers():
    return sorted({inst.row for inst in load_rows()})


def verify_instance(inst, index=0):
    """Run one table instance: act, take the limit, compare with the target,
    then evaluate the closed necessary conditions at the rational curve
    samples (weak derivation test for family rows, strict otherwise)."""
    g = inst.g_matrix()
    if not linalg.det(g, QQ_T):
        raise SingularFamily(f"row {inst.row}: parametrized basis is singular")
    source = inst.source_pair()
    moved = gl_action(source, g)
    report = DegenerationReport(
        row=inst.row, name=inst.name, instance=index, source=inst.source,
        target=inst.target, matched="failed", family_source=inst.is_family(),
        note=inst.note,
    )
    try:
        lim = limit_pair(moved)
    except Diverges:
        report.matched = "diverges"
        return report
    target = inst.target_pair()
    report.limit = pair_to_json(lim)
    if pairs_equal(lim, target):
        report.matched = "exact"
    elif inst.post_witness is not None and verify_witness(
            lim, target, matrix_from_json(inst.post_witness)):
        report.matched = "via_post_witness"
    if report.verified:
        samples = inst.t_samples()
        if not samples:
            raise ValueError(f"row {inst.row}: no rational sample of the source parameters")
        tgt = closure_invariants(target)
        distinct = {p: closure_invariants(instantiate(inst.source[0], p))
                    for p in dict.fromkeys(samples)}
        srcs = [distinct[p] for p in samples]
        report.der_dims = {"source_at_samples": [s.der_dim for s in srcs],
                           "target": tgt.der_dim}
        per_sample = [necessary_checks(s, tgt, report.family_source) for s in srcs]
        report.checks = {k: all(c[k] for c in per_sample)
                         for k in per_sample[0] if k != "der_dims"}
    return report


def verify_row(row_number):
    insts = [r for r in load_rows() if r.row == row_number]
    if not insts:
        raise UnknownRow(f"no degeneration row {row_number}")
    return [verify_instance(inst, i) for i, inst in enumerate(insts)]


def verify_all():
    return [verify_instance(inst, i) for i, inst in enumerate(load_rows())]


def witness_errata(reports):
    """Machine-readable list of the reported instances that needed a
    post-limit witness."""
    return [{"row": rep.row, "name": rep.name, "instance": rep.instance}
            for rep in reports if rep.matched == "via_post_witness"]


def orbit_dim(pair):
    """n^2 minus the joint derivation dimension (n = 3 pairs only)."""
    if pair.dim != 3:
        raise linalg.DimensionMismatch("orbit dimension is defined here for dim 3")
    return 9 - pair_derivations(pair).dim


def closure_invariants(pair):
    """The invariants the closed necessary conditions compare."""
    return ClosureInvariants(span_dims(pair), pair_derivations(pair).dim,
                             pair.mul.is_zero(), pair.bracket.is_zero())


def necessary_checks(source, target, family_source=False):
    """Closed obstructions to source -> target, given the closure invariants
    of both: derivation dimension must rise (strictly unless the source is a
    whole family), product/bracket/joint span dimensions cannot grow, and a
    zero component must stay zero."""
    ds, dt = source.der_dim, target.der_dim
    report = {
        "der_dims": (ds, dt),
        "der_dim_ok": ds <= dt if family_source else ds < dt,
        "mul_span_nonincreasing": source.spans[0] >= target.spans[0],
        "bracket_span_nonincreasing": source.spans[1] >= target.spans[1],
        "joint_span_nonincreasing": source.spans[2] >= target.spans[2],
        "mul_zero_component": not (source.mul_zero and not target.mul_zero),
        "bracket_zero_component": not (source.bracket_zero and not target.bracket_zero),
    }
    report["ok"] = all(v for k, v in report.items() if k != "der_dims")
    return report


def rigid_component_members():
    """Deterministic generic samples of the five orbit-closure components."""
    return [
        ("T01", ()),
        ("T20", ()),
        ("T09", (Fraction(3), Fraction(1))),
        ("T09", (Fraction(5), Fraction(2))),
        ("T12", (Fraction(1),)),
        ("T12", (Fraction(2),)),
        ("T17", (Fraction(1),)),
        ("T17", (Fraction(2),)),
    ]


def reachable_targets(reports):
    """id-level transitive closure of the verified table rows."""
    edges = {}
    for rep in reports:
        if rep.verified:
            edges.setdefault(rep.source[0], set()).add(rep.target[0])
    closure = {k: set(v) for k, v in edges.items()}
    changed = True
    while changed:
        changed = False
        for src, tgts in closure.items():
            new = set()
            for t in tgts:
                new |= closure.get(t, set())
            if not new <= tgts:
                tgts |= new
                changed = True
    return closure
