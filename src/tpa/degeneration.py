"""Exact verification of the degeneration table and the related
necessary conditions.

A table row gives a curve of bases g(t); the row verifies when the limit
t -> 0 of the group action of g(t) on the (possibly t-parametrized)
source pair equals the target pair, either exactly or after a post-limit
change of basis.  Rows whose source parameter is itself a function of t
are family degenerations: for those the derivation-dimension argument
only gives weak (non-strict) semicontinuity.

``necessary_checks`` is the one statement of the closed necessary
conditions; table rows and the rigidity audit both compare the
fingerprints of source and target through it.
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
from .iso import catalog_fingerprint, verify_witness
from .scalars import QQ, QQ_T, Diverges


class SingularFamily(ValueError):
    """The parametrized basis matrix is singular over Q(t)."""


class UnknownRow(ValueError):
    """The table has no row with the requested number."""


@dataclass(frozen=True)
class DegenerationInstance:
    row: int
    name: str
    source: tuple          # catalog key (id, params in Q(t))
    target: tuple          # catalog key (id, params in Q)
    g_columns: tuple       # 3 columns of Q(t) values
    post_witness: tuple = None
    note: str = None

    def source_pair(self):
        return instantiate(*self.source, field=QQ_T)

    def target_pair(self):
        return instantiate(*self.target)

    def g_matrix(self):
        return linalg.transpose(self.g_columns)

    def is_family(self):
        """Whether a source parameter depends on t."""
        return any(not p.is_constant() for p in self.source[1])

    def t_samples(self):
        """Rational parameter values of the source along the curve, at
        t = 1/2, 2 and 3 less any pole, used to evaluate derivation
        dimensions away from the limit."""
        samples = (tuple(p.value_at(t0) for p in self.source[1]) for t0 in (Fraction(1, 2), 2, 3))
        return [params for params in samples if None not in params]


@dataclass
class DegenerationReport:
    row: int
    name: str
    instance: int
    source: tuple                   # the instance's catalog key, params in Q(t)
    target: tuple                   # the instance's catalog key, params in Q
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
    """The one place where table text becomes values: each scalar is
    parsed once, and the instances hold exact catalog keys."""
    rows = []
    for doc in data["rows"]:
        fam = doc["family"]
        src, tgt = fam["source"], fam["target"]
        inst = DegenerationInstance(
            row=fam["row"],
            name=fam["name"],
            source=(src["id"], tuple(map(QQ_T.parse, src["params"]))),
            target=(tgt["id"], tuple(map(QQ.parse, tgt["params"]))),
            g_columns=tuple(tuple(map(QQ_T.parse, col)) for col in fam["g"]),
            post_witness=(tuple(map(tuple, matrix_from_json(fam["post_witness"])))
                          if fam.get("post_witness") else None),
            note=fam.get("note"),
        )
        embedded = pair_from_json({k: doc[k] for k in ("dim", "mul", "bracket")}, field=QQ_T)
        if not pairs_equal(embedded, inst.source_pair()):
            raise ValueError(f"row {fam['row']}: embedded tensors disagree with the catalog")
        rows.append(inst)
    return rows


def verify_instance(inst, index=0):
    """Run one table instance: act, take the limit, compare with the target,
    then evaluate the closed necessary conditions at the rational curve
    samples (weak derivation test for family rows, strict otherwise)."""
    try:
        moved = gl_action(inst.source_pair(), inst.g_matrix())
    except linalg.SingularMatrix:
        raise SingularFamily(f"row {inst.row}: parametrized basis is singular") from None
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
    elif inst.post_witness is not None and verify_witness(lim, target, inst.post_witness):
        report.matched = "via_post_witness"
    if report.verified:
        samples = inst.t_samples()
        if not samples:
            raise ValueError(f"row {inst.row}: no rational sample of the source parameters")
        tgt = catalog_fingerprint(target)
        srcs = [catalog_fingerprint(instantiate(inst.source[0], p)) for p in samples]
        report.der_dims = {"source_at_samples": [s.dim_der_pair for s in srcs],
                           "target": tgt.dim_der_pair}
        per_sample = [necessary_checks(s, tgt, report.family_source) for s in srcs]
        report.checks = {k: all(c[k] for c in per_sample) for k in per_sample[0]}
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


def necessary_checks(source, target, family_source=False):
    """Closed obstructions to source -> target, given the fingerprints of
    both: derivation dimension must rise (strictly unless the source is a
    whole family), product/bracket/joint span dimensions cannot grow, and a
    zero component must stay zero."""
    ds, dt = source.dim_der_pair, target.dim_der_pair
    report = {
        "der_dim_ok": ds <= dt if family_source else ds < dt,
        "mul_span_nonincreasing": source.dim_sq >= target.dim_sq,
        "bracket_span_nonincreasing": source.dim_br >= target.dim_br,
        "joint_span_nonincreasing": source.dim_span >= target.dim_span,
        "mul_zero_component": not (source.dim_sq == 0 and target.dim_sq),
        "bracket_zero_component": not (source.dim_br == 0 and target.dim_br),
    }
    report["ok"] = all(report.values())
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
