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
import os
from collections import namedtuple
from fractions import Fraction

from . import linalg
from .algebra import gl_action, limit_pair, matrix_from_json, pair_to_json, pairs_equal
from .catalog import instantiate
from .derivations import pair_derivations
from .iso import catalog_fingerprint, verify_witness
from .scalars import QQ, QQ_T, Diverges


class SingularFamily(ValueError):
    """The parametrized basis matrix is singular over Q(t)."""


class UnknownRow(ValueError):
    """The table has no row with the requested number."""


class DegenerationInstance(namedtuple(
        "DegenerationInstance", "row name source target g_columns post_witness note index",
        defaults=(None, None, 0))):
    """One instance of a table row: the catalog keys of its source (params in
    Q(t)) and target (params in Q), the 3 columns of g over Q(t), an optional
    post-limit witness, the row's note and the instance's position within
    its row."""

    __slots__ = ()

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


class DegenerationReport(namedtuple(
        "DegenerationReport",
        "row instance name matched family_source limit der_dims checks note source target",
        defaults=(None,) * 6)):
    """The outcome of one instance: ``matched`` is "exact",
    "via_post_witness", "failed" or "diverges"; ``source`` and ``target``
    are the instance's catalog keys, and the fields before them, in order,
    are a ``degenerate`` row."""

    __slots__ = ()

    @property
    def verified(self):
        return self.matched in ("exact", "via_post_witness")


def load_rows():
    """Table instances from the package data file, in table order.

    The file holds one document per row (number, name, optional note) with
    its instances; each instance names its source and target by catalog
    key, gives the basis columns g over Q(t) and optionally a post-limit
    witness.  No tensor is stored: the pairs are the catalog's."""
    # what pkgutil.get_data does, without its import of typing
    path = os.path.join(os.path.dirname(__file__), "data", "degenerations.json")
    data = json.loads(__spec__.loader.get_data(path))
    return _rows_from_data(data)


def _rows_from_data(data):
    """The one place where table text becomes values: each scalar is
    parsed once, and each instance holds exact catalog keys and its
    position within its row."""
    rows = []
    for doc in data["rows"]:
        for index, inst in enumerate(doc["instances"]):
            src, tgt = inst["source"], inst["target"]
            rows.append(DegenerationInstance(
                row=doc["row"],
                name=doc["name"],
                source=(src["id"], tuple(map(QQ_T.parse, src["params"]))),
                target=(tgt["id"], tuple(map(QQ.parse, tgt["params"]))),
                g_columns=tuple(tuple(map(QQ_T.parse, col)) for col in inst["g"]),
                post_witness=(tuple(map(tuple, matrix_from_json(inst["post_witness"])))
                              if inst.get("post_witness") else None),
                note=doc.get("note"),
                index=index,
            ))
    return rows


def verify_instance(inst):
    """Run one table instance: act, take the limit, compare with the target,
    then evaluate the closed necessary conditions at the rational curve
    samples (weak derivation test for family rows, strict otherwise)."""
    try:
        moved = gl_action(inst.source_pair(), inst.g_matrix())
    except linalg.SingularMatrix:
        raise SingularFamily(f"row {inst.row}: parametrized basis is singular") from None
    family = inst.is_family()

    def report(matched, limit=None, der_dims=None, checks=None):
        return DegenerationReport(inst.row, inst.index, inst.name, matched, family, limit,
                                  der_dims, checks, inst.note, inst.source, inst.target)

    try:
        lim = limit_pair(moved)
    except Diverges:
        return report("diverges")
    target = inst.target_pair()
    if pairs_equal(lim, target):
        matched = "exact"
    elif inst.post_witness is not None and verify_witness(lim, target, inst.post_witness):
        matched = "via_post_witness"
    else:
        return report("failed", pair_to_json(lim))
    samples = inst.t_samples()
    if not samples:
        raise ValueError(f"row {inst.row}: no rational sample of the source parameters")
    tgt = catalog_fingerprint(target)
    srcs = [catalog_fingerprint(instantiate(inst.source[0], p)) for p in samples]
    per_sample = [necessary_checks(s, tgt, family) for s in srcs]
    return report(matched, pair_to_json(lim),
                  {"source_at_samples": [s.dim_der_pair for s in srcs],
                   "target": tgt.dim_der_pair},
                  {k: all(c[k] for c in per_sample) for k in per_sample[0]})


def verify_row(row_number):
    insts = [r for r in load_rows() if r.row == row_number]
    if not insts:
        raise UnknownRow(f"no degeneration row {row_number}")
    return [verify_instance(inst) for inst in insts]


def verify_all():
    return [verify_instance(inst) for inst in load_rows()]


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
