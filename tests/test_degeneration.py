from fractions import Fraction as F

import pytest

from tpa.algebra import AlgebraPair, StructureConstants
from tpa.catalog import instantiate
from tpa.degeneration import (
    DegenerationInstance,
    DegenerationReport,
    SingularFamily,
    load_rows,
    necessary_checks,
    orbit_dim,
    verify_all,
    verify_instance,
    verify_row,
    witness_errata,
)
from tpa.iso import fingerprint
from tpa.scalars import QQ_T, RatFunc, T
from tpa.verify import RIGIDITY_OPEN_LIST, rigidity_audit

ZERO, ONE = QQ_T.zero, QQ_T.one

#: joint derivation dimensions, frozen from independent hand elimination
DER_DIMS = {
    ("T05", ()): 1, ("T02", ()): 4, ("T03", (F(2),)): 4, ("T04", (F(2),)): 3,
    ("T06", ()): 2, ("T07", (F(1),)): 4, ("T08", ()): 4, ("T10", (F(1),)): 3,
    ("T11", (F(3),)): 2, ("T10", (F(3),)): 3, ("T13", ()): 1, ("T14", ()): 1,
    ("T15", ()): 2, ("T16", ()): 3, ("T17", (F(1),)): 1, ("T17", (F(0),)): 2,
    ("T18", ()): 1, ("T19", (F(1),)): 2,
}


def test_frozen_der_dims():
    from tpa.derivations import pair_derivations

    for (tid, params), expected in DER_DIMS.items():
        assert pair_derivations(instantiate(tid, params)).dim == expected, (tid, params)


def test_all_rows_verify():
    reports = verify_all()
    assert len(reports) == 30
    for r in reports:
        assert r.verified, (r.row, r.instance, r.matched)
        assert r.checks["ok"], (r.row, r.instance, r.checks)
    assert sorted({r.row for r in reports}) == list(range(1, 18))


def test_loaded_rows_hold_exact_values():
    # the loader parses each scalar once: rows carry catalog keys, not text
    for inst in load_rows():
        assert all(type(p) is RatFunc for p in inst.source[1]), inst.name
        assert all(type(v) is RatFunc for col in inst.g_columns for v in col), inst.name
        assert all(type(p) in (int, F) for p in inst.target[1]), inst.name


def test_target_params_parsed_to_values():
    import json
    from importlib import resources

    from tpa.degeneration import _rows_from_data

    data = json.loads(
        resources.files("tpa.data").joinpath("degenerations.json").read_text()
    )
    doc = json.loads(json.dumps(next(d for d in data["rows"] if d["row"] == 2)))
    doc["instances"] = doc["instances"][:1]
    doc["instances"][0]["target"]["params"] = ["6/2"]
    (inst,) = _rows_from_data({"rows": [doc]})
    assert inst.target == ("T03", (3,))


def test_row_numbers():
    assert sorted({inst.row for inst in load_rows()}) == list(range(1, 18))
    with pytest.raises(ValueError):
        verify_row(42)


def test_row_and_all_number_instances_alike():
    # an instance is numbered by its position within its row, whether the
    # row is run alone or as part of the whole table
    reports = verify_all()
    for n in range(1, 18):
        assert verify_row(n) == [r for r in reports if r.row == n], n
    assert [r.instance for r in reports if r.row == 2] == [0, 1, 2]


def test_row_one_is_exact():
    reports = verify_row(1)
    assert len(reports) == 1
    assert reports[0].matched == "exact"
    assert reports[0].limit == {
        "dim": 3,
        "mul": [[2, 2, 3, "1"]],
        "bracket": [[1, 2, 3, "1"], [2, 1, 3, "-1"]],
    }


def test_family_rows_flagged():
    by_row = {}
    for r in verify_all():
        by_row.setdefault(r.row, r)
    for row in (5, 10, 11, 12, 14, 16):
        assert by_row[row].family_source, row
    for row in (1, 2, 3, 4, 6, 7, 8, 9, 13, 15, 17):
        assert not by_row[row].family_source, row


def test_strictness_split():
    # family rows only reach equality of derivation dimensions; single-orbit
    # rows must jump strictly
    for r in verify_all():
        src = max(r.der_dims["source_at_samples"])
        tgt = r.der_dims["target"]
        if r.family_source:
            assert src <= tgt, (r.row, r.der_dims)
        else:
            assert src < tgt, (r.row, r.der_dims)


def test_no_sign_witnesses_needed():
    # computed, not assumed: under the group-action convention every row
    # lands on the target exactly
    reports = verify_all()
    assert witness_errata(reports) == []
    assert all(r.matched == "exact" for r in reports)


def test_post_witness_machinery():
    # a deliberately sign-flipped target exercises the post-witness path
    inst = DegenerationInstance(
        row=99, name="sign-flip probe",
        source=("T09", (RatFunc(3), T)), target=("T11", (3,)),
        g_columns=((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (1 / T, ZERO, ONE)),
        post_witness=((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    )
    rep = verify_instance(inst)
    assert rep.matched == "via_post_witness"
    assert witness_errata([rep]) == [{"row": 99, "name": "sign-flip probe", "instance": 0}]


def test_missing_post_witness_fails():
    # the same sign-flipped probe without its tabulated witness: no search
    # stands in for the missing witness, so the row must fail loudly
    inst = DegenerationInstance(
        row=99, name="sign-flip probe",
        source=("T09", (RatFunc(3), T)), target=("T11", (3,)),
        g_columns=((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (1 / T, ZERO, ONE)),
    )
    rep = verify_instance(inst)
    assert rep.matched == "failed"
    assert rep.checks is None


def test_singular_family_rejected():
    inst = DegenerationInstance(
        row=98, name="singular probe",
        source=("T05", ()), target=("T02", ()),
        g_columns=((T, ZERO, ZERO), (T, ZERO, ZERO), (ZERO, ZERO, ONE)),
    )
    with pytest.raises(SingularFamily):
        verify_instance(inst)


def test_diverging_row_reported():
    # the alpha = t reading of the T09 row has a pole in the limit
    inst = DegenerationInstance(
        row=97, name="divergence probe",
        source=("T09", (T, ONE)), target=("T11", (0,)),
        g_columns=((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (-1 / T, ZERO, ONE)),
    )
    rep = verify_instance(inst)
    assert rep.matched == "diverges"


def test_orbit_dims():
    assert orbit_dim(instantiate("T20")) == 9
    assert orbit_dim(instantiate("T01")) == 6
    zero = AlgebraPair(StructureConstants.zero(3), StructureConstants.zero(3))
    assert orbit_dim(zero) == 0


def test_necessary_checks_direction():
    t05, t02 = fingerprint(instantiate("T05")), fingerprint(instantiate("T02"))
    assert necessary_checks(t05, t02)["ok"]
    back = necessary_checks(t02, t05)
    assert not back["ok"] and not back["der_dim_ok"]


def test_necessary_checks_zero_component():
    t01 = fingerprint(instantiate("T01"))
    t20 = fingerprint(instantiate("T20"))
    rep = necessary_checks(t20, t01)
    assert not rep["bracket_span_nonincreasing"] or not rep["bracket_zero_component"]
    assert not rep["ok"]
    rep = necessary_checks(t01, t20)
    assert not rep["mul_zero_component"]
    assert not rep["ok"]


def test_necessary_checks_weak_for_families():
    # equal derivation dimensions pass only the weak (family) test
    t05 = fingerprint(instantiate("T05"))
    assert necessary_checks(t05, t05, family_source=True)["der_dim_ok"]
    assert not necessary_checks(t05, t05)["der_dim_ok"]


def test_row_checks_are_necessary_checks():
    # a row's checks are the necessary_checks keys, AND-ed over its samples
    t05, t02 = fingerprint(instantiate("T05")), fingerprint(instantiate("T02"))
    keys = set(necessary_checks(t05, t02))
    for r in verify_all():
        assert set(r.checks) == keys, (r.row, r.instance)


def test_t_samples_are_exact_at_an_int_point():
    # t0 = 2 is an int, where int / int would be a float: each sample is the
    # exact Q value of the source parameters, and a pole drops the sample
    for inst in load_rows():
        at_two = tuple(p.value_at(2) for p in inst.source[1])
        assert at_two == tuple(p.value_at(F(2)) for p in inst.source[1]), inst.name
        assert all(type(v) is int or type(v) is F and v.denominator != 1 for v in at_two)
        assert inst.t_samples()[1] == at_two, inst.name
    row = load_rows()[0]
    fields = {f: getattr(row, f) for f in row._fields}
    fields["source"] = ("T17", (1 / (T - 2), T / 2))
    samples = DegenerationInstance(**fields).t_samples()
    assert samples == [(F(-2, 3), F(1, 4)), (1, F(3, 2))]
    assert [type(v) for s in samples for v in s] == [F, F, int, F]


def test_row_without_samples_rejected():
    # no rational point of the source curve means no evidence for the
    # closed conditions: the row is refused, not passed vacuously
    class Unsampled(DegenerationInstance):
        def t_samples(self):
            return []

    row1 = load_rows()[0]
    inst = Unsampled(**{f: getattr(row1, f) for f in row1._fields})
    with pytest.raises(ValueError):
        verify_instance(inst)


def reachable_targets(reports):
    """id-level transitive closure of the verified table rows."""
    closure = {}
    for rep in reports:
        if rep.verified:
            closure.setdefault(rep.source[0], set()).add(rep.target[0])
    changed = True
    while changed:
        changed = False
        for tgts in closure.values():
            new = set().union(*(closure.get(t, set()) for t in tgts))
            if not new <= tgts:
                tgts |= new
                changed = True
    return closure


def test_reachable_targets_closure():
    closure = reachable_targets(verify_all())
    assert "T02" in closure["T05"]
    assert "T03" in closure["T05"]  # via T04
    assert "T15" in closure["T12"]  # via T14
    assert "T08" in closure["T10"]
    # nothing reaches the rigid sources
    for targets in closure.values():
        assert "T01" not in targets
        assert "T20" not in targets
        assert "T09" not in targets


def test_rigidity_audit_within_open_list():
    audit = rigidity_audit(verify_all())
    assert audit["table_reaches_component_member"] == []
    assert audit["within_open_list"]
    pairs = {(o["source"][0], o["member"][0]) for o in audit["open_list"]}
    assert pairs <= RIGIDITY_OPEN_LIST


def test_rigidity_audit_matches_targets_by_value():
    # a verified row reaching the T09 member written as 6/2 is a table hit
    rep = DegenerationReport(row=96, name="value probe", instance=0, source=("T05", ()),
                             target=("T09", (F(6, 2), 1)), matched="exact",
                             family_source=False)
    hits = rigidity_audit([rep])["table_reaches_component_member"]
    assert {"source": "T05", "member": "T09"} in hits


def test_report_optional_fields_default_to_none():
    rep = DegenerationReport(row=1, name="n", instance=0, source=("T05", ()),
                             target=("T02", ()), matched="failed", family_source=False)
    assert (rep.limit, rep.der_dims, rep.checks, rep.note) == (None, None, None, None)
    assert not rep.verified
    assert rep._replace(matched="exact").verified
    assert rep._replace(matched="via_post_witness").verified


def test_loaded_rows_have_notes_where_corrected():
    notes = {r.row: r.note for r in load_rows() if r.note}
    assert 12 in notes and "e1" in notes[12]
    assert 16 in notes and "e1" in notes[16]
    assert 10 in notes and 14 in notes


def test_data_file_schema_and_integrity():
    # one document per row, each instance by its catalog keys: no tensor is
    # stored, and a row's name and note are stated once
    import json
    from importlib import resources

    data = json.loads(
        resources.files("tpa.data").joinpath("degenerations.json").read_text()
    )
    assert set(data) == {"comment", "rows"}
    assert [doc["row"] for doc in data["rows"]] == list(range(1, 18))
    for doc in data["rows"]:
        assert {"row", "name", "instances"} <= set(doc) <= {"row", "name", "note", "instances"}
        for inst in doc["instances"]:
            assert {"source", "target", "g"} <= set(inst) <= {"source", "target", "g",
                                                              "post_witness"}
            assert set(inst["source"]) == set(inst["target"]) == {"id", "params"}
            assert len(inst["g"]) == 3
    assert sum(len(doc["instances"]) for doc in data["rows"]) == 30
