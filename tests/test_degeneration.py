from fractions import Fraction as F

import pytest

from tpa.algebra import AlgebraPair, StructureConstants
from tpa.catalog import instantiate
from tpa.degeneration import (
    DegenerationInstance,
    SingularFamily,
    closure_invariants,
    load_rows,
    necessary_checks,
    orbit_dim,
    reachable_targets,
    row_numbers,
    verify_all,
    verify_instance,
    verify_row,
    witness_errata,
)
from tpa.verify import RIGIDITY_OPEN_LIST, rigidity_audit

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


def test_row_numbers():
    assert row_numbers() == list(range(1, 18))
    with pytest.raises(ValueError):
        verify_row(42)


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
        source=("T09", ("3", "t")), target=("T11", ("3",)),
        g_columns=(("1", "0", "0"), ("0", "1", "0"), ("t^-1", "0", "1")),
        post_witness=(("-1", "0", "0"), ("0", "-1", "0"), ("0", "0", "1")),
    )
    rep = verify_instance(inst)
    assert rep.matched == "via_post_witness"
    assert witness_errata([rep]) == [{"row": 99, "name": "sign-flip probe", "instance": 0}]


def test_missing_post_witness_fails():
    # the same sign-flipped probe without its tabulated witness: no search
    # stands in for the missing witness, so the row must fail loudly
    inst = DegenerationInstance(
        row=99, name="sign-flip probe",
        source=("T09", ("3", "t")), target=("T11", ("3",)),
        g_columns=(("1", "0", "0"), ("0", "1", "0"), ("t^-1", "0", "1")),
    )
    rep = verify_instance(inst)
    assert rep.matched == "failed"
    assert rep.checks is None


def test_singular_family_rejected():
    inst = DegenerationInstance(
        row=98, name="singular probe",
        source=("T05", ()), target=("T02", ()),
        g_columns=(("t", "0", "0"), ("t", "0", "0"), ("0", "0", "1")),
    )
    with pytest.raises(SingularFamily):
        verify_instance(inst)


def test_diverging_row_reported():
    # the alpha = t reading of the T09 row has a pole in the limit
    inst = DegenerationInstance(
        row=97, name="divergence probe",
        source=("T09", ("t", "1")), target=("T11", ("0",)),
        g_columns=(("1", "0", "0"), ("0", "1", "0"), ("-t^-1", "0", "1")),
    )
    rep = verify_instance(inst)
    assert rep.matched == "diverges"


def test_orbit_dims():
    assert orbit_dim(instantiate("T20")) == 9
    assert orbit_dim(instantiate("T01")) == 6
    zero = AlgebraPair(StructureConstants.zero(3), StructureConstants.zero(3))
    assert orbit_dim(zero) == 0


def test_necessary_checks_direction():
    t05, t02 = closure_invariants(instantiate("T05")), closure_invariants(instantiate("T02"))
    assert necessary_checks(t05, t02)["ok"]
    back = necessary_checks(t02, t05)
    assert not back["ok"] and not back["der_dim_ok"]


def test_necessary_checks_zero_component():
    t01 = closure_invariants(instantiate("T01"))
    t20 = closure_invariants(instantiate("T20"))
    rep = necessary_checks(t20, t01)
    assert not rep["bracket_span_nonincreasing"] or not rep["bracket_zero_component"]
    assert not rep["ok"]
    rep = necessary_checks(t01, t20)
    assert not rep["mul_zero_component"]
    assert not rep["ok"]


def test_necessary_checks_weak_for_families():
    # equal derivation dimensions pass only the weak (family) test
    t05 = closure_invariants(instantiate("T05"))
    assert necessary_checks(t05, t05, family_source=True)["der_dim_ok"]
    assert not necessary_checks(t05, t05)["der_dim_ok"]


def test_row_checks_are_necessary_checks():
    # a row's checks are the necessary_checks keys, AND-ed over its samples
    t05, t02 = closure_invariants(instantiate("T05")), closure_invariants(instantiate("T02"))
    keys = set(necessary_checks(t05, t02)) - {"der_dims"}
    for r in verify_all():
        assert set(r.checks) == keys, (r.row, r.instance)


def test_row_without_samples_rejected():
    # no rational point of the source curve means no evidence for the
    # closed conditions: the row is refused, not passed vacuously
    class Unsampled(DegenerationInstance):
        def t_samples(self):
            return []

    row1 = load_rows()[0]
    inst = Unsampled(**{f: getattr(row1, f) for f in row1.__dataclass_fields__})
    with pytest.raises(ValueError):
        verify_instance(inst)


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


def test_loaded_rows_have_notes_where_corrected():
    notes = {r.row: r.note for r in load_rows() if r.note}
    assert 12 in notes and "e1" in notes[12]
    assert 16 in notes and "e1" in notes[16]
    assert 10 in notes and 14 in notes


def test_data_file_schema_and_integrity():
    # documents are the standard algebra format extended with a family block,
    # and the embedded tensors must match the catalog instantiation
    import json
    from importlib import resources

    data = json.loads(
        resources.files("tpa.data").joinpath("degenerations.json").read_text()
    )
    assert len(data["rows"]) == 30
    for doc in data["rows"]:
        assert {"dim", "mul", "bracket", "family"} <= set(doc)
        assert {"row", "name", "g", "source", "target"} <= set(doc["family"])
        assert len(doc["family"]["g"]) == 3
    # the loader rejects tensors that disagree with the catalog
    from tpa.degeneration import _rows_from_data

    doc0 = json.loads(json.dumps(data["rows"][0]))
    doc0["mul"] = [[1, 1, 1, "1"]]
    with pytest.raises(ValueError):
        _rows_from_data({"rows": [doc0]})
