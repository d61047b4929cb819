"""Acceptance gate: one test and one printed pass/fail line per criterion.

All comparisons are exact (rational arithmetic end to end).  The whole
suite is also what `tpa verify-paper` runs; its exit code agrees with
this module by construction.

Criterion 5 is reported red by design: the printed non-strong-D-special
list contains the T03 family with nonzero parameter, but for beta != 0
D = diag(1/(2 beta), -1/(2 beta), 0) is a derivation of T03's own product
e1.e2 = beta e3 whose derived bracket is T03's bracket (and the verified
D08 ~ T03 witness of criterion 4 forces the same conclusion), so the list
as printed cannot hold.  The criterion-5 test pins why it is red: the
refuting samples are exactly the nonzero T03 samples, each with a
derivation checked here independently of the solver, and no other claim
of the criterion fails.  See also the erratum list emitted by the suite.
"""

from fractions import Fraction

import pytest

from tpa import verify
from tpa.catalog import instantiate, sample_params
from tpa.derivations import derivation_residual
from tpa.dspecial import derived_bracket
from tpa.verify import run_suite


@pytest.fixture(scope="module")
def suite():
    return run_suite()


def _criterion(suite, cid):
    return next(c for c in suite["criteria"] if c["criterion"] == cid)


def _report(name, ok, detail=""):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


def test_criterion_1_axiom_suite(suite):
    c = _criterion(suite, "1-axioms")
    _report("1 (axiom suite, T01..T30 + T07 Leibniz failure)", c["pass"])
    claim = c["claims"][0]
    assert claim["identity_failures"] == []
    assert claim["t07_leibniz_unexpectedly_holds"] == []
    assert c["pass"]


def test_criterion_2_halfder_table(suite):
    c = _criterion(suite, "2-halfder-table")
    _report("2 (half-derivation dimension table)", c["pass"])
    table = {(row["lie"], tuple(row["params"])): row["dim"]
             for row in c["claims"][0]["table"]}
    assert table[("g1", ())] == 3
    assert table[("sl2", ())] == 1
    for a in ("-2", "-1", "3", "5"):
        assert table[("g2", (a,))] == 3
    for a in ("0", "1/2", "2"):
        assert table[("g2", (a,))] == 4
    assert c["pass"]


def test_criterion_3_enumeration(suite):
    c = _criterion(suite, "3-enumeration")
    _report("3 (product families and associativity zero-sets)", c["pass"])
    claim = c["claims"][0]
    assert claim["family_dims"] == {"g1": 3, "g2_generic": 3, "g2_2": 5, "g2_0": 5}
    assert claim["g1_grid_residual_zero"]
    assert claim["g2_2_points"]["sat"] >= 10 and claim["g2_2_points"]["viol"] >= 10
    assert claim["g2_0_points"]["sat"] >= 10 and claim["g2_0_points"]["viol"] >= 10
    assert claim["g2_2_zero_set_matches"] and claim["g2_0_zero_set_matches"]
    assert c["pass"]


def test_criterion_4_witnesses(suite):
    c = _criterion(suite, "4-witnesses")
    _report("4 (isomorphism witnesses + fingerprint agreement)", c["pass"])
    claim = c["claims"][0]
    assert claim["count"] >= 60
    assert claim["failures"] == []
    assert claim["fingerprint_mismatches"] == []
    assert c["pass"]


def test_criterion_5_strong_d_special(suite):
    c = _criterion(suite, "5-strong-d-special")
    by_id = {cl["id"]: cl for cl in c["claims"]}
    detail = "known red clause: negative list as printed (T03 counterexample)"
    _report("5 (strong D-special lists)", c["pass"], "" if c["pass"] else detail)
    assert by_id["vanishing-bracket-lemmas"]["pass"]
    assert by_id["strong-special-partition"]["pass"]
    assert by_id["derivation-family-reconstructions"]["pass"]
    # the printed negative list is refuted exactly by T03 with nonzero
    # parameter (see module docstring); nothing else in it is special
    neg = by_id["negative-list-as-printed"]
    expected = [["T03", [str(p) for p in params]]
                for params in sample_params("T03") if params[0] != 0]
    found = [[cx["id"], cx["params"]] for cx in neg["counterexamples"]]
    assert expected and found == expected
    for cx in neg["counterexamples"]:
        pair = instantiate("T03", [Fraction(p) for p in cx["params"]])
        d = [[Fraction(v) for v in row] for row in cx["derivation"]]
        assert not derivation_residual(pair.mul, d, 1), cx
        assert derived_bracket(pair.mul, d).c == pair.bracket.c, cx
    failing = [cl["id"] for cl in c["claims"] if not cl["pass"]]
    assert failing == ["negative-list-as-printed"]
    assert c["pass"] is False


def test_criterion_6_novikov(suite):
    c = _criterion(suite, "6-novikov")
    _report("6 (Novikov commutator checks)", c["pass"])
    claim = c["claims"][0]
    assert claim["np01_witness_verifies"]
    assert claim["np01_witness_by_search"] is not None
    assert claim["np02_commutator_values"] and claim["np02_sample_count"] >= 5
    assert claim["n02_obstruction"]["all_pass"]
    assert c["pass"]


def test_criterion_7_degenerations(suite):
    c = _criterion(suite, "7-degenerations")
    _report("7 (degeneration table, 17 rows)", c["pass"])
    claim = c["claims"][0]
    assert claim["unverified"] == []
    assert claim["failed_checks"] == []
    assert claim["orbit_dim_T20"] == 9
    assert c["pass"]


def test_criterion_8_property_suites(suite):
    c = _criterion(suite, "8-properties")
    _report("8 (randomized property suites)", c["pass"])
    claim = c["claims"][0]
    assert claim["gl_invariance_100_matrices"]
    assert claim["right_multiplications_are_half_derivations"]
    assert claim["derived_brackets_are_transposed_poisson"]
    assert claim["limit_at_zero_homomorphism_200_pairs"]
    assert c["pass"]


def test_suite_audits_and_errata(suite):
    # audits stay within their frozen exception lists, and the run reports
    # the detected table defects
    assert suite["separation_audit"]["within_exception_list"]
    assert suite["rigidity_audit"]["within_open_list"]
    subjects = {e["subject"] for e in suite["errata"]}
    assert "non-strong-D-special list" in subjects
    assert "2-dimensional exceptional pair N02" in subjects


def test_overall_flag_matches_criteria(suite):
    assert suite["pass"] == all(c["pass"] for c in suite["criteria"])
