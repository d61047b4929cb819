import random
from fractions import Fraction as F

import pytest

from tpa import iso
from tpa.algebra import AlgebraPair, StructureConstants
from tpa.catalog import instantiate, known_isomorphisms, t_series_samples
from tpa.derivations import pair_derivations
from tpa.iso import catalog_fingerprint, distinguish, fingerprint, verify_witness
from tpa.linalg import DimensionMismatch, identity, inv
from tpa.scalars import QQ
from tpa.verify import SEPARATION_EXCEPTIONS, rigidity_audit, separation_audit


def test_identity_witness():
    a = instantiate("T05")
    assert verify_witness(a, a, identity(3, QQ))


def test_t09_paper_witness():
    a = instantiate("T09", [F(1, 2), F(1, 2)])
    b = instantiate("T09", [F(2), F(1)])
    m = [[F(1), F(1), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(2)]]
    assert verify_witness(a, b, m)
    assert verify_witness(b, a, inv(m, QQ))


def test_singular_witness_is_rejected():
    a = instantiate("T05")
    m = [[F(1), F(1), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    assert not verify_witness(a, a, m)


def test_witness_dimension_mismatch():
    a = instantiate("T05")
    with pytest.raises(DimensionMismatch):
        verify_witness(a, a, [[F(1)]])


def test_t10_t11_never_isomorphic_by_random_matrices():
    rng = random.Random(11)
    a = instantiate("T10", [F(3)])
    b = instantiate("T11", [F(3)])
    assert distinguish(a, b) == "proved_noniso"
    tried = 0
    while tried < 20:
        m = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        from tpa.linalg import det

        if not det(m, QQ):
            continue
        tried += 1
        assert not verify_witness(a, b, m)


def test_fingerprint_t20():
    fp = fingerprint(instantiate("T20"))._asdict()
    assert fp["dim_sq"] == 3
    assert fp["dim_br"] == 0
    assert fp["has_unit"] == 1
    assert fp["dim_der_pair"] == 0


def test_fingerprint_t01():
    fp = fingerprint(instantiate("T01"))._asdict()
    assert fp["dim_br"] == 3
    assert fp["dim_sq"] == 0
    assert fp["dim_der_pair"] == 3
    assert fp["dim_halfder_br"] == 1


def test_fingerprint_zero_pair():
    zero = AlgebraPair(StructureConstants.zero(3), StructureConstants.zero(3))
    fp = fingerprint(zero)._asdict()
    assert fp["dim_sq"] == fp["dim_br"] == fp["dim_span"] == fp["dim_cube"] == 0
    assert fp["dim_der_mul"] == fp["dim_der_br"] == fp["dim_der_pair"] == 9
    assert fp["dim_ann"] == fp["dim_center"] == 3
    assert fp["has_unit"] == 0


def test_distinguish_t02_t03():
    a = instantiate("T02")
    b = instantiate("T03", [F(1)])
    assert distinguish(a, b) == "proved_noniso"
    # the separating component is the product annihilator: 2 vs 1
    fa = fingerprint(a)._asdict()
    fb = fingerprint(b)._asdict()
    assert fa["dim_ann"] == 2 and fb["dim_ann"] == 1


def test_distinguish_isomorphic_members_unknown():
    a = instantiate("T03", [F(2)])
    b = instantiate("T03", [F(-2)])
    assert distinguish(a, b) == "unknown"
    assert distinguish(a, a) == "unknown"


def test_separation_audit_exception_list():
    audit = separation_audit()
    assert audit["within_exception_list"]
    for a, _, b, _ in audit["unseparated_cross_family"]:
        assert frozenset({a, b}) in SEPARATION_EXCEPTIONS


def test_t11_t12_blind_spot_is_real():
    # the known fingerprint collision: T11 over the weight-2 bracket vs T12^0
    a = instantiate("T11", [F(2)])
    b = instantiate("T12", [F(0)])
    assert fingerprint(a) == fingerprint(b)
    assert distinguish(a, b) == "unknown"


def test_catalog_fingerprint_is_fingerprint_of_instance():
    pairs = [pair for _, _, pair in t_series_samples()]
    for w in known_isomorphisms():
        pairs += [instantiate(*w.source), instantiate(*w.target)]
    assert len(pairs) == 70 + 2 * 76
    for pair in pairs:
        assert catalog_fingerprint(pair) == fingerprint(pair)


def test_catalog_fingerprint_keys_by_value():
    catalog_fingerprint.cache_clear()
    assert (catalog_fingerprint(instantiate("T03", (2,)))
            == catalog_fingerprint(instantiate("T03", (F(2),))))
    info = catalog_fingerprint.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


#: sampled catalog keys whose pairs differ only by a scale of the product
#: or of the bracket, grouped by their shared integer normal form
SCALED_GROUPS = [
    [("T03", (1,)), ("T03", (2,)), ("T03", (4,))],
    [("T03", (-1,)), ("T03", (-3,))],
    [("T07", (1,)), ("T07", (2,))],
    [("T19", (1,)), ("T19", (2,)), ("T19", (F(1, 2),))],
]


def test_scaled_keys_share_one_record():
    catalog_fingerprint.cache_clear()
    for group in SCALED_GROUPS:
        misses = catalog_fingerprint.cache_info().misses
        prints = {catalog_fingerprint(instantiate(*key)) for key in group}
        assert len(prints) == 1
        assert catalog_fingerprint.cache_info().misses == misses + 1
    assert catalog_fingerprint.cache_info().currsize == len(SCALED_GROUPS)


def test_fingerprint_runs_once_per_normal_form(monkeypatch):
    # the memo calls iso.fingerprint by name, so a wrapper bound there (as
    # the benchmark's tracer binds one) sees every miss and no hit
    calls = []

    def counted(pair):
        calls.append(pair)
        return fingerprint(pair)

    monkeypatch.setattr(iso, "fingerprint", counted)
    catalog_fingerprint.cache_clear()
    pairs = [pair for _, _, pair in t_series_samples()]
    for pair in pairs + pairs:
        catalog_fingerprint(pair)
    forms = {pair.primitive for pair in pairs}
    assert len(forms) == 64
    assert len(calls) == len(forms)
    assert set(calls) == forms


def test_fingerprint_reaches_pair_derivations_once(monkeypatch):
    # the benchmark's tracer counts Der(pair) through the name iso binds, and
    # fails a run that records no such call
    calls = []

    def counted(pair):
        calls.append(pair)
        return pair_derivations(pair)

    monkeypatch.setattr(iso, "pair_derivations", counted)
    pair = instantiate("T09", [F(2), F(1)])
    fingerprint(pair)
    assert calls == [pair.primitive]


def test_audits_share_fingerprints():
    # every rigidity-audit pair is a sampled T-series member, so after the
    # separation audit it costs no new fingerprint
    catalog_fingerprint.cache_clear()
    separation_audit()
    misses = catalog_fingerprint.cache_info().misses
    rigidity_audit([])
    assert catalog_fingerprint.cache_info().misses == misses
