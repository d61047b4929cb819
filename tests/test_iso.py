import random
from fractions import Fraction as F

import pytest

from tpa.algebra import AlgebraPair, StructureConstants
from tpa.catalog import instantiate, known_isomorphisms, t_series_samples
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
    keys = [(tid, params) for tid, params, _ in t_series_samples()]
    for w in known_isomorphisms():
        keys += [w.source, w.target]
    assert len(keys) == 70 + 2 * 76
    for tid, params in keys:
        assert catalog_fingerprint(tid, params) == fingerprint(instantiate(tid, params))


def test_catalog_fingerprint_keys_by_value():
    catalog_fingerprint.cache_clear()
    assert catalog_fingerprint("T03", (2,)) == catalog_fingerprint("T03", (F(2),))
    info = catalog_fingerprint.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_audits_share_fingerprints():
    # every rigidity-audit pair is a sampled T-series member, so after the
    # separation audit it costs no new fingerprint
    catalog_fingerprint.cache_clear()
    separation_audit()
    misses = catalog_fingerprint.cache_info().misses
    rigidity_audit([])
    assert catalog_fingerprint.cache_info().misses == misses
