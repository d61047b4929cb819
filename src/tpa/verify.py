"""The one-shot reproduction suite.

Runs every tabulated claim of the bundled classification: the axiom
checks for the whole T-series, the half-derivation dimension table, the
product-family enumeration with its associativity zero-sets, all
isomorphism witnesses, the strong-D-special lists, the Novikov
commutator checks, the full degeneration table, and the randomized
property suites.  Returns one record per claim plus an erratum list for
the table defects the run detects.

Deterministic: the randomized parts (criteria 3 and 8) draw from the
fixed ``SEED``.

Criterion 8 reads nothing the others compute, so ``run_suite`` runs it
in a forked child beside the table pass and criteria 1-7 (inline where
forking is unsafe); every ``CRITERIA`` callable still runs once, in
order, in the calling process.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import threading
import zlib
from fractions import Fraction

from . import degeneration, linalg
from .algebra import (
    TRANSPOSED_POISSON_AXIOMS,
    AlgebraPair,
    StructureConstants,
    check_identity,
    is_transposed_poisson,
    operator_matrix,
    transport,
)
from .catalog import (
    CATALOG,
    NEGATIVE_LIST,
    VANISHING_COMM2,
    VANISHING_COMM3,
    instantiate,
    known_isomorphisms,
    sample_params,
    t_series_samples,
)
from .derivations import delta_derivations, derivation_residual
from .dspecial import (
    DERIVATION_FAMILIES,
    brackets_all_zero,
    derived_bracket,
    derivation_matching_bracket,
    n02_obstruction_report,
    novikov_commutator_pair,
)
from .enumeration import tp_family
from .iso import catalog_fingerprint, verify_witness
from .scalars import QQ, RatFunc

F = Fraction

#: strong-D-special status computed over the nontrivial T-series; the
#: printed negative list differs (see the erratum emitted by the run)
COMPUTED_NEGATIVE = {
    "T02": "all",
    "T04": "zero",   # only the beta = 0 member
    "T08": "all",
    "T10": "all",
    "T11": "all",
    "T12": "zero",
    "T13": "all",
    "T14": "all",
    "T15": "all",
    "T16": "all",
    "T17": "zero",
    "T18": "all",
}


#: the commutative associative entries, A01-A11 then A2_01-A2_04
COMM_IDS = tuple(cid for cid, e in CATALOG.items() if e.kind == "comm")


#: the seed of criterion 3's draws; criterion 8 draws from ``SEED ^ 0x9E3779B9``
SEED = zlib.crc32(b"paper")


def _claim(cid, ok, **details):
    out = {"id": cid, "pass": bool(ok)}
    out.update(details)
    return out


# ---------------------------------------------------------------------------
# criterion 1: axiom suite over the whole T-series
# ---------------------------------------------------------------------------

def claim_axioms():
    failures = []
    leibniz_failures_needed = []
    for tid, params, pair in t_series_samples():
        for which in TRANSPOSED_POISSON_AXIOMS:
            rep = check_identity(pair, which)
            if not rep.holds:
                failures.append((tid, [str(p) for p in params], which))
        if tid == "T07" and params[0] != 0:
            if check_identity(pair, "leibniz").holds:
                leibniz_failures_needed.append((tid, str(params[0])))
    ok = not failures and not leibniz_failures_needed
    return _claim("axiom-suite", ok, identity_failures=failures,
                  t07_leibniz_unexpectedly_holds=leibniz_failures_needed)


# ---------------------------------------------------------------------------
# criterion 2: half-derivation dimension table
# ---------------------------------------------------------------------------

HALFDER_TABLE = (
    ("g1", (), 3),
    ("g2", (F(-2),), 3),
    ("g2", (F(-1),), 3),
    ("g2", (F(3),), 3),
    ("g2", (F(5),), 3),
    ("g2", (F(0),), 4),
    ("g2", (F(1, 2),), 4),
    ("g2", (F(2),), 4),
    ("sl2", (), 1),
)


def claim_halfder_dims():
    got = []
    ok = True
    for lid, params, expected in HALFDER_TABLE:
        dim = delta_derivations(instantiate(lid, params).bracket, F(1, 2)).dim
        got.append({"lie": lid, "params": [str(p) for p in params],
                    "dim": dim, "expected": expected})
        ok = ok and dim == expected
    return _claim("halfder-dimension-table", ok, table=got)


# ---------------------------------------------------------------------------
# criterion 3: product families and associativity zero-sets
# ---------------------------------------------------------------------------

def g1_family_product(b31, b32, b33):
    return StructureConstants.from_entries(3, [
        (1, 3, 1, b33), (2, 3, 2, b33),
        (3, 3, 1, b31), (3, 3, 2, b32), (3, 3, 3, b33),
    ], symmetrize="sym")


def g2_2_family_product(b12_1, b32_1, b31_3, b32_3, b33_3):
    return StructureConstants.from_entries(3, [
        (1, 1, 2, b12_1),
        (1, 3, 1, b33_3), (1, 3, 2, b32_1),
        (2, 3, 2, b33_3),
        (3, 3, 1, b31_3), (3, 3, 2, b32_3), (3, 3, 3, b33_3),
    ], symmetrize="sym")


def g2_2_assoc_condition(b12_1, b32_1, b31_3, b32_3, b33_3):
    return b31_3 * b12_1 == b32_1 * b33_3


def g2_0_family_product(b22_2, b22_3, b31_3, b32_3, b33_3):
    return StructureConstants.from_entries(3, [
        (1, 1, 2, b22_2), (1, 2, 2, -b22_2), (2, 2, 2, b22_2),
        (1, 3, 1, b33_3), (1, 3, 2, b33_3 - b22_3),
        (2, 3, 2, b22_3),
        (3, 3, 1, b31_3), (3, 3, 2, b32_3), (3, 3, 3, b33_3),
    ], symmetrize="sym")


def g2_0_assoc_condition(b22_2, b22_3, b31_3, b32_3, b33_3):
    return b22_3 * b22_3 - b33_3 * b22_3 + (b31_3 - b32_3) * b22_2 == 0


def _rand_fraction(rng, span=6):
    return F(rng.randint(-span, span), rng.randint(1, 4))


def _associative(prod, lie):
    """Whether the member ``prod`` of the family on ``lie`` is associative,
    read off the integer normal form: the question is scale-invariant."""
    return check_identity(AlgebraPair(prod, lie).primitive, "associative").holds


def claim_enumeration():
    rng = random.Random(SEED)
    details = {}
    ok = True

    dims = {}
    families = {}
    for key, lid, params, expected in (
        ("g1", "g1", (), 3),
        ("g2_generic", "g2", (F(3),), 3),
        ("g2_2", "g2", (F(2),), 5),
        ("g2_0", "g2", (F(0),), 5),
    ):
        fam = tp_family(instantiate(lid, params).bracket)
        families[key] = fam
        dims[key] = fam.dim
        ok = ok and fam.dim == expected
    details["family_dims"] = dims

    # g1: residual vanishes identically on a random grid
    g1_ok = True
    fam = families["g1"]
    for _ in range(20):
        prod = g1_family_product(*(_rand_fraction(rng) for _ in range(3)))
        if fam.space.coords_of(prod.c) is None or not _associative(prod, fam.lie):
            g1_ok = False
    details["g1_grid_residual_zero"] = g1_ok
    ok = ok and g1_ok

    def zero_set_check(key, make_product, condition, satisfying, violating):
        fam = families[key]
        good = True
        for kind, pts in (("sat", satisfying), ("viol", violating)):
            for pt in pts:
                prod = make_product(*pt)
                if fam.space.coords_of(prod.c) is None:
                    good = False
                    continue
                zero = _associative(prod, fam.lie)
                if kind == "sat" and not (condition(*pt) and zero):
                    good = False
                if kind == "viol" and (condition(*pt) or zero):
                    good = False
        details[f"{key}_points"] = {"sat": len(satisfying), "viol": len(violating)}
        details[f"{key}_zero_set_matches"] = good
        return good

    sat, viol = [], []
    while len(sat) < 10:
        b12, b31, b33 = (_rand_fraction(rng) for _ in range(3))
        if b33 == 0:
            continue
        b32 = QQ.div(b31 * b12, b33)
        sat.append((b12, b32, b31, _rand_fraction(rng), b33))
    sat.append((F(1), F(0), F(0), F(2), F(0)))  # the b33 = 0 branch
    while len(viol) < 10:
        pt = tuple(_rand_fraction(rng) for _ in range(5))
        if not g2_2_assoc_condition(*pt):
            viol.append(pt)
    ok = zero_set_check("g2_2", g2_2_family_product, g2_2_assoc_condition, sat, viol) and ok

    sat, viol = [], []
    while len(sat) < 10:
        b22_2, b22_3, b31, b33 = (_rand_fraction(rng) for _ in range(4))
        if b22_2 == 0:
            continue
        b32 = b31 + QQ.div(b22_3 * b22_3 - b33 * b22_3, b22_2)
        sat.append((b22_2, b22_3, b31, b32, b33))
    sat.append((F(0), F(0), F(1), F(2), F(3)))  # b22 = 0 branch
    while len(viol) < 10:
        pt = tuple(_rand_fraction(rng) for _ in range(5))
        if not g2_0_assoc_condition(*pt):
            viol.append(pt)
    ok = zero_set_check("g2_0", g2_0_family_product, g2_0_assoc_condition, sat, viol) and ok

    return _claim("enumeration-families", ok, **details)


# ---------------------------------------------------------------------------
# criterion 4: isomorphism witnesses
# ---------------------------------------------------------------------------

def claim_witnesses():
    failures, fp_mismatch = [], []
    witnesses = known_isomorphisms()
    for w in witnesses:
        a = instantiate(*w.source)
        b = instantiate(*w.target)
        if not verify_witness(a, b, w.matrix):
            failures.append({"name": w.name,
                             "source": [w.source[0], [str(p) for p in w.source[1]]],
                             "target": [w.target[0], [str(p) for p in w.target[1]]]})
        elif catalog_fingerprint(a) != catalog_fingerprint(b):
            fp_mismatch.append(w.name)
    ok = not failures and not fp_mismatch
    return _claim("isomorphism-witnesses", ok, count=len(witnesses),
                  failures=failures, fingerprint_mismatches=fp_mismatch)


# ---------------------------------------------------------------------------
# criterion 5: strong D-special lists
# ---------------------------------------------------------------------------

def _nontrivial_derivations():
    """(id, params, derivation or None) for every nontrivial T-series
    sample."""
    return [(tid, params, derivation_matching_bracket(pair.mul, pair.bracket))
            for tid, params, pair in t_series_samples()
            if not (pair.mul.is_zero() or pair.bracket.is_zero())]


def claim_vanishing_lemmas():
    vanishing = VANISHING_COMM3 + VANISHING_COMM2
    wrong = [aid for aid in COMM_IDS
             if brackets_all_zero(instantiate(aid).mul) != (aid in vanishing)]
    return _claim("vanishing-bracket-lemmas", not wrong, mismatches=wrong)


def claim_negative_list_as_printed(solved):
    """The printed non-strong-D-special list, taken literally: T03 is
    restricted to nonzero parameter values, families to all samples."""
    counterexamples = []
    checked = 0
    for tid, params, d in solved:
        if tid not in NEGATIVE_LIST or (tid == "T03" and params[0] == 0):
            continue
        checked += 1
        if d is not None:
            counterexamples.append({
                "id": tid, "params": [str(p) for p in params],
                "derivation": [[str(v) for v in row] for row in d],
            })
    return _claim("negative-list-as-printed", not counterexamples,
                  checked=checked, counterexamples=counterexamples)


def claim_strong_special_partition(solved):
    """Computed strong-D-special status over every nontrivial T-series
    sample against the corrected partition."""
    mismatches = []
    for tid, params, d in solved:
        special = d is not None
        neg = COMPUTED_NEGATIVE.get(tid)
        expected_negative = neg == "all" or (neg == "zero" and params[0] == 0)
        if special == expected_negative:
            mismatches.append({"id": tid, "params": [str(p) for p in params],
                               "strong_d_special": special})
    return _claim("strong-special-partition", not mismatches, mismatches=mismatches)


def claim_positive_reconstructions():
    """Each strong D-special family arises as the derived bracket of its
    commutative algebra with the tabulated derivation."""
    failures = []
    for fid, (comm_id, build) in DERIVATION_FAMILIES.items():
        for params in sample_params(fid):
            comm = instantiate(comm_id).mul
            got = derived_bracket(comm, build(*params))
            want = instantiate(fid, params).bracket
            if got.c != want.c:
                failures.append({"family": fid, "params": [str(p) for p in params]})
            if not is_transposed_poisson(AlgebraPair(comm, got)):
                failures.append({"family": fid, "params": [str(p) for p in params],
                                 "reason": "not transposed Poisson"})
    return _claim("derivation-family-reconstructions", not failures, failures=failures)


def strong_d_special_claims():
    """Criterion 5; each nontrivial sample is solved once for both lists."""
    vanishing = claim_vanishing_lemmas()
    solved = _nontrivial_derivations()
    return [vanishing, claim_negative_list_as_printed(solved),
            claim_strong_special_partition(solved), claim_positive_reconstructions()]


# ---------------------------------------------------------------------------
# criterion 6: Novikov commutator checks
# ---------------------------------------------------------------------------

def claim_novikov():
    details = {}
    n01 = instantiate("N01")
    comm_pair = novikov_commutator_pair("NP01")
    witness = [[0, 1], [-1, 0]]  # e1 -> -e2, e2 -> e1
    details["np01_witness_verifies"] = verify_witness(comm_pair, n01, witness)

    span = (QQ.coerce(-1), QQ.coerce(0), QQ.coerce(1))
    found = next(
        ([[str(a), str(b)], [str(c), str(d)]]
         for a, b, c, d in itertools.product(span, repeat=4)
         if a * d - b * c and verify_witness(comm_pair, n01, [[a, b], [c, d]])),
        None,
    )
    details["np01_witness_by_search"] = found

    obstruction = n02_obstruction_report()
    value_ok = (obstruction["commutator_in_span_e1"]
                and obstruction["commutator_value_matches"])
    details["np02_commutator_values"] = value_ok
    details["np02_sample_count"] = len(sample_params("NP02"))
    details["n02_obstruction"] = obstruction
    ok = (details["np01_witness_verifies"] and found is not None and value_ok
          and obstruction["all_pass"])
    return _claim("novikov-commutators", ok, **details)


# ---------------------------------------------------------------------------
# criterion 7: the degeneration table
# ---------------------------------------------------------------------------

def claim_degenerations(reports):
    """Criterion 7 over the table reports of ``degeneration.verify_all``."""
    unverified = [
        {"row": r.row, "instance": r.instance, "matched": r.matched}
        for r in reports if not r.verified
    ]
    bad_checks = [
        {"row": r.row, "instance": r.instance, "checks": r.checks}
        for r in reports if r.verified and not r.checks["ok"]
    ]
    t20_orbit = degeneration.orbit_dim(instantiate("T20"))
    coverage = {}
    for r in reports:
        if r.verified:
            coverage.setdefault(r.target[0], r.source[0])
    ok = not unverified and not bad_checks and t20_orbit == 9
    return _claim(
        "degeneration-table", ok,
        instances=len(reports), unverified=unverified, failed_checks=bad_checks,
        orbit_dim_T20=t20_orbit,
        witness_errata=degeneration.witness_errata(reports),
        realized_source_per_target=coverage,
    )


def rigidity_audit(reports):
    """Consistency audit for the five orbit-closure components: nothing in
    the verified table (``reports``) reaches a generic member from outside
    its family, and the closed necessary conditions block every other
    catalog source.  Sources that slip past the necessary conditions are
    reported, not asserted impossible."""
    verified_targets = {rep.target for rep in reports if rep.verified}
    open_list = []
    table_hits = []
    members = [(mid, mp, catalog_fingerprint(instantiate(mid, mp)))
               for mid, mp in degeneration.rigid_component_members()]
    sources = [(sid, sp, catalog_fingerprint(pair)) for sid, sp, pair in t_series_samples()]
    for sid, sparams, sinv in sources:
        for mid, mparams, minv in members:
            if sid == mid:
                continue
            if (mid, mparams) in verified_targets:
                table_hits.append({"source": sid, "member": mid})
                continue
            checks = degeneration.necessary_checks(sinv, minv)
            if checks["ok"]:
                open_list.append({
                    "source": [sid, [str(p) for p in sparams]],
                    "member": [mid, [str(p) for p in mparams]],
                })
    within = all((o["source"][0], o["member"][0]) in RIGIDITY_OPEN_LIST
                 for o in open_list)
    return {"table_reaches_component_member": table_hits,
            "open_list": open_list,
            "within_open_list": within}


# ---------------------------------------------------------------------------
# criterion 8: randomized property suites
# ---------------------------------------------------------------------------

GL_SUITE_ENTRIES = (
    ("T01", ()), ("T03", (F(2),)), ("T05", ()), ("T07", (F(1),)),
    ("T09", (F(2), F(1))), ("T11", (F(3),)), ("T13", ()), ("T17", (F(1),)),
    ("T19", (F(1),)), ("T29", ()),
)


def _random_invertible(rng, n):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.det(m, QQ):
            return m


def claim_properties():
    rng = random.Random(SEED ^ 0x9E3779B9)
    details = {}

    gl_ok = True
    for tid, params in GL_SUITE_ENTRIES:
        pair = instantiate(tid, params)
        tp = is_transposed_poisson(pair)
        for _ in range(10):
            g = _random_invertible(rng, 3)
            if is_transposed_poisson(transport(pair, g)) != tp:
                gl_ok = False
    details["gl_invariance_100_matrices"] = gl_ok

    rmul_ok = True
    for tid, params, pair in t_series_samples():
        for z in range(pair.dim):
            if derivation_residual(pair.bracket, operator_matrix(pair.mul, z), F(1, 2)):
                rmul_ok = False
    details["right_multiplications_are_half_derivations"] = rmul_ok

    derived_ok = True
    for aid in COMM_IDS:
        comm = instantiate(aid).mul
        for dmat in delta_derivations(comm, 1).basis:
            pair = AlgebraPair(comm, derived_bracket(comm, dmat))
            if not is_transposed_poisson(pair):
                derived_ok = False
    details["derived_brackets_are_transposed_poisson"] = derived_ok

    lim_ok = True
    for _ in range(200):
        f = _random_ratfunc(rng)
        g = _random_ratfunc(rng)
        if (f * g).limit_at_zero() != f.limit_at_zero() * g.limit_at_zero():
            lim_ok = False
        if (f + g).limit_at_zero() != f.limit_at_zero() + g.limit_at_zero():
            lim_ok = False
    details["limit_at_zero_homomorphism_200_pairs"] = lim_ok

    ok = gl_ok and rmul_ok and derived_ok and lim_ok
    return _claim("property-suites", ok, **details)


def _random_ratfunc(rng):
    num = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
    den = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
    den[0] = F(rng.choice([1, 2, 3, -1, -2]))  # finite at t = 0
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# separation audit (distinguish over the whole sampled T-series)
# ---------------------------------------------------------------------------

#: cross-family pairs the fingerprint provably cannot separate: T11 over
#: the bracket with weight 2 (parameter 2 or 1/2) collides with T12^0 in
#: every invariant; the classification separates them by orbit analysis.
SEPARATION_EXCEPTIONS = frozenset({frozenset({"T11", "T12"})})

#: source -> component pairs the closed necessary conditions cannot rule
#: out (both are rigid families; no table row connects them)
RIGIDITY_OPEN_LIST = frozenset({("T12", "T09")})


def separation_audit():
    """Pairwise `distinguish` over the sampled T-series.  Unseparated pairs
    must stay within one parametric family, up to SEPARATION_EXCEPTIONS."""
    samples = t_series_samples()
    prints = [(tid, params, catalog_fingerprint(pair)) for tid, params, pair in samples]
    cross_family = []
    same_family = 0
    for i in range(len(prints)):
        for j in range(i + 1, len(prints)):
            if prints[i][2] == prints[j][2]:
                if prints[i][0] == prints[j][0]:
                    same_family += 1
                else:
                    cross_family.append(
                        (prints[i][0], [str(p) for p in prints[i][1]],
                         prints[j][0], [str(p) for p in prints[j][1]])
                    )
    within = all(
        frozenset({a, b}) in SEPARATION_EXCEPTIONS
        for a, _, b, _ in cross_family
    )
    return {"unseparated_same_family": same_family,
            "unseparated_cross_family": cross_family,
            "within_exception_list": within}


# ---------------------------------------------------------------------------
# the erratum list and the runner
# ---------------------------------------------------------------------------

def erratum_list(results):
    errata = [
        {
            "subject": "degeneration row T12^t -> T14",
            "note": "printed third basis vector drops e1 from the t^-1 term; "
                    "verified with -t^-1 e1 + t^-2 e2 + e3",
        },
        {
            "subject": "degeneration row T17^t -> T18",
            "note": "printed third basis vector drops e1 from the first t^-1 "
                    "term; verified with -t^-1 e1 - t^-1 e2 + e3",
        },
        {
            "subject": "witness A02^{0,b} ~ T05",
            "note": "printed third basis vector -b^2 e3 fails; +b^2 e3 verifies",
        },
        {
            "subject": "strong D-special table",
            "note": "two distinct families are both labelled D06; the second "
                    "(on the algebra with e1 unit and one further generator) "
                    "is carried here as D06b",
        },
        {
            "subject": "derivations of the product e1.e2 = e3",
            "note": "the derivation family lists D(e3) twice; the first line "
                    "should constrain D(e1) (solver-computed basis is used)",
        },
    ]
    n02 = check_identity(instantiate("N02"), "transposed_leibniz")
    if not n02.holds:
        x, y, z = n02.violations[0][0]
        errata.append({
            "subject": "2-dimensional exceptional pair N02",
            "note": "as printed it fails the transposed compatibility rule at "
                    f"(e{x}, e{y}, e{z}); every compatible product on its bracket has "
                    "e2.e2 = 0.  The span obstruction against strong "
                    "speciality verifies on the printed data regardless",
        })
    neg = next(r for r in results if r["id"] == "negative-list-as-printed")
    if neg["counterexamples"]:
        errata.append({
            "subject": "non-strong-D-special list",
            "note": "T03 with nonzero parameter is strong D-special (an "
                    "explicit derivation of its own product reproduces the "
                    "bracket; consistent with the verified D08 ~ T03 "
                    "identification), so the printed list is inconsistent",
            "counterexamples": neg["counterexamples"][:2],
        })
    part = next(r for r in results if r["id"] == "strong-special-partition")
    if part["pass"]:
        errata.append({
            "subject": "non-strong-D-special list",
            "note": "the computed negative list additionally contains the "
                    "zero-parameter members T04^0, T12^0 and T17^0, which "
                    "the printed list omits",
        })
    return errata


#: (criterion id, callable taking the degeneration table reports and a
#: zero-argument function that returns criterion 8's claim)
CRITERIA = (
    ("1-axioms", lambda table, properties: [claim_axioms()]),
    ("2-halfder-table", lambda table, properties: [claim_halfder_dims()]),
    ("3-enumeration", lambda table, properties: [claim_enumeration()]),
    ("4-witnesses", lambda table, properties: [claim_witnesses()]),
    ("5-strong-d-special", lambda table, properties: strong_d_special_claims()),
    ("6-novikov", lambda table, properties: [claim_novikov()]),
    ("7-degenerations", lambda table, properties: [claim_degenerations(table)]),
    ("8-properties", lambda table, properties: [properties()]),
)


@contextlib.contextmanager
def _forked(fn):
    """Yield a function that returns ``fn()``, computed in a child forked
    here, or raises its exception with the same type and message.  A child
    not yet joined when the block exits is killed and reaped.  Where
    forking is unsafe (no ``os.fork``, or other threads running) yield
    ``fn`` itself, to run inline."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        yield fn
        return
    import pickle
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # leaves only by os._exit: no return, atexit or stdio flush
        status = 1
        try:
            os.close(read)
            try:
                outcome = (True, fn())
            except BaseException as exc:
                outcome = (False, exc)
            try:
                pickle.loads(data := pickle.dumps(outcome))
            except Exception:
                data = pickle.dumps((False, ChildProcessError(repr(outcome[1]))))
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    code = None

    def join():
        nonlocal code
        with open(read, "rb", closefd=False) as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if not data:
            raise ChildProcessError(f"child {pid} left no result (exit status {code})")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    try:
        yield join
    finally:
        os.close(read)
        if code is None:
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_suite():
    """Every criterion in order, then the errata and the two audits;
    criterion 8 runs beside the table pass and criteria 1-7 (``_forked``)."""
    with _forked(claim_properties) as properties:
        table = degeneration.verify_all()
        criteria = []
        results = []
        for cid, run in CRITERIA:
            claims = run(table, properties)
            results.extend(claims)
            criteria.append({
                "criterion": cid,
                "pass": all(c["pass"] for c in claims),
                "claims": claims,
            })
    out = {
        "criteria": criteria,
        "pass": all(c["pass"] for c in criteria),
        "errata": erratum_list(results),
        "separation_audit": separation_audit(),
        "rigidity_audit": rigidity_audit(table),
    }
    return out
