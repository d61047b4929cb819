"""Generators for every named algebra in the classification tables.

Each entry is declared once, in ``CATALOG``: its id, kind, dimension and
table, with its parameter names, sample pool and alternative name where
it has them.  A table maps the parameters to (product rows, second rows),
1-based (i, j, k, coeff) items.  Tables list each unordered product once;
``instantiate`` symmetrizes the product and antisymmetrizes the bracket.
Parameters are exact scalars (rationals normally, rational functions in t
when a degeneration row substitutes a curve into a family parameter).

Entry kinds:
  tp    transposed Poisson pair (product + bracket)
  lie   Lie algebra (zero product)
  comm  commutative associative algebra (zero bracket)
  np    commutative product paired with a Novikov product: the second
        component is NOT a bracket, its rows are ordered and kept as
        written (only its commutator is used)
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .algebra import AlgebraPair, StructureConstants
from .scalars import QQ, excerpt_repr

F = Fraction


class UnknownId(ValueError):
    pass


class InadmissibleParameter(ValueError):
    pass


#: ``table`` maps the parameters to (product rows, second rows); ``samples``
#: is the deterministic pool, special values first; ``last_nonzero`` marks a
#: family admissible only where its last parameter is nonzero
CatalogEntry = namedtuple(
    "CatalogEntry", "id kind dim table param_names samples alt_name last_nonzero",
    defaults=((), ((),), None, False))


# -- Lie brackets ------------------------------------------------------------

_H = [(1, 2, 3, 1)]
_G1 = [(1, 3, 1, 1), (2, 3, 2, 1)]
_SL2 = [(1, 2, 3, 1), (1, 3, 2, -1), (2, 3, 1, 1)]


def _g2(a):
    return [(1, 3, 1, 1), (1, 3, 2, 1), (2, 3, 2, a)]


def _scaling(b):
    # e_i.e_3 = b e_i (i = 1, 2), e_3.e_3 = b e_3
    return [(1, 3, 1, b), (2, 3, 2, b), (3, 3, 3, b)]


# -- commutative associative algebras, 3- and 2-dimensional -------------------

_COMM3 = {
    "A01": [(1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 3, 1)],
    "A02": [(1, 1, 1, 1), (2, 2, 2, 1), (1, 3, 3, 1)],
    "A03": [(1, 1, 1, 1), (2, 2, 2, 1)],
    "A04": [(1, 1, 1, 1), (1, 2, 2, 1), (1, 3, 3, 1), (2, 2, 3, 1)],
    "A05": [(1, 1, 1, 1), (1, 2, 2, 1), (1, 3, 3, 1)],
    "A06": [(1, 1, 1, 1), (1, 2, 2, 1)],
    "A07": [(1, 1, 1, 1), (2, 2, 3, 1)],
    "A08": [(1, 1, 1, 1)],
    "A09": [(1, 1, 2, 1), (1, 2, 3, 1)],
    "A10": [(1, 2, 3, 1)],
    "A11": [(1, 1, 2, 1)],
}

_COMM2 = {
    "A2_01": [(1, 1, 1, 1), (2, 2, 2, 1)],
    "A2_02": [(1, 1, 1, 1), (1, 2, 2, 1)],
    "A2_03": [(1, 1, 1, 1)],
    "A2_04": [(1, 1, 2, 1)],
}


# -- derivation-built families (strong D-special list) ------------------------
#
# Each family is a commutative catalog algebra together with the bracket
# induced by its general derivation; the D-series of the classification is
# the normalized list, the DA-series keep the full parameter space.

def _da02(a, b):
    return _COMM3["A04"], [(1, 2, 2, a), (1, 2, 3, b), (1, 3, 3, 2 * a)]


def _da03(a, b, g, d):
    return _COMM3["A05"], [(1, 2, 2, a), (1, 2, 3, b), (1, 3, 2, g), (1, 3, 3, d)]


_BETA = ((F(0),), (F(1),), (F(2),), (F(-1),))
_G2_ALPHA = ((F(0),), (F(1, 2),), (F(2),), (F(1),), (F(-1),), (F(3),))
_ONE_PARAM = ((F(1),), (F(2),), (F(-1),), (F(1, 2),))

CATALOG = {e.id: e for e in (
    CatalogEntry("h", "lie", 3, lambda: ((), _H)),
    CatalogEntry("g1", "lie", 3, lambda: ((), _G1)),
    CatalogEntry("g2", "lie", 3, lambda a: ((), _g2(a)), ("alpha",),
                 ((F(0),), (F(1, 2),), (F(2),), (F(1),), (F(-1),), (F(3),), (F(5),),
                  (F(-2),), (F(-1, 2),))),
    CatalogEntry("sl2", "lie", 3, lambda: ((), _SL2)),

    # -- transposed Poisson pairs (the T-series) --
    CatalogEntry("T01", "tp", 3, lambda: ((), _SL2)),
    CatalogEntry("T02", "tp", 3, lambda: ([(2, 2, 3, 1)], _H)),
    CatalogEntry("T05", "tp", 3, lambda: (
        [(1, 1, 3, 1), (1, 2, 1, 1), (2, 2, 2, 1), (2, 3, 3, 1)], _H)),
    CatalogEntry("T06", "tp", 3, lambda: ([(1, 2, 1, 1), (2, 2, 2, 1), (2, 3, 3, 1)], _H)),
    CatalogEntry("T08", "tp", 3, lambda: ([(3, 3, 1, 1)], _G1)),
    CatalogEntry("T13", "tp", 3, lambda: ([(1, 1, 2, 1), (3, 3, 2, 1)], _g2(2))),
    CatalogEntry("T14", "tp", 3, lambda: ([(1, 3, 2, 1), (3, 3, 1, 1)], _g2(2))),
    CatalogEntry("T15", "tp", 3, lambda: ([(1, 3, 2, 1)], _g2(2))),
    CatalogEntry("T16", "tp", 3, lambda: ([(3, 3, 1, 1), (3, 3, 2, 1)], _g2(0))),
    CatalogEntry("T18", "tp", 3, lambda: (
        [(1, 1, 2, 1), (1, 2, 2, -1), (2, 2, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1)], _g2(0))),
    CatalogEntry("T03", "tp", 3, lambda b: ([(1, 2, 3, b)], _H), ("beta",),
                 ((F(0),), (F(1),), (F(2),), (F(-1),), (F(4),), (F(-3),))),
    CatalogEntry("T04", "tp", 3, lambda b: ([(1, 2, 3, b), (2, 2, 1, 1)], _H), ("beta",),
                 ((F(0),), (F(1),), (F(4),), (F(-1),), (F(1, 4),))),
    CatalogEntry("T07", "tp", 3, lambda b: (_scaling(b), _G1), ("beta",), _BETA),
    CatalogEntry("T09", "tp", 3, lambda a, b: (_scaling(b), _g2(a)), ("alpha", "beta"),
                 ((F(2), F(1)), (F(1, 2), F(1, 2)), (F(0), F(1)), (F(1), F(2)),
                  (F(-1), F(1)), (F(3), F(1)), (F(2), F(0)), (F(0), F(0)),
                  (F(3), F(-2)), (F(5), F(2)))),
    CatalogEntry("T10", "tp", 3, lambda a: ([(3, 3, 2, 1)], _g2(a)), ("alpha",), _G2_ALPHA),
    CatalogEntry("T11", "tp", 3, lambda a: ([(3, 3, 1, 1)], _g2(a)), ("alpha",), _G2_ALPHA),
    # intermediate normal form from the g2 case analysis:
    # e_3.e_3 = (1-a) e_1 + e_2, isomorphic to T10^{1/a}
    CatalogEntry("T10s", "tp", 3, lambda a: ([(3, 3, 1, 1 - a), (3, 3, 2, 1)], _g2(a)),
                 ("alpha",), ((F(2),), (F(3),), (F(-1),), (F(1, 2),), (F(1),))),
    CatalogEntry("T12", "tp", 3, lambda b: ([(1, 1, 2, 1)] + _scaling(b), _g2(2)),
                 ("beta",), _BETA),
    CatalogEntry("T17", "tp", 3, lambda b: (
        [(1, 1, 2, 1), (1, 2, 2, -1), (2, 2, 2, 1)] + _scaling(b), _g2(0)),
                 ("beta",), _BETA),
    CatalogEntry("T19", "tp", 3, lambda g: ([(1, 3, 1, g), (1, 3, 2, g), (3, 3, 3, g)], _g2(0)),
                 ("gamma",), _ONE_PARAM, last_nonzero=True),
    # T20..T30 are the commutative list with zero bracket
    *(CatalogEntry(f"T{i}", "tp", 3, lambda rows=rows: (rows, ()), alt_name=aid)
      for i, (aid, rows) in enumerate(sorted(_COMM3.items()), start=20)),
    *(CatalogEntry(aid, "comm", 3, lambda rows=rows: (rows, ())) for aid, rows in _COMM3.items()),
    *(CatalogEntry(aid, "comm", 2, lambda rows=rows: (rows, ())) for aid, rows in _COMM2.items()),

    CatalogEntry("D01", "tp", 3, lambda a: (_COMM3["A02"], [(1, 3, 3, a)]), ("alpha",),
                 _ONE_PARAM, "A01^a"),
    CatalogEntry("DA02", "tp", 3, _da02, ("alpha", "beta"),
                 ((F(0), F(1)), (F(0), F(2)), (F(1), F(0)), (F(2), F(3)), (F(-1), F(1))),
                 "A02^{a,b}"),
    CatalogEntry("D02", "tp", 3, lambda: _da02(F(0), F(1)), alt_name="A02^{0,1}"),
    CatalogEntry("D03", "tp", 3, lambda a: _da02(a, F(0)), ("alpha",), _ONE_PARAM,
                 "A02^{a,0}", last_nonzero=True),
    CatalogEntry("DA03", "tp", 3, _da03, ("alpha", "beta", "gamma", "delta"),
                 ((F(0), F(1), F(0), F(0)), (F(1), F(0), F(0), F(1)),
                  (F(1), F(0), F(2), F(2))),
                 "A03^{a,b,g,d}"),
    CatalogEntry("D04", "tp", 3, lambda: _da03(F(0), F(1), F(0), F(0)),
                 alt_name="A03^{0,1,0,0}"),
    CatalogEntry("D05", "tp", 3, lambda a: _da03(a, F(0), F(0), a), ("alpha",), _ONE_PARAM,
                 "A03^{a,0,0,a}"),
    CatalogEntry("D06", "tp", 3, lambda a, b: _da03(a, F(0), b, b), ("alpha", "beta"),
                 ((F(1), F(2)), (F(2), F(1)), (F(1), F(0)), (F(0), F(1)), (F(3), F(3)),
                  (F(2), F(-1))),
                 "A03^{a,0,b,b}"),
    CatalogEntry("D06b", "tp", 3, lambda a: (_COMM3["A06"], [(1, 2, 2, a)]), ("alpha",),
                 _ONE_PARAM, "A04^a"),
    CatalogEntry("D07", "tp", 3, lambda a: (_COMM3["A09"], [(1, 2, 3, a)]), ("alpha",),
                 _ONE_PARAM, "A05^a"),
    CatalogEntry("D08", "tp", 3, lambda e: (_COMM3["A10"], [(1, 2, 3, e)]), ("epsilon",),
                 _ONE_PARAM, "A06^e"),

    # -- 2-dimensional transposed Poisson / Novikov data --
    CatalogEntry("N01", "tp", 2, lambda: ([(1, 1, 2, 1)], [(1, 2, 2, 1)])),
    CatalogEntry("N02", "tp", 2, lambda: ([(1, 2, 1, 1), (2, 2, 2, 1)], [(1, 2, 2, 1)])),
    CatalogEntry("NP01", "np", 2, lambda: ([(2, 2, 1, 1)], [(2, 1, 1, -1)])),
    CatalogEntry("NP02", "np", 2, lambda a, b, g: (
        [(1, 2, 1, 1), (2, 2, 2, 1)], [(1, 2, 1, a), (2, 1, 1, b), (2, 2, 1, g), (2, 2, 2, a)]),
                 ("alpha", "beta", "gamma"),
                 ((F(1), F(2), F(1)), (F(2), F(0), F(3)), (F(0), F(1), F(-1)),
                  (F(3), F(3), F(2)), (F(-1), F(2), F(0)))),
    CatalogEntry("D2_01", "tp", 2, lambda a: (_COMM2["A2_02"], [(1, 2, 2, a)]), ("alpha",),
                 _ONE_PARAM),
)}

T_SERIES_IDS = tuple(f"T{i:02d}" for i in range(1, 31))

#: families in the commutative vanishing-bracket lists
VANISHING_COMM3 = ("A01", "A03", "A07", "A08", "A11")
VANISHING_COMM2 = ("A2_01", "A2_03", "A2_04")

#: non-strong-D-special entries as printed in the classification table
NEGATIVE_LIST = ("T02", "T03", "T08", "T10", "T11", "T13", "T14", "T15", "T16", "T18")


def entry(id):
    try:
        return CATALOG[id]
    except KeyError:
        raise UnknownId(f"no catalog entry {excerpt_repr(id)}") from None


def instantiate(id, params=(), field=QQ):
    """Exact tensors of a catalog entry at the given parameter values."""
    e = entry(id)
    params = tuple(field.coerce(p) for p in params)
    if len(params) != len(e.param_names):
        raise InadmissibleParameter(
            f"{id} takes {len(e.param_names)} parameter(s), got {len(params)}"
        )
    if e.last_nonzero and not params[-1]:
        raise InadmissibleParameter(f"{id} parameters {params} violate: {e.param_names[-1]} != 0")
    mul_rows, second_rows = e.table(*params)
    mul = StructureConstants.from_entries(e.dim, mul_rows, field=field, symmetrize="sym")
    second = StructureConstants.from_entries(
        e.dim, second_rows, field=field, symmetrize=None if e.kind == "np" else "antisym")
    return AlgebraPair(mul, second)


def sample_params(id):
    """The deterministic admissible parameter pool, front-loaded with every
    special value the family's case analysis names.  Parameter-free entries
    yield [()]."""
    return list(entry(id).samples)


@functools.cache
def t_series_samples():
    """(id, params, pair) for the whole T-series at the deterministic
    profile, built once per process."""
    return tuple((tid, params, instantiate(tid, params))
                 for tid in T_SERIES_IDS for params in sample_params(tid))


# ---------------------------------------------------------------------------
# isomorphism witnesses
# ---------------------------------------------------------------------------

#: A change of basis certifying source ~ target, both (id, params) keys.
#: ``matrix`` is a tuple of rows whose columns are the new basis vectors;
#: the verification contract is
#: transport(instantiate(*source), matrix) == instantiate(*target).
IsoWitness = namedtuple("IsoWitness", "name source target matrix")


_INVERTIBLE = (F(2), F(3), F(-1), F(1, 2), F(5))  # a != 0, 1


def _inversion_basis(a):
    # g2^{1/a} ~ g2^a; T09's scaling product follows it from beta/a to beta
    return [(F(1) / (a - 1), 0, 0), (1, QQ.div(a, a - 1), 0), (0, 0, a)]


def _d06_swap(a, b):
    if a == b:
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    elif b == 0:  # a != 0
        cols = [(1, 0, 0), (0, 0, 1), (0, 1, -1)]
    elif a == 0:  # b != 0
        cols = [(1, 0, 0), (0, 1, 1), (0, 1, 0)]
    else:
        cols = [(1, 0, 0), (0, b, b - a), (0, 0, a)]
    return ("D06", (a, b)), ("D06", (b, a)), cols


#: one record per change of basis: its name, its parameter samples, and the
#: map from a sample to (source key, target key, basis columns)
WITNESS_FAMILIES = (
    ("T03 sign flip", ((F(1),), (F(2),), (F(-3),), (F(1, 2),)), lambda b: (
        ("T03", (b,)), ("T03", (-b,)), [(0, 1, 0), (1, 0, 0), (0, 0, -1)])),
    ("T09 parameter inversion", tuple((a, b) for a in _INVERTIBLE for b in (F(0), F(1), F(-2))),
     lambda a, b: (("T09", (F(1) / a, QQ.div(b, a))), ("T09", (a, b)), _inversion_basis(a))),
    ("g2 parameter inversion", tuple((a,) for a in _INVERTIBLE), lambda a: (
        ("g2", (F(1) / a,)), ("g2", (a,)), _inversion_basis(a))),
    ("T11 parameter inversion", ((F(2),), (F(3),), (F(-1),), (F(1, 2),)), lambda b: (
        ("T11", (F(1) / b,)), ("T11", (b,)),
        [(b * b, 0, 0), ((b - 1) * b * b, b ** 3, 0), (0, 0, b)])),
    ("T10* normal form", CATALOG["T10s"].samples, lambda b: (
        ("T10s", (b,)), ("T10", (F(1) / b,)),
        [(F(1) / b, 0, 0), (QQ.div(1 - b, b ** 2), F(1) / b ** 2, 0), (0, 0, F(1) / b)])),
    ("D01 ~ T17", CATALOG["D01"].samples, lambda a: (
        ("D01", (a,)), ("T17", (-F(1) / a,)), [(0, -1, 1), (0, 1, 0), (-F(1) / a, -F(1) / a, 0)])),
    ("D05 ~ T07", CATALOG["D05"].samples, lambda a: (
        ("D05", (a,)), ("T07", (-F(1) / a,)), [(0, 1, 0), (0, 0, 1), (-F(1) / a, 0, 0)])),
    ("D06b ~ T19", CATALOG["D06b"].samples, lambda a: (
        ("D06b", (a,)), ("T19", (-F(1) / a,)), [(0, 1, -1), (0, 0, 1), (-F(1) / a, 0, 0)])),
    ("D07 ~ T04", CATALOG["D07"].samples, lambda a: (
        ("D07", (a,)), ("T04", (-F(1) / a,)), [(0, 1, 0), (1, 0, 0), (0, 0, -a)])),
    ("D08 ~ T03", CATALOG["D08"].samples, lambda e: (
        ("D08", (e,)), ("T03", (-F(1) / e,)), [(0, 1, 0), (1, 0, 0), (0, 0, -e)])),
    ("D08 negation", CATALOG["D08"].samples, lambda a: (
        ("D08", (a,)), ("D08", (-a,)), [(0, 1, 0), (1, 0, 0), (0, 0, 1)])),
    # the table prints E3 = -b^2 e3; the verifying change needs +b^2 e3
    ("A02-family ~ T05", ((F(1),), (F(2),), (F(-1),), (F(3),)), lambda b: (
        ("DA02", (F(0), b)), ("T05", ()), [(0, -b, 0), (1, 0, 0), (0, 0, b * b)])),
    ("A02-family ~ T12", ((F(1), F(0)), (F(2), F(0)), (F(1), F(1)), (F(-1), F(2)), (F(3), F(-1))),
     lambda a, b: (("DA02", (a, b)), ("T12", (-F(1) / a,)),  # a != 0
                   [(0, 1, 1 - QQ.div(b, a)), (0, 0, 1), (-F(1) / a, 0, 0)])),
    ("D04 ~ T06", CATALOG["D04"].samples, lambda: (
        ("D04", ()), ("T06", ()), [(0, 1, 0), (1, 0, 0), (0, 0, -1)])),
    ("D06 parameter swap", CATALOG["D06"].samples, _d06_swap),
    ("D06 ~ T09", ((F(1), F(2)), (F(2), F(6)), (F(-1), F(3))), lambda a, b: (
        ("D06", (a, b)), ("T09", (QQ.div(b, a), -F(1) / a)),  # a != b, both nonzero
        [(0, 0, a), (0, b, b - a), (-F(1) / a, 0, 0)])),
)


def known_isomorphisms():
    """Every explicit isomorphism witness of the classification, at each family's samples."""
    return [IsoWitness(name, source, target, tuple(zip(*cols)))
            for name, samples, witness in WITNESS_FAMILIES
            for source, target, cols in (witness(*p) for p in samples)]
