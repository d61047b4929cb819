"""Generators for every named algebra in the classification tables.

Multiplication tables list each unordered product once; the builders
symmetrize commutative products and antisymmetrize brackets.  Parameters
are exact scalars (rationals normally, rational functions in t when a
degeneration row substitutes a curve into a family parameter).

Entry kinds:
  tp    transposed Poisson pair (product + bracket)
  lie   Lie algebra (zero product)
  comm  commutative associative algebra (zero bracket)
  np    commutative product paired with a Novikov product (the second
        component is NOT a bracket; only its commutator is used)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraPair, StructureConstants
from .scalars import QQ

F = Fraction


class UnknownId(ValueError):
    pass


class InadmissibleParameter(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str
    dim: int
    param_names: tuple
    param_domain: str
    table: object  # params -> {"mul": [...], "bracket": [...]} (1-based rows)
    admissible: object
    samples: tuple  # deterministic pool, special values first
    alt_name: str = None


def _always(_params):
    return True


def _entry(id, kind, dim, table, params=(), domain="", admissible=_always,
           samples=((),), alt_name=None):
    return CatalogEntry(id, kind, dim, tuple(params), domain, table, admissible,
                        tuple(samples), alt_name)


# -- Lie algebras ------------------------------------------------------------

def _h():
    return {"bracket": [(1, 2, 3, 1)]}


def _g1():
    return {"bracket": [(1, 3, 1, 1), (2, 3, 2, 1)]}


def _g2(a):
    return {"bracket": [(1, 3, 1, 1), (1, 3, 2, 1), (2, 3, 2, a)]}


def _sl2():
    return {"bracket": [(1, 2, 3, 1), (1, 3, 2, -1), (2, 3, 1, 1)]}


# -- 3-dimensional commutative associative algebras --------------------------

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

# -- 2-dimensional commutative associative algebras --------------------------

_COMM2 = {
    "A2_01": [(1, 1, 1, 1), (2, 2, 2, 1)],
    "A2_02": [(1, 1, 1, 1), (1, 2, 2, 1)],
    "A2_03": [(1, 1, 1, 1)],
    "A2_04": [(1, 1, 2, 1)],
}


# -- transposed Poisson pairs (the T-series) ---------------------------------

def _t_tables():
    def mul_scaling(b):
        # e_i.e_3 = b e_i (i = 1, 2), e_3.e_3 = b e_3
        return [(1, 3, 1, b), (2, 3, 2, b), (3, 3, 3, b)]

    return {
        "T01": lambda: {"bracket": _sl2()["bracket"]},
        "T02": lambda: {"mul": [(2, 2, 3, 1)], "bracket": _h()["bracket"]},
        "T03": lambda b: {"mul": [(1, 2, 3, b)], "bracket": _h()["bracket"]},
        "T04": lambda b: {"mul": [(1, 2, 3, b), (2, 2, 1, 1)], "bracket": _h()["bracket"]},
        "T05": lambda: {
            "mul": [(1, 1, 3, 1), (1, 2, 1, 1), (2, 2, 2, 1), (2, 3, 3, 1)],
            "bracket": _h()["bracket"],
        },
        "T06": lambda: {
            "mul": [(1, 2, 1, 1), (2, 2, 2, 1), (2, 3, 3, 1)],
            "bracket": _h()["bracket"],
        },
        "T07": lambda b: {"mul": mul_scaling(b), "bracket": _g1()["bracket"]},
        "T08": lambda: {"mul": [(3, 3, 1, 1)], "bracket": _g1()["bracket"]},
        "T09": lambda a, b: {"mul": mul_scaling(b), "bracket": _g2(a)["bracket"]},
        "T10": lambda a: {"mul": [(3, 3, 2, 1)], "bracket": _g2(a)["bracket"]},
        "T11": lambda a: {"mul": [(3, 3, 1, 1)], "bracket": _g2(a)["bracket"]},
        # intermediate normal form from the g2 case analysis:
        # e_3.e_3 = (1-a) e_1 + e_2, isomorphic to T10^{1/a}
        "T10s": lambda a: {
            "mul": [(3, 3, 1, 1 - a), (3, 3, 2, 1)],
            "bracket": _g2(a)["bracket"],
        },
        "T12": lambda b: {"mul": [(1, 1, 2, 1)] + mul_scaling(b), "bracket": _g2(2)["bracket"]},
        "T13": lambda: {"mul": [(1, 1, 2, 1), (3, 3, 2, 1)], "bracket": _g2(2)["bracket"]},
        "T14": lambda: {"mul": [(1, 3, 2, 1), (3, 3, 1, 1)], "bracket": _g2(2)["bracket"]},
        "T15": lambda: {"mul": [(1, 3, 2, 1)], "bracket": _g2(2)["bracket"]},
        "T16": lambda: {"mul": [(3, 3, 1, 1), (3, 3, 2, 1)], "bracket": _g2(0)["bracket"]},
        "T17": lambda b: {
            "mul": [(1, 1, 2, 1), (1, 2, 2, -1), (2, 2, 2, 1)] + mul_scaling(b),
            "bracket": _g2(0)["bracket"],
        },
        "T18": lambda: {
            "mul": [(1, 1, 2, 1), (1, 2, 2, -1), (2, 2, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1)],
            "bracket": _g2(0)["bracket"],
        },
        "T19": lambda g: {
            "mul": [(1, 3, 1, g), (1, 3, 2, g), (3, 3, 3, g)],
            "bracket": _g2(0)["bracket"],
        },
    }


# -- derivation-built families (strong D-special list) ------------------------
#
# Each family is a commutative catalog algebra together with the bracket
# induced by its general derivation; the D-series of the classification is
# the normalized list, the DA-series keep the full parameter space.

def _d01(a):
    return {"mul": _COMM3["A02"], "bracket": [(1, 3, 3, a)]}


def _da02(a, b):
    return {"mul": _COMM3["A04"], "bracket": [(1, 2, 2, a), (1, 2, 3, b), (1, 3, 3, 2 * a)]}


def _da03(a, b, g, d):
    return {"mul": _COMM3["A05"], "bracket": [(1, 2, 2, a), (1, 2, 3, b), (1, 3, 2, g), (1, 3, 3, d)]}


def _d06b(a):
    return {"mul": _COMM3["A06"], "bracket": [(1, 2, 2, a)]}


def _d07(a):
    return {"mul": _COMM3["A09"], "bracket": [(1, 2, 3, a)]}


def _d08(e):
    return {"mul": _COMM3["A10"], "bracket": [(1, 2, 3, e)]}


# -- 2-dimensional transposed Poisson / Novikov data --------------------------

def _n01():
    return {"mul": [(1, 1, 2, 1)], "bracket": [(1, 2, 2, 1)]}


def _n02():
    return {"mul": [(1, 2, 1, 1), (2, 2, 2, 1)], "bracket": [(1, 2, 2, 1)]}


def _np01():
    # second component: the Novikov product, ordered entries, no symmetrization
    return {"mul": [(2, 2, 1, 1)], "second": [(2, 1, 1, -1)]}


def _np02(a, b, g):
    return {
        "mul": [(1, 2, 1, 1), (2, 2, 2, 1)],
        "second": [(1, 2, 1, a), (2, 1, 1, b), (2, 2, 1, g), (2, 2, 2, a)],
    }


def _d2_01(a):
    return {"mul": _COMM2["A2_02"], "bracket": [(1, 2, 2, a)]}


def _nonzero_last(params):
    return bool(params[-1])


CATALOG = {}


def _register(entry):
    CATALOG[entry.id] = entry


def _init_catalog():
    _register(_entry("h", "lie", 3, lambda: _h()))
    _register(_entry("g1", "lie", 3, lambda: _g1()))
    _register(_entry("g2", "lie", 3, _g2, params=("alpha",),
                     samples=[(F(0),), (F(1, 2),), (F(2),), (F(1),), (F(-1),),
                              (F(3),), (F(5),), (F(-2),), (F(-1, 2),)]))
    _register(_entry("sl2", "lie", 3, lambda: _sl2()))

    t = _t_tables()
    for tid in ("T01", "T02", "T05", "T06", "T08", "T13", "T14", "T15", "T16", "T18"):
        _register(_entry(tid, "tp", 3, t[tid]))
    beta_pool = [(F(0),), (F(1),), (F(2),), (F(-1),), (F(4),), (F(-3),)]
    _register(_entry("T03", "tp", 3, t["T03"], params=("beta",), samples=beta_pool))
    _register(_entry("T04", "tp", 3, t["T04"], params=("beta",),
                     samples=[(F(0),), (F(1),), (F(4),), (F(-1),), (F(1, 4),)]))
    _register(_entry("T07", "tp", 3, t["T07"], params=("beta",),
                     samples=[(F(0),), (F(1),), (F(2),), (F(-1),)]))
    _register(_entry("T09", "tp", 3, t["T09"], params=("alpha", "beta"),
                     samples=[(F(2), F(1)), (F(1, 2), F(1, 2)), (F(0), F(1)),
                              (F(1), F(2)), (F(-1), F(1)), (F(3), F(1)),
                              (F(2), F(0)), (F(0), F(0)), (F(3), F(-2)), (F(5), F(2))]))
    g2_alpha_pool = [(F(0),), (F(1, 2),), (F(2),), (F(1),), (F(-1),), (F(3),)]
    _register(_entry("T10", "tp", 3, t["T10"], params=("alpha",), samples=g2_alpha_pool))
    _register(_entry("T11", "tp", 3, t["T11"], params=("alpha",), samples=g2_alpha_pool))
    _register(_entry("T10s", "tp", 3, t["T10s"], params=("alpha",),
                     samples=[(F(2),), (F(3),), (F(-1),), (F(1, 2),), (F(1),)]))
    _register(_entry("T12", "tp", 3, t["T12"], params=("beta",),
                     samples=[(F(0),), (F(1),), (F(2),), (F(-1),)]))
    _register(_entry("T17", "tp", 3, t["T17"], params=("beta",),
                     samples=[(F(0),), (F(1),), (F(2),), (F(-1),)]))
    _register(_entry("T19", "tp", 3, t["T19"], params=("gamma",),
                     domain="gamma != 0", admissible=_nonzero_last,
                     samples=[(F(1),), (F(2),), (F(-1),), (F(1, 2),)]))

    # T20..T30 are the commutative list with zero bracket
    for i, aid in enumerate(sorted(_COMM3), start=20):
        table = (lambda rows: (lambda: {"mul": rows}))(_COMM3[aid])
        _register(_entry(f"T{i}", "tp", 3, table, alt_name=aid))
    for aid, rows in _COMM3.items():
        _register(_entry(aid, "comm", 3, (lambda r: (lambda: {"mul": r}))(rows)))
    for aid, rows in _COMM2.items():
        _register(_entry(aid, "comm", 2, (lambda r: (lambda: {"mul": r}))(rows)))

    one_param = [(F(1),), (F(2),), (F(-1),), (F(1, 2),)]
    _register(_entry("D01", "tp", 3, _d01, params=("alpha",), samples=one_param,
                     alt_name="A01^a"))
    _register(_entry("DA02", "tp", 3, _da02, params=("alpha", "beta"),
                     samples=[(F(0), F(1)), (F(0), F(2)), (F(1), F(0)),
                              (F(2), F(3)), (F(-1), F(1))],
                     alt_name="A02^{a,b}"))
    _register(_entry("D02", "tp", 3, lambda: _da02(F(0), F(1)), alt_name="A02^{0,1}"))
    _register(_entry("D03", "tp", 3, lambda a: _da02(a, F(0)), params=("alpha",),
                     domain="alpha != 0", admissible=_nonzero_last,
                     samples=one_param, alt_name="A02^{a,0}"))
    _register(_entry("DA03", "tp", 3, _da03,
                     params=("alpha", "beta", "gamma", "delta"),
                     samples=[(F(0), F(1), F(0), F(0)), (F(1), F(0), F(0), F(1)),
                              (F(1), F(0), F(2), F(2))],
                     alt_name="A03^{a,b,g,d}"))
    _register(_entry("D04", "tp", 3, lambda: _da03(F(0), F(1), F(0), F(0)),
                     alt_name="A03^{0,1,0,0}"))
    _register(_entry("D05", "tp", 3, lambda a: _da03(a, F(0), F(0), a),
                     params=("alpha",), samples=one_param, alt_name="A03^{a,0,0,a}"))
    _register(_entry("D06", "tp", 3, lambda a, b: _da03(a, F(0), b, b),
                     params=("alpha", "beta"),
                     samples=[(F(1), F(2)), (F(2), F(1)), (F(1), F(0)),
                              (F(0), F(1)), (F(3), F(3)), (F(2), F(-1))],
                     alt_name="A03^{a,0,b,b}"))
    _register(_entry("D06b", "tp", 3, _d06b, params=("alpha",), samples=one_param,
                     alt_name="A04^a"))
    _register(_entry("D07", "tp", 3, _d07, params=("alpha",), samples=one_param,
                     alt_name="A05^a"))
    _register(_entry("D08", "tp", 3, _d08, params=("epsilon",), samples=one_param,
                     alt_name="A06^e"))

    _register(_entry("N01", "tp", 2, _n01))
    _register(_entry("N02", "tp", 2, _n02))
    _register(_entry("NP01", "np", 2, _np01))
    _register(_entry("NP02", "np", 2, _np02, params=("alpha", "beta", "gamma"),
                     samples=[(F(1), F(2), F(1)), (F(2), F(0), F(3)),
                              (F(0), F(1), F(-1)), (F(3), F(3), F(2)),
                              (F(-1), F(2), F(0))]))
    _register(_entry("D2_01", "tp", 2, _d2_01, params=("alpha",), samples=one_param))


_init_catalog()

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
        raise UnknownId(f"no catalog entry {id!r}") from None


def instantiate(id, params=(), field=QQ):
    """Exact tensors of a catalog entry at the given parameter values."""
    e = entry(id)
    params = tuple(field.coerce(p) for p in params)
    if len(params) != len(e.param_names):
        raise InadmissibleParameter(
            f"{id} takes {len(e.param_names)} parameter(s), got {len(params)}"
        )
    if not e.admissible(params):
        raise InadmissibleParameter(f"{id} parameters {params} violate: {e.param_domain}")
    table = e.table(*params)
    mul_rows = table.get("mul", [])
    if "second" in table:  # Novikov component: ordered entries, verbatim
        mul = StructureConstants.from_entries(e.dim, mul_rows, field=field, symmetrize="sym")
        second = StructureConstants.from_entries(e.dim, table["second"], field=field)
        return AlgebraPair(mul, second)
    mul = StructureConstants.from_entries(e.dim, mul_rows, field=field, symmetrize="sym")
    bracket = StructureConstants.from_entries(
        e.dim, table.get("bracket", []), field=field, symmetrize="antisym"
    )
    return AlgebraPair(mul, bracket)


def sample_params(id, count):
    """Deterministic admissible parameter samples; the pool is front-loaded
    with every special value the family's case analysis names, so small
    counts already include them.  Parameter-free entries yield [()]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    e = entry(id)
    if not e.param_names:
        return [()]
    pool = [p for p in e.samples if e.admissible(p)]
    return pool[: min(count, len(pool))] if count < len(pool) else pool


@functools.cache
def t_series_samples():
    """(id, params, pair) for the whole T-series at the deterministic
    profile, built once per process."""
    return tuple((tid, params, instantiate(tid, params))
                 for tid in T_SERIES_IDS for params in sample_params(tid, 10))


# ---------------------------------------------------------------------------
# isomorphism witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoWitness:
    """A change of basis certifying source ~ target.

    Columns of ``matrix`` are the new basis vectors; the verification
    contract is transport(instantiate(*source), matrix) == instantiate(*target).
    """

    name: str
    source: tuple  # (id, params)
    target: tuple  # (id, params)
    matrix: tuple  # rows


def _w(name, source, target, cols):
    return IsoWitness(name, source, target, tuple(zip(*cols)))


def _t03_sign(b):
    return _w("T03 sign flip", ("T03", (b,)), ("T03", (-b,)),
              [(0, 1, 0), (1, 0, 0), (0, 0, -1)])


def _t09_inversion(a, b):
    # verifies as transport(T09^{1/a, b/a}, M) == T09^{a, b}
    m = [(F(1) / (a - 1), 0, 0), (1, QQ.div(a, a - 1), 0), (0, 0, a)]
    return _w("T09 parameter inversion", ("T09", (F(1) / a, QQ.div(b, a))), ("T09", (a, b)), m)


def _g2_inversion(a):
    m = [(F(1) / (a - 1), 0, 0), (1, QQ.div(a, a - 1), 0), (0, 0, a)]
    return _w("g2 parameter inversion", ("g2", (F(1) / a,)), ("g2", (a,)), m)


def _t11_inversion(b):
    m = [(b * b, 0, 0), ((b - 1) * b * b, b ** 3, 0), (0, 0, b)]
    return _w("T11 parameter inversion", ("T11", (F(1) / b,)), ("T11", (b,)), m)


def _t10s_to_t10(b):
    m = [(F(1) / b, 0, 0), (QQ.div(1 - b, b ** 2), F(1) / b ** 2, 0), (0, 0, F(1) / b)]
    return _w("T10* normal form", ("T10s", (b,)), ("T10", (F(1) / b,)), m)


def _d01_to_t17(a):
    m = [(0, -1, 1), (0, 1, 0), (-F(1) / a, -F(1) / a, 0)]
    return _w("D01 ~ T17", ("D01", (a,)), ("T17", (-F(1) / a,)), m)


def _da02_zero_to_t05(b):
    # table prints E3 = -b^2 e3; the verifying change needs +b^2 e3
    m = [(0, -b, 0), (1, 0, 0), (0, 0, b * b)]
    return _w("A02-family ~ T05", ("DA02", (F(0), b)), ("T05", ()), m)


def _da02_to_t12(a, b):
    m = [(0, 1, 1 - QQ.div(b, a)), (0, 0, 1), (-F(1) / a, 0, 0)]
    return _w("A02-family ~ T12", ("DA02", (a, b)), ("T12", (-F(1) / a,)), m)


def _d04_to_t06():
    return _w("D04 ~ T06", ("D04", ()), ("T06", ()),
              [(0, 1, 0), (1, 0, 0), (0, 0, -1)])


def _d05_to_t07(a):
    m = [(0, 1, 0), (0, 0, 1), (-F(1) / a, 0, 0)]
    return _w("D05 ~ T07", ("D05", (a,)), ("T07", (-F(1) / a,)), m)


def _d06_to_t09(a, b):
    # a != b, both nonzero
    m = [(0, 0, a), (0, b, b - a), (-F(1) / a, 0, 0)]
    return _w("D06 ~ T09", ("D06", (a, b)), ("T09", (QQ.div(b, a), -F(1) / a)), m)


def _d06b_to_t19(a):
    m = [(0, 1, -1), (0, 0, 1), (-F(1) / a, 0, 0)]
    return _w("D06b ~ T19", ("D06b", (a,)), ("T19", (-F(1) / a,)), m)


def _d07_to_t04(a):
    m = [(0, 1, 0), (1, 0, 0), (0, 0, -a)]
    return _w("D07 ~ T04", ("D07", (a,)), ("T04", (-F(1) / a,)), m)


def _d08_to_t03(e):
    m = [(0, 1, 0), (1, 0, 0), (0, 0, -e)]
    return _w("D08 ~ T03", ("D08", (e,)), ("T03", (-F(1) / e,)), m)


def _d06_swap(a, b):
    if a == b:
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    elif b == 0:  # a != 0
        cols = [(1, 0, 0), (0, 0, 1), (0, 1, -1)]
    elif a == 0:  # b != 0
        cols = [(1, 0, 0), (0, 1, 1), (0, 1, 0)]
    else:
        cols = [(1, 0, 0), (0, b, b - a), (0, 0, a)]
    return _w("D06 parameter swap", ("D06", (a, b)), ("D06", (b, a)), cols)


def _d08_negation(a):
    return _w("D08 negation", ("D08", (a,)), ("D08", (-a,)),
              [(0, 1, 0), (1, 0, 0), (0, 0, 1)])


def known_isomorphisms():
    """Every explicit isomorphism witness of the classification, instantiated
    at the deterministic admissible samples."""
    out = []
    for b in (F(1), F(2), F(-3), F(1, 2)):
        out.append(_t03_sign(b))
    for a in (F(2), F(3), F(-1), F(1, 2), F(5)):
        for b in (F(0), F(1), F(-2)):
            out.append(_t09_inversion(a, b))
        out.append(_g2_inversion(a))
    for b in (F(2), F(3), F(-1), F(1, 2)):
        out.append(_t11_inversion(b))
    for b in (F(1), F(2), F(3), F(-1), F(1, 2)):
        out.append(_t10s_to_t10(b))
    for a in (F(1), F(2), F(-1), F(1, 2)):
        out.append(_d01_to_t17(a))
        out.append(_d05_to_t07(a))
        out.append(_d06b_to_t19(a))
        out.append(_d07_to_t04(a))
        out.append(_d08_to_t03(a))
        out.append(_d08_negation(a))
    for b in (F(1), F(2), F(-1), F(3)):
        out.append(_da02_zero_to_t05(b))
    for a, b in ((F(1), F(0)), (F(2), F(0)), (F(1), F(1)), (F(-1), F(2)), (F(3), F(-1))):
        out.append(_da02_to_t12(a, b))
    out.append(_d04_to_t06())
    for a, b in ((F(1), F(2)), (F(2), F(1)), (F(1), F(0)), (F(0), F(1)),
                 (F(3), F(3)), (F(2), F(-1))):
        out.append(_d06_swap(a, b))
    for a, b in ((F(1), F(2)), (F(2), F(6)), (F(-1), F(3))):
        out.append(_d06_to_t09(a, b))
    return out
