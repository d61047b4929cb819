"""Brackets built from derivations of commutative algebras.

A derivation D of a commutative associative algebra induces the bracket
[x, y] = D(x).y - x.D(y); pairs isomorphic to one of this shape are the
strong D-special transposed Poisson algebras.  Because the construction
is equivariant under basis change, a pair is strong D-special iff some
derivation of its *own* product reproduces its bracket - an exactly
solvable linear feasibility problem (the bracket is linear in D).  The
derived bracket and that problem are both read off the coefficient rows
``derivations._map_rows`` builds, so no identity is restated here.

The module also covers the Novikov-commutator computations used for the
two 2-dimensional exceptional pairs.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import (
    AlgebraPair,
    StructureConstants,
    is_commutative_associative,
)
from .catalog import instantiate
from .derivations import _apply, _map_rows, delta_derivations, derivation_residual


class NotADerivation(ValueError):
    pass


def derived_bracket(comm, d):
    """Tensor of (x, y) -> D(x).y - x.D(y) for a derivation D of ``comm``."""
    if derivation_residual(comm, d, 1):
        raise NotADerivation("matrix is not a derivation of the product")
    n = comm.dim
    v = _apply(_map_rows(comm, 0, 1, -1), d, comm.field)
    c = tuple(tuple(tuple(v[(i * n + j) * n:(i * n + j + 1) * n]) for j in range(n))
              for i in range(n))
    return StructureConstants(n, comm.field, c)


def brackets_all_zero(comm):
    """Whether every derivation of ``comm`` induces the zero bracket.

    Checking a derivation basis suffices: the derived bracket is linear
    in the derivation."""
    if not is_commutative_associative(comm):
        raise ValueError("input must be commutative and associative")
    der = delta_derivations(comm, 1)
    return all(derived_bracket(comm, d).is_zero() for d in der.basis)


def commutator_bracket(mul2):
    """Commutator tensor (x, y) -> x o y - y o x of a second (possibly
    non-associative) product."""
    n = mul2.dim
    c = tuple(
        tuple(
            tuple(mul2.c[i][j][k] - mul2.c[j][i][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return StructureConstants(n, mul2.field, c)


def derivation_matching_bracket(mul, bracket):
    """A derivation D of ``mul`` with derived bracket equal to ``bracket``,
    or None when the linear system is inconsistent.

    One solve: the derivation rows with right-hand side 0, stacked on all
    n^3 derived-bracket rows with the bracket as right-hand side.  Zero
    rows stay in: a bracket entry no derivation reaches is such a row
    with a nonzero right-hand side, and makes the system inconsistent."""
    n = mul.dim
    field = mul.field
    rows = [r for r in _map_rows(mul, 1, -1, -1) if any(r)]
    rhs = [field.zero] * len(rows) + [v for plane in bracket.c for row in plane for v in row]
    x = linalg.solve(rows + _map_rows(mul, 0, 1, -1), rhs, field)
    return None if x is None else [x[r * n:(r + 1) * n] for r in range(n)]


def is_strong_d_special(pair):
    """Linear feasibility: does some derivation of the pair's own product
    induce exactly its bracket?"""
    return derivation_matching_bracket(pair.mul, pair.bracket) is not None


# ---------------------------------------------------------------------------
# the derivation families behind the strong D-special list
# ---------------------------------------------------------------------------
#
# Matrices have columns = images of basis vectors.  Each family is the
# general derivation of its commutative algebra, signed so that the
# derived bracket lands on the catalog normal form.

def _m(*cols):
    n = len(cols[0])
    return [[cols[c][r] for c in range(len(cols))] for r in range(n)]


DERIVATION_FAMILIES = {
    # bracket family id -> (commutative id, derivation matrix builder)
    "D01": ("A02", lambda a: _m((0, 0, 0), (0, 0, 0), (0, 0, -a))),
    "DA02": ("A04", lambda a, b: _m((0, 0, 0), (0, -a, -b), (0, 0, -2 * a))),
    "DA03": ("A05", lambda a, b, g, d: _m((0, 0, 0), (0, -a, -b), (0, -g, -d))),
    "D06b": ("A06", lambda a: _m((0, 0, 0), (0, -a, 0), (0, 0, 0))),
    "D07": ("A09", lambda a: _m((-a, 0, 0), (0, -2 * a, 0), (0, 0, -3 * a))),
    "D08": ("A10", lambda e: _m((e, 0, 0), (0, 0, 0), (0, 0, e))),
    "D2_01": ("A2_02", lambda a: _m((0, 0), (0, -a))),
}


def derivation_for(family_id, params):
    comm_id, builder = DERIVATION_FAMILIES[family_id]
    return comm_id, builder(*[Fraction(p) for p in params])


# ---------------------------------------------------------------------------
# the 2-dimensional Novikov-commutator checks
# ---------------------------------------------------------------------------

def novikov_commutator_pair(np_id, params=()):
    """(commutative part, commutator of the Novikov product) for an NP entry."""
    np_pair = instantiate(np_id, params)
    return AlgebraPair(np_pair.mul, commutator_bracket(np_pair.bracket))


def n02_obstruction_report(samples=None):
    """Span obstructions showing the 2-dimensional pair N02 cannot carry a
    Novikov structure whose commutator reproduces its bracket.

    Clauses, each checked exactly:
      * the commutator of every Novikov product on (N02, .) lies in
        span(e1) and equals (alpha - beta) e1 on (e1, e2);
      * the bracket of N02 spans e2;
      * the maps e1 -> l*e1, e2 -> e2 (l != 0) are automorphisms of
        (N02, .), fix span(e1) and fix e2, so they cannot carry span(e1)
        onto span(e2);
      * along that automorphism family no witness identifies the
        commutator pair with N02.
    """
    from .catalog import sample_params
    from .iso import verify_witness

    if samples is None:
        samples = sample_params("NP02", 5)
    n02 = instantiate("N02")
    one = n02.field.one
    zero = n02.field.zero
    lam_samples = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(5)]
    report = {
        "commutator_in_span_e1": True,
        "commutator_value_matches": True,
        "n02_bracket_spans_e2": False,
        "diagonal_maps_are_automorphisms": True,
        "automorphisms_fix_e2_and_span_e1": True,
        "no_witness_along_family": True,
    }
    for params in samples:
        a, b, _g = params
        comm_pair = novikov_commutator_pair("NP02", params)
        cb = comm_pair.bracket
        if any(cb.c[i][j][1] for i in range(2) for j in range(2)):
            report["commutator_in_span_e1"] = False
        if cb.c[0][1][0] != a - b:
            report["commutator_value_matches"] = False
        for lam in lam_samples:
            m = [[lam, zero], [zero, one]]
            mul_only = AlgebraPair(n02.mul, StructureConstants.zero(2, n02.field))
            if not verify_witness(mul_only, mul_only, m):
                report["diagonal_maps_are_automorphisms"] = False
            if m[1][0] != zero or [m[0][1], m[1][1]] != [zero, one]:
                report["automorphisms_fix_e2_and_span_e1"] = False
            if verify_witness(comm_pair, n02, m):
                report["no_witness_along_family"] = False
    br = n02.bracket
    image = [list(br.prod(i, j)) for i in range(2) for j in range(2)]
    report["n02_bracket_spans_e2"] = (
        linalg.span_dim(image, n02.field) == 1 and not any(v[0] for v in image)
    )
    report["all_pass"] = all(v is True for v in report.values())
    return report
