"""Brackets built from derivations of commutative algebras.

A derivation D of a commutative associative algebra induces the bracket
[x, y] = D(x).y - x.D(y); pairs isomorphic to one of this shape are the
strong D-special transposed Poisson algebras.  Because the construction
is equivariant under basis change, a pair is strong D-special iff some
derivation of its *own* product reproduces its bracket - an exactly
solvable linear feasibility problem (the bracket is linear in D).  The
derived bracket is read off the product's nonzero entries at D
(``algebra._residual``), and that problem stacks its coefficient rows
(``algebra._map_rows``) on the reduced derivation rows of
``derivations.delta_derivations``, so no identity is restated here.

The module also covers the Novikov-commutator computations used for the
two 2-dimensional exceptional pairs.
"""

from __future__ import annotations

from . import linalg
from .algebra import (
    AlgebraPair,
    StructureConstants,
    _map_rows,
    _residual,
    flatten,
    is_commutative_associative,
    unflatten,
)
from .catalog import instantiate
from .derivations import delta_derivations, derivation_residual
from .iso import verify_witness
from .scalars import QQ_T, T


class NotADerivation(ValueError):
    pass


def derived_bracket(comm, d):
    """Tensor of (x, y) -> D(x).y - x.D(y) for a derivation D of ``comm``."""
    if derivation_residual(comm, d, 1):
        raise NotADerivation("matrix is not a derivation of the product")
    n = comm.dim
    return StructureConstants(n, comm.field, unflatten(_residual(comm, d, 0, 1, -1), n, 3))


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
    return StructureConstants.from_entries(mul2.dim, [
        e for i, j, k, v in mul2.entries
        for e in ((i + 1, j + 1, k + 1, v), (j + 1, i + 1, k + 1, -v))], mul2.field)


def derivation_matching_bracket(mul, bracket):
    """A derivation D of ``mul`` with derived bracket equal to ``bracket``,
    or None when the linear system is inconsistent.

    One solve: the reduced derivation rows (the ``form`` of
    ``delta_derivations(mul, 1)``) with right-hand side 0, stacked on all
    n^3 raw derived-bracket rows of ``mul`` as given, with the bracket as
    right-hand side.  Those rows scale with ``mul``, so they do not read
    its normal form, and zero rows stay in: a bracket entry no derivation
    reaches is such a row with a nonzero right-hand side, and makes the
    system inconsistent."""
    field = mul.field
    rows = delta_derivations(mul, 1).form[0]
    rhs = [field.zero] * len(rows) + flatten(bracket.c)
    x = linalg.solve(rows + _map_rows(mul, 0, 1, -1), rhs, field)
    return None if x is None else [list(r) for r in unflatten(x, mul.dim)]


def is_strong_d_special(pair):
    """Linear feasibility: does some derivation of the pair's own product
    induce exactly its bracket?"""
    pair = pair.primitive
    return derivation_matching_bracket(pair.mul, pair.bracket) is not None


# ---------------------------------------------------------------------------
# the derivation families behind the strong D-special list
# ---------------------------------------------------------------------------
#
# Matrices have columns = images of basis vectors.  Each family is the
# general derivation of its commutative algebra, signed so that the
# derived bracket lands on the catalog normal form.

DERIVATION_FAMILIES = {
    # bracket family id -> (commutative id, derivation matrix builder)
    "D01": ("A02", lambda a: linalg.transpose(((0, 0, 0), (0, 0, 0), (0, 0, -a)))),
    "DA02": ("A04", lambda a, b: linalg.transpose(((0, 0, 0), (0, -a, -b), (0, 0, -2 * a)))),
    "DA03": ("A05", lambda a, b, g, d: linalg.transpose(((0, 0, 0), (0, -a, -b), (0, -g, -d)))),
    "D06b": ("A06", lambda a: linalg.transpose(((0, 0, 0), (0, -a, 0), (0, 0, 0)))),
    "D07": ("A09", lambda a: linalg.transpose(((-a, 0, 0), (0, -2 * a, 0), (0, 0, -3 * a)))),
    "D08": ("A10", lambda e: linalg.transpose(((e, 0, 0), (0, 0, 0), (0, 0, e)))),
    "D2_01": ("A2_02", lambda a: linalg.transpose(((0, 0), (0, -a)))),
}


# ---------------------------------------------------------------------------
# the 2-dimensional Novikov-commutator checks
# ---------------------------------------------------------------------------

def novikov_commutator_pair(np_id, params=()):
    """(commutative part, commutator of the Novikov product) for an NP entry."""
    np_pair = instantiate(np_id, params)
    return AlgebraPair(np_pair.mul, commutator_bracket(np_pair.bracket))


def trace_form(sc):
    """Gram matrix of the trace form tau(x, y) = tr L_{x.y}, where L_z is
    y -> z.y; its radical is invariant under every automorphism."""
    n = sc.dim
    tr = [sum(sc.c[k][j][j] for j in range(n)) for k in range(n)]
    return [[sum(sc.c[i][j][k] * tr[k] for k in range(n)) for j in range(n)] for i in range(n)]


def n02_obstruction_report():
    """Span obstructions showing the 2-dimensional pair N02 cannot carry a
    Novikov structure whose commutator reproduces its bracket.

    Clauses, each checked exactly:
      * the commutator of every Novikov product on (N02, .) lies in
        span(e1) and equals (alpha - beta) e1 on (e1, e2); both are linear
        in (alpha, beta, gamma), so the three unit vectors cover every value;
      * the bracket of N02 spans e2;
      * span(e1) is the radical of the trace form of (N02, .), a
        nullspace, so every automorphism fixes it and none carries span(e1)
        onto span(e2); diag(t, 1), checked once over Q(t), is an
        automorphism for every t != 0 and fixes e2;
      * no witness identifies a commutator pair with N02: each pair has
        N02's product, so a witness is an automorphism of it and fixes
        span(e1), and it keeps a bracket inside span(e1) there, while
        N02's bracket spans e2.  This holds for every automorphism.
    """
    n02 = instantiate("N02")
    zero, one = QQ_T.zero, QQ_T.one
    diag = [[T, zero], [zero, one]]
    mul_only = AlgebraPair(instantiate("N02", field=QQ_T).mul, StructureConstants.zero(2, QQ_T))
    radical_is_e1 = linalg.nullspace(trace_form(n02.mul), 2, n02.field) == [[1, 0]]
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    comm_pairs = [novikov_commutator_pair("NP02", params) for params in units]
    in_span_e1 = not any(p.bracket.c[i][j][1]
                         for p in comm_pairs for i in range(2) for j in range(2))
    image = [list(n02.bracket.prod(i, j)) for i in range(2) for j in range(2)]
    spans_e2 = linalg.span_dim(image, n02.field) == 1 and not any(v[0] for v in image)
    report = {
        "commutator_in_span_e1": in_span_e1,
        "commutator_value_matches": all(
            p.bracket.c[0][1][0] == a - b for p, (a, b, _g) in zip(comm_pairs, units)),
        "n02_bracket_spans_e2": spans_e2,
        "diagonal_maps_are_automorphisms": verify_witness(mul_only, mul_only, diag),
        "automorphisms_fix_e2_and_span_e1": (
            radical_is_e1 and linalg.mat_vec(diag, [zero, one]) == [zero, one]),
        "no_witness_along_family": (
            all(p.mul == n02.mul for p in comm_pairs) and radical_is_e1 and in_span_e1
            and spans_e2),
    }
    report["all_pass"] = all(v is True for v in report.values())
    return report
