"""Exact-arithmetic workbench for 3-dimensional transposed Poisson algebras."""

from .algebra import (
    AlgebraPair,
    StructureConstants,
    check_identity,
    gl_action,
    is_poisson,
    is_transposed_poisson,
    pair_from_json,
    pair_to_json,
    transport,
)
from .catalog import IsoWitness, instantiate, known_isomorphisms, sample_params
from .derivations import delta_derivations, half_biderivations, pair_derivations
from .dspecial import brackets_all_zero, commutator_bracket, derived_bracket
from .enumeration import check_membership, tp_family
from .iso import distinguish, fingerprint, verify_witness
from .scalars import QQ, QQ_T, RatFunc, limit_at_zero

__all__ = [
    "AlgebraPair",
    "StructureConstants",
    "IsoWitness",
    "QQ",
    "QQ_T",
    "RatFunc",
    "brackets_all_zero",
    "check_identity",
    "check_membership",
    "commutator_bracket",
    "delta_derivations",
    "derived_bracket",
    "distinguish",
    "fingerprint",
    "gl_action",
    "half_biderivations",
    "instantiate",
    "is_poisson",
    "is_transposed_poisson",
    "known_isomorphisms",
    "limit_at_zero",
    "pair_derivations",
    "pair_from_json",
    "pair_to_json",
    "sample_params",
    "tp_family",
    "transport",
    "verify_witness",
]
