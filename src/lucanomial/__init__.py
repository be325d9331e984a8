"""Exact Lucas sequences, Lucanomial coefficients, and machine verification of
Wolstenholme-type congruences modulo p^3, p^5 and p^6 for arbitrary (P, Q)."""

from .binomial import (
    Cell,
    ConventionViolation,
    NonIntegralError,
    ValuedResidue,
    generalized_binomial,
    integrality_sweep,
    lucanomial_exact,
    lucanomial_residue,
    zero_cancellations,
)
from .lucas import (
    LucasParams,
    LucasTerm,
    check_identities,
    check_identities_upto,
    lucas_range,
    lucas_term,
    lucas_uv_mod,
)
from .ranks import (
    NonMaximalRankError,
    NoRankError,
    RankInfo,
    euler_criterion_check,
    is_prime,
    legendre,
    primes_in_range,
    rank_of_appearance,
)
from .reports import RECORD_FIELDS, CongruenceReport
from .sums import SumsTable, compute_sums, monomial_sum_direct, verify_power_sums, verify_sum_lemmas
from .theorems import (
    THEOREM_IDS,
    sweep,
    verify_fifth_power,
    verify_ljunggren,
    verify_sixth_power,
    verify_wolstenholme,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CongruenceReport",
    "ConventionViolation",
    "LucasParams",
    "LucasTerm",
    "NonIntegralError",
    "NonMaximalRankError",
    "NoRankError",
    "RECORD_FIELDS",
    "RankInfo",
    "SumsTable",
    "THEOREM_IDS",
    "ValuedResidue",
    "check_identities",
    "check_identities_upto",
    "compute_sums",
    "euler_criterion_check",
    "generalized_binomial",
    "integrality_sweep",
    "is_prime",
    "legendre",
    "lucanomial_exact",
    "lucanomial_residue",
    "lucas_range",
    "lucas_term",
    "lucas_uv_mod",
    "monomial_sum_direct",
    "primes_in_range",
    "rank_of_appearance",
    "sweep",
    "verify_fifth_power",
    "verify_ljunggren",
    "verify_power_sums",
    "verify_sixth_power",
    "verify_sum_lemmas",
    "verify_wolstenholme",
    "zero_cancellations",
]
