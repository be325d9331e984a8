"""Structured results of congruence checks and their wire format."""

from __future__ import annotations

from typing import NamedTuple

from .lucas import LucasParams
from .ranks import RankInfo

__all__ = ["CongruenceReport", "RECORD_FIELDS"]

# Column order of the machine-readable report; residues travel as decimal
# strings since they exceed 64 bits at p^6.
RECORD_FIELDS = (
    "theorem_id",
    "P",
    "Q",
    "p",
    "rho",
    "epsilon",
    "k",
    "l",
    "modulus_exponent",
    "lhs",
    "rhs",
    "holds",
    "error",
)


class CongruenceReport(NamedTuple):
    """One verified congruence instance.

    lhs and rhs are normalized residues in [0, p^modulus_exponent); holds is
    their equality (and any side conditions the verifier folds in).  inputs
    carries the case coordinates, e.g. {"k": 2, "l": 1}.  zero_cancellations
    counts zero pairs that cancelled inside the left side, so sweeps can log
    when the convention actually fired.
    """

    theorem_id: str
    params: LucasParams
    rank: RankInfo
    inputs: dict[str, int]
    modulus_exponent: int = 0
    lhs: int = 0
    rhs: int = 0
    holds: bool = False
    error: str | None = None
    zero_cancellations: int = 0

    @classmethod
    def of(
        cls, theorem_id: str, params: LucasParams, rank: RankInfo, inputs: dict[str, int],
        j: int, lhs: int, rhs: int, error: str | None = None, zero_cancellations: int = 0,
    ) -> CongruenceReport:
        """The report of lhs = rhs mod p^j with both sides reduced; it holds
        when they agree and no side condition failed (error is None)."""
        modulus = rank.p**j
        lhs, rhs = lhs % modulus, rhs % modulus
        holds = lhs == rhs and error is None
        return cls(theorem_id, params, rank, inputs, j, lhs, rhs, holds, error, zero_cancellations)

    @property
    def p(self) -> int:
        return self.rank.p

    @property
    def rho(self) -> int:
        return self.rank.rho

    @property
    def epsilon(self) -> int:
        return self.rank.epsilon

    def to_record(self) -> dict:
        """Flat record in the interchange schema (RECORD_FIELDS order)."""
        return {
            "theorem_id": self.theorem_id,
            "P": self.params.P,
            "Q": self.params.Q,
            "p": self.p,
            "rho": self.rho,
            "epsilon": self.epsilon,
            "k": self.inputs.get("k"),
            "l": self.inputs.get("l"),
            "modulus_exponent": self.modulus_exponent,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "error": self.error,
        }
