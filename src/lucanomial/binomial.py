"""Generalized binomial coefficients over Lucas sequences, exact and mod p^k.

A Lucanomial binom(m, n)_U is the product of U_m, U_{m-1}, ..., U_{m-n+1}
divided by U_n, ..., U_1 (1 when n = 0, and 0 when m < n).  When U has zero
terms, a zero above and a zero below cancel pairwise as 1; leftover zeros
above make the value 0, and leftover zeros below cannot occur for Lucas
sequences.  The value is always a rational integer.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .lucas import LucasParams, u_walk, uv_sequence
from .ranks import rank_ladder, require_prime

__all__ = [
    "NonIntegralError",
    "ConventionViolation",
    "ValuedResidue",
    "Cell",
    "generalized_binomial",
    "lucanomial_exact",
    "lucanomial_residue",
    "zero_cancellations",
]


class NonIntegralError(ArithmeticError):
    """A generalized binomial quotient failed to be an integer; signals a bug."""


class ConventionViolation(ArithmeticError):
    """More zero factors below than above the bar; excluded for Lucas sequences."""


class _ResidueFields(NamedTuple):
    p: int
    k: int
    valuation: int
    unit: int
    zero: bool = False


class ValuedResidue(_ResidueFields):
    """A nonzero p-adic approximation unit * p^valuation, unit known mod p^k.

    The exact zero produced by the cancellation convention is distinguished
    from any nonzero value of high valuation.  The fields are checked however
    a ValuedResidue is made, _make and _replace included.
    """

    __slots__ = ()

    def __new__(
        cls, p: int, k: int, valuation: int, unit: int, zero: bool = False
    ) -> ValuedResidue:
        if zero:
            if unit or valuation:
                raise ValueError("exact zero carries unit 0 and valuation 0")
        elif valuation < 0:
            raise ValueError("valuation must be nonnegative")
        elif not 0 <= unit < p**k:
            raise ValueError("unit out of range")
        elif unit % p == 0:
            raise ValueError("unit must be coprime to p")
        return tuple.__new__(cls, (p, k, valuation, unit, zero))

    @classmethod
    def _make(cls, fields: Iterable) -> ValuedResidue:
        return cls(*fields)

    @classmethod
    def exact_zero(cls, p: int, k: int) -> "ValuedResidue":
        return cls(p, k, 0, 0, zero=True)

    @classmethod
    def from_integer(cls, x: int, p: int, k: int) -> "ValuedResidue":
        """Strip all powers of p from x; x = 0 becomes the exact zero."""
        if x == 0:
            return cls.exact_zero(p, k)
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return cls(p, k, v, x % p**k)

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def residue(self) -> int:
        """The represented value reduced mod p^k."""
        if self.zero or self.valuation >= self.k:
            return 0
        return self.unit * self.p**self.valuation % self.modulus

    # A residue is a value, not a tuple: tuple concatenation and repetition
    # would return plain tuples that look like arithmetic.
    __add__ = __mul__ = __rmul__ = None


def _convention_quotient(num: Sequence[int], den: Sequence[int]) -> int:
    """Quotient of factor products with pairwise zero cancellation.

    Surviving numerator zeros give 0; surviving denominator zeros raise
    ConventionViolation; a non-exact final division raises NonIntegralError.
    """
    top = [x for x in num if x != 0]
    bottom = [x for x in den if x != 0]
    zeros_above = len(num) - len(top)
    zeros_below = len(den) - len(bottom)
    if zeros_below > zeros_above:
        raise ConventionViolation(
            f"{zeros_below} zero factors below vs {zeros_above} above"
        )
    if zeros_above > zeros_below:
        return 0
    q, r = divmod(math.prod(top), math.prod(bottom))
    if r:
        raise NonIntegralError("generalized binomial is not an integer")
    return q


def generalized_binomial(values: Sequence[int], m: int, n: int) -> int:
    """binom(m, n) over an arbitrary integer sequence (values[0] must be 0,
    and values must reach index m), applying the pairwise zero-cancellation
    convention."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if len(values) <= m:
        raise ValueError(f"values end at index {len(values) - 1}, before m = {m}")
    if m < n:
        return 0
    if n == 0 or n == m:
        # For n = m the factors above and below the bar are the same
        # values[m] .. values[1]: their zeros cancel pairwise and the quotient
        # of the rest is 1.
        return 1
    return _convention_quotient(values[m - n + 1 : m + 1], values[1 : n + 1])


def lucanomial_exact(params: LucasParams, m: int, n: int) -> int:
    """Exact Lucanomial binom(m, n)_U as an arbitrary-precision integer."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if m < n:
        return 0
    if n == 0 or n == m:  # as generalized_binomial answers, with no walk of U
        return 1
    return generalized_binomial(uv_sequence(params, m)[0], m, n)


def _zero_terms(params: LucasParams, m: int, n: int) -> tuple[int, int]:
    """How many zero terms of U stand above and below the bar of binom(m, n)_U."""
    zp = params.zero_period
    return (m // zp - (m - n) // zp, n // zp) if zp else (0, 0)


def zero_cancellations(params: LucasParams, m: int, n: int) -> int:
    """Number of zero pairs that cancel as 1 inside binom(m, n)_U."""
    return min(_zero_terms(params, m, n)) if m >= n else 0


class Cell:
    """Rank-path residue context for one (P, Q, p): binom(m, n)_U mod p^j for
    every 0 <= m <= m_max and 1 <= j <= k in constant time.

    Holds the ladder of ranks of p, p^2, ..., and, over the nonzero terms
    U_1 .. U_t, prefix products of their units (U_t stripped of its powers
    of p, mod p^k) and prefix sums of their valuations, all from one
    recurrence pass mod p^(k + the largest valuation).  A Lucanomial is then
    a ratio of prefix entries, the analogue of a factorial quotient.  Serves
    every prime `require_prime` accepts.
    """

    def __init__(self, params: LucasParams, p: int, m_max: int, k: int) -> None:
        if k < 1:
            raise ValueError("precision k must be positive")
        require_prime(params, p)
        if m_max < 0:
            raise ValueError("indices must be nonnegative")
        self.params, self.p, self.m_max, self.k = params, p, m_max, k
        zp = params.zero_period
        # Each rung is a multiple of the one before, so counting the rungs
        # that divide t gives v_p(U_t) for every nonzero term within range.
        ladder = rank_ladder(params, p, m_max)
        vals = [0] * (m_max + 1)
        for r in ladder:
            for t in range(r, m_max + 1, r):
                vals[t] += 1
        # Stripping p^v from a term costs v digits: leave room for the largest,
        # at most the count of rungs in range, since they form a divisor chain.
        v_max = sum(r <= m_max for r in ladder)
        modulus, pk = p ** (k + v_max), p**k
        prefix, vsum = [1] * (m_max + 1), [0] * (m_max + 1)
        terms = islice(u_walk(params.P, params.Q, modulus), 1, m_max + 1)
        for t, u in enumerate(terms, 1):
            if zp is not None and t % zp == 0:
                # Zero terms cancel in pairs and carry nothing.
                prefix[t], vsum[t] = prefix[t - 1], vsum[t - 1]
            else:
                prefix[t] = prefix[t - 1] * (u // p ** vals[t] % pk) % pk
                vsum[t] = vsum[t - 1] + vals[t]
        self._prefix, self._vsum = prefix, vsum

    def residue(self, m: int, n: int, j: int) -> ValuedResidue:
        """binom(m, n)_U mod p^j as (valuation, unit mod p^j), for j <= k."""
        if not 1 <= j <= self.k:
            raise ValueError(f"precision {j} outside 1..{self.k}")
        if m < 0 or n < 0:
            raise ValueError("indices must be nonnegative")
        p, pj = self.p, self.p**j
        if n == 0:
            return ValuedResidue(p, j, 0, 1 % pj)
        if m < n:
            return ValuedResidue.exact_zero(p, j)
        if m > self.m_max:
            raise ValueError(f"index {m} beyond the cell's m_max = {self.m_max}")
        above, below = _zero_terms(self.params, m, n)
        if below > above:
            raise ConventionViolation("zero factors left in the denominator")
        if above > below:
            return ValuedResidue.exact_zero(p, j)
        prefix, vsum = self._prefix, self._vsum
        v = vsum[m] - vsum[m - n] - vsum[n]
        if v < 0:
            raise NonIntegralError("negative p-adic valuation in a Lucanomial")
        bottom = prefix[m - n] * prefix[n] % pj
        return ValuedResidue(p, j, v, prefix[m] * pow(bottom, -1, pj) % pj)


def lucanomial_residue(
    params: LucasParams,
    m: int,
    n: int,
    p: int,
    k: int,
    method: str = "rank",
    cell: Cell | None = None,
) -> ValuedResidue:
    """Residue of binom(m, n)_U mod p^k as (valuation, unit mod p^k).

    The "rank" path reads each factor's valuation off the ranks of p, p^2,
    ... and its unit from one recurrence pass mod p^(k + v_max).  It is
    answered by `cell` when one is given (a Cell of the same params and p
    with m <= m_max and k within its precision), else by a one-shot Cell.
    The "exact" path builds the integer value and strips powers of p.  Both
    serve every prime `require_prime` accepts, and they agree exactly.
    A Cell, given or one-shot, checks p, k and the indices of the rank path.
    """
    if method not in ("rank", "exact"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact":
        require_prime(params, p)
        if k < 1:
            raise ValueError("precision k must be positive")
        return ValuedResidue.from_integer(lucanomial_exact(params, m, n), p, k)
    if cell is not None:
        if cell.p != p or cell.params != params:
            raise ValueError("cell belongs to another (P, Q, p)")
        return cell.residue(m, n, k)
    return Cell(params, p, m, k).residue(m, n, k)
