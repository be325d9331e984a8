"""Primality, Legendre symbols and rank-of-appearance machinery mod prime powers."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .lucas import LucasParams, lucas_uv_mod, u_walk

__all__ = [
    "NoRankError",
    "NonMaximalRankError",
    "RankInfo",
    "is_prime",
    "primes_in_range",
    "legendre",
    "rank_of_appearance",
]


class NoRankError(ValueError):
    """p divides Q, so U_t = P^(t-1) mod p and no positive-index term vanishes."""


class NonMaximalRankError(ValueError):
    """The operation needs a prime whose rank equals p - epsilon_p."""


# Deterministic witness set for Miller-Rabin below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        # A composite below 41^2 has a prime factor below 41, i.e. <= 37,
        # and trial division has just ruled those out.
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, ascending.

    A one-number range [n, n] is answered by `is_prime(n)`, so a sweep's
    per-cell `maximal_ranks(params, p, p)` sieves nothing.  Any longer range
    is a segmented sieve: only [lo, hi] is sieved, by the primes up to
    isqrt(hi) (found the same way), not all of [0, hi].
    """
    lo = max(lo, 2)
    if hi <= lo:
        return [lo] if hi == lo and is_prime(lo) else []
    sieve = bytearray([1]) * (hi - lo + 1)
    for q in primes_in_range(2, math.isqrt(hi)):
        # A composite n in [lo, hi] has a prime factor q <= isqrt(n), and
        # n >= q^2; a prime n is never a multiple of q that large.
        start = max(q * q, -(-lo // q) * q)
        sieve[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(itertools.compress(range(lo, hi + 1), sieve))


def require_prime(params: LucasParams, p: int) -> None:
    """Refuse p unless it is an odd prime not dividing Q, the primes the
    package's congruences are stated for: ValueError for a p that is not
    prime, then NoRankError where p divides Q, then ValueError for p = 2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if params.Q % p == 0:
        raise NoRankError(f"{p} divides Q = {params.Q}")
    if p == 2:
        raise ValueError("p must be odd")


def accepts_prime(params: LucasParams, p: int) -> bool:
    """True iff `require_prime` accepts p for U(params)."""
    try:
        require_prime(params, p)
    except ValueError:
        return False
    return True


def _euler(a: int, p: int) -> int:
    # (a | p) by Euler's criterion, for an odd prime p the caller has checked.
    return (pow(a, (p - 1) // 2, p) + 1) % p - 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) in {-1, 0, 1}; ValueError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    return _euler(a, p)


class RankInfo(NamedTuple):
    """Rank of appearance of an odd prime p in U, with prime-power ranks.

    rho is the least t > 0 with p | U_t; epsilon the Legendre symbol (D | p);
    maximal means rho = p - epsilon.  rho_prime_power maps an exponent a to
    the least t > 0 with p^a | U_t: {1: rho} from `rank_of_appearance`, and
    a = 1 .. exponents from `maximal_ranks`.
    """

    p: int
    rho: int
    epsilon: int
    maximal: bool
    rho_prime_power: dict[int, int]


def _climb(params: LucasParams, p: int, rho: int) -> Iterator[int]:
    # rank(p) = rho, rank(p^2), rank(p^3), ..., each found only when asked
    # for.  By Lucas's exact law of repetition (README fact (b); p odd, p not
    # dividing Q) v_p(U_t) = e + v_p(t / rho) for every multiple t of rho,
    # with e = v_p(U_rho).  So rank(p^a) is rho while p^a | U_rho, and each
    # rung after the first miss is p times the one before: U_rho is probed
    # only while the rung is rho, and never after.
    rung, mod = rho, p
    while True:
        yield rung
        mod *= p
        if rung > rho or lucas_uv_mod(params, rho, mod)[0]:
            rung *= p


def rank_of_appearance(params: LucasParams, p: int) -> RankInfo:
    """Rank of p in U by direct scan of U_t mod p for t = 1, 2, ..., p+1.

    rho_prime_power is {1: rho}; `maximal_ranks` climbs the higher ones.
    Refuses p as `require_prime` does, its one primality test.
    """
    require_prime(params, p)
    terms = itertools.islice(u_walk(params.P, params.Q, p), 1, p + 2)
    for rho, u in enumerate(terms, 1):
        if u == 0:
            break
    else:
        raise ArithmeticError(f"no rank of {p} found below {p + 2}")
    epsilon = _euler(params.D, p)
    return RankInfo(p, rho, epsilon, rho == p - epsilon, {1: rho})


def rank_ladder(params: LucasParams, p: int, index_limit: int) -> list[int]:
    """Ranks of p, p^2, p^3, ... for valuation lookups of terms U_t, t <= index_limit.

    Stops after the first entry that exceeds index_limit or lands on a zero
    term of U: every later entry is a multiple of it, so it cannot divide the
    index of any nonzero term within range.  Requires p odd, p not dividing Q.
    """
    ladder, zp = [], params.zero_period
    for rung in _climb(params, p, rank_of_appearance(params, p).rho):
        ladder.append(rung)
        if rung > index_limit or (zp is not None and rung % zp == 0):
            break
    return ladder


def maximal_ranks(
    params: LucasParams, p_min: int, p_max: int, exponents: int = 1
) -> Iterator[RankInfo]:
    """The rank of each odd prime in [p_min, p_max] not dividing Q whose rank
    is p - epsilon, ascending, with prime-power ranks up to `exponents`."""
    for p in primes_in_range(max(p_min, 3), p_max):
        if params.Q % p == 0:
            continue
        info = rank_of_appearance(params, p)
        if info.maximal:
            climb = itertools.islice(_climb(params, p, info.rho), exponents)
            yield info._replace(rho_prime_power=dict(enumerate(climb, 1)))
