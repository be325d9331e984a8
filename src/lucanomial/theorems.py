"""Verifiers for the Wolstenholme-type Lucanomial congruences mod p^3, p^5, p^6.

Every verifier targets an odd prime p of maximal rank rho = p - epsilon in
U(P, Q) and returns a CongruenceReport with both sides normalized mod p^j.
Wire identifiers: "N" (the mod-p^3 congruence for binom((k+1)rho-1, rho-1)),
"LjWe" (the mod-p^3 block congruence for binom(k rho, l rho)), "P5_1".."P5_4"
(the four mod-p^5 forms for binom(2 rho - 1, rho - 1)) and "P6" (mod p^6).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .binomial import Cell, generalized_binomial, lucanomial_residue, zero_cancellations
from .lucas import LucasParams, lucas_term, lucas_uv_mod
from .ranks import (
    NonMaximalRankError,
    RankInfo,
    is_prime,
    primes_in_range,
    rank_of_appearance,
)
from .reports import CongruenceReport
from .sums import SumsTable, compute_sums

__all__ = [
    "THEOREM_IDS",
    "verify_wolstenholme",
    "verify_ljunggren",
    "verify_fifth_power",
    "verify_sixth_power",
    "sweep",
]

THEOREM_IDS = ("N", "LjWe", "P5_1", "P5_2", "P5_3", "P5_4", "P6")


def _maximal_rank(params: LucasParams, p: int, min_p: int, rank: RankInfo | None) -> RankInfo:
    if p < min_p:
        raise ValueError(f"requires a prime p >= {min_p}")
    if rank is None:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        rank = rank_of_appearance(params, p)
    if not rank.maximal:
        raise NonMaximalRankError(f"rank of {p} is {rank.rho}, not {p - rank.epsilon}")
    return rank


def _sign_mod(exponent: int, modulus: int) -> int:
    """(-1)^exponent mod modulus, for possibly negative exponents."""
    return modulus - 1 if exponent % 2 else 1


def verify_wolstenholme(
    params: LucasParams, p: int, k: int, rank: RankInfo | None = None, cell: Cell | None = None
) -> CongruenceReport:
    """Check binom((k+1)rho - 1, rho - 1)_U = (-1)^(k eps) * Q^(k rho (rho-1)/2) mod p^3.

    Needs p >= 5 of maximal rank, p not dividing Q, k >= 0.  Also requires the
    left side to equal the k-th power of the k = 1 left side mod p^3, which
    ties the whole family to its base case.  A `cell` for (params, p) with
    m_max >= (k+1) rho - 1 answers both left sides.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    rank = _maximal_rank(params, p, 5, rank)
    rho, eps = rank.rho, rank.epsilon
    modulus = p**3
    m, n = (k + 1) * rho - 1, rho - 1
    lhs = lucanomial_residue(params, m, n, p, 3, cell=cell).residue()
    rhs = _sign_mod(k * eps, modulus) * pow(params.Q, k * rho * (rho - 1) // 2, modulus) % modulus
    base = lucanomial_residue(params, 2 * rho - 1, rho - 1, p, 3, cell=cell).residue()
    error = None if pow(base, k, modulus) == lhs else "k-th power of the base case disagrees"
    return CongruenceReport(
        "N",
        params,
        rank,
        {"k": k},
        3,
        lhs,
        rhs,
        lhs == rhs and error is None,
        error,
        zero_cancellations(params, m, n),
    )


def _block_terms(params: LucasParams, rho: int, upto: int) -> tuple[list[int], list[int]]:
    """The subsequence U at multiples of rho, as U_rho times U(V_rho, Q^rho).

    Returns (scaled, unscaled): scaled[t] = U_{rho t} exactly; unscaled[t] is
    the term of U(V_rho, Q^rho), which matches up to the factor U_rho.
    """
    term = lucas_term(params, rho)
    q = params.Q**rho
    seq = [0, 1]
    while len(seq) <= upto:
        seq.append(term.V * seq[-1] - q * seq[-2])
    return [term.U * x for x in seq], seq


def verify_ljunggren(
    params: LucasParams,
    p: int,
    k: int,
    l: int,
    rank: RankInfo | None = None,
    cell: Cell | None = None,
    blocks: tuple[list[int], list[int]] | None = None,
) -> CongruenceReport:
    """Check the block congruence mod p^3 for binom(k rho, l rho)_U:

        binom(k rho, l rho)_U
            = binom(k, l)_U' * (-1)^(l(k-l) eps) * Q^(l(k-l) rho (rho-1)/2),

    with U' the sequence of U-terms at multiples of rho (scaled form
    U_rho * U(V_rho, Q^rho); when U_rho != 0 the unscaled form must agree and
    both are evaluated).  Needs p >= 5 of maximal rank and k >= l >= 0.  A
    `cell` for (params, p) with m_max >= k rho answers the left side, and
    `blocks`, the _block_terms of (params, rho) up to k or beyond, the right.
    """
    if l < 0 or k < l:
        raise ValueError("need k >= l >= 0")
    rank = _maximal_rank(params, p, 5, rank)
    rho, eps = rank.rho, rank.epsilon
    modulus = p**3
    m, n = k * rho, l * rho
    lhs = lucanomial_residue(params, m, n, p, 3, cell=cell).residue()
    scaled, unscaled = blocks or _block_terms(params, rho, k)
    block = generalized_binomial(scaled, k, l)
    error = None
    if scaled[1] != 0 and generalized_binomial(unscaled, k, l) != block:
        error = "scaled and unscaled block sequences disagree"
    rhs = (
        block
        * _sign_mod(l * (k - l) * eps, modulus)
        * pow(params.Q, l * (k - l) * rho * (rho - 1) // 2, modulus)
        % modulus
    )
    return CongruenceReport(
        "LjWe",
        params,
        rank,
        {"k": k, "l": l},
        3,
        lhs,
        rhs,
        lhs == rhs and error is None,
        error,
        zero_cancellations(params, m, n),
    )


def _table(
    params: LucasParams, p: int, rank: RankInfo, table: SumsTable | None, precision: int
) -> SumsTable:
    """The caller's sums table, or a new one where it is missing or too coarse;
    a table of other params, p or rho is refused."""
    if table is not None and (
        table.params != params or table.p != p or table.rho != rank.rho
    ):
        raise ValueError("sums table belongs to another (P, Q, p) or rank")
    if table is None or table.k < precision:
        table = compute_sums(params, rank, precision)
    return table


def _central_lhs(params: LucasParams, rank: RankInfo, j: int, cell: Cell | None) -> int:
    rho = rank.rho
    return lucanomial_residue(params, 2 * rho - 1, rho - 1, rank.p, j, cell=cell).residue()


def _uv_ratio(params: LucasParams, rho: int, modulus: int) -> tuple[int, int, int]:
    u_r, v_r = lucas_uv_mod(params, rho, modulus)
    return u_r, v_r, u_r * pow(v_r, -1, modulus) % modulus


def _parity_sign(rank: RankInfo, modulus: int) -> int:
    # (-1)^eps and (-1)^(rho-1) agree at maximal rank for odd p; compute both
    # and insist, since the four statements use the two forms interchangeably.
    s_eps = _sign_mod(rank.epsilon, modulus)
    s_rho = _sign_mod(rank.rho - 1, modulus)
    if s_eps != s_rho:
        raise ArithmeticError("parity of rho - 1 disagrees with epsilon")
    return s_eps


def verify_fifth_power(
    params: LucasParams,
    p: int,
    variant: int,
    rank: RankInfo | None = None,
    table: SumsTable | None = None,
    cell: Cell | None = None,
) -> CongruenceReport:
    """Check one of the four mod-p^5 expansions of binom(2 rho - 1, rho - 1)_U.

    Variant 1:  (V_rho/2)^(rho-1) * [1 + (U/V) s1 + (U/V)^2 s11 + R] with
                R = D^2 (U/V)^4 when epsilon = 1, else 0.
    Variant 2:  (-1)^eps Q^(rho(rho-1)/2) * [1 + 2 (U/V) s1].
    Variant 3:  (-1)^eps Q^(rho(rho-1)/2) * [1 - 4 (U/V)^2 sum Q^t/U_t^2].
    Variant 4:  (-1)^eps Q^(rho(rho-1)/2) * [1 + (U/V) s1 + (U/V)^2 s11
                + D (U/V)^2 (rho-1)/2].

    Here U/V is U_rho/V_rho, s1 and s11 the tabulated sums.  Needs a prime
    p >= 7 of maximal rank.  A `cell` for (params, p) with m_max >= 2 rho - 1
    and precision >= 5 answers the left side; a `table` of (params, p) with
    precision below 5 is rebuilt, and one of other params, p or rho is
    refused.
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1, 2, 3 or 4")
    rank = _maximal_rank(params, p, 7, rank)
    rho, eps = rank.rho, rank.epsilon
    table = _table(params, p, rank, table, 5)
    modulus = p**5
    lhs = _central_lhs(params, rank, 5, cell)
    _, v_r, uv = _uv_ratio(params, rho, modulus)
    s1 = table.sigma(1) % modulus
    s11 = table.sigma(1, 1) % modulus
    sign = _parity_sign(rank, modulus)
    qpow = pow(params.Q, rho * (rho - 1) // 2, modulus)
    inv2 = pow(2, -1, modulus)
    if variant == 1:
        prefactor = pow(v_r * inv2 % modulus, rho - 1, modulus)
        bracket = 1 + uv * s1 + uv * uv % modulus * s11
        if eps == 1:
            bracket += params.D * params.D % modulus * pow(uv, 4, modulus)
    else:
        prefactor = sign * qpow % modulus
        if variant == 2:
            bracket = 1 + 2 * uv * s1
        elif variant == 3:
            bracket = 1 - uv * uv % modulus * (table.weighted[0] % modulus)
        else:
            half_term = params.D * inv2 % modulus * (rho - 1) % modulus
            bracket = 1 + uv * s1 + uv * uv % modulus * ((s11 + half_term) % modulus)
    rhs = prefactor * (bracket % modulus) % modulus
    return CongruenceReport(
        "P5_%d" % variant,
        params,
        rank,
        {"k": variant},
        5,
        lhs,
        rhs,
        lhs == rhs,
        None,
        zero_cancellations(params, 2 * rho - 1, rho - 1),
    )


def verify_sixth_power(
    params: LucasParams,
    p: int,
    rank: RankInfo | None = None,
    table: SumsTable | None = None,
    cell: Cell | None = None,
) -> CongruenceReport:
    """Check the mod-p^6 expansion of binom(2 rho - 1, rho - 1)_U:

        (-1)^(rho-1) Q^(rho(rho-1)/2) * [1 + 2 (U/V) s1 + (2/3) (U/V)^3 s3].

    Needs a prime p >= 7 of maximal rank (3 is then invertible mod p^6).  A
    `cell` for (params, p) with m_max >= 2 rho - 1 and precision 6 answers
    the left side; a `table` of (params, p) with precision below 6 is
    rebuilt, and one of other params, p or rho is refused.
    """
    rank = _maximal_rank(params, p, 7, rank)
    rho = rank.rho
    table = _table(params, p, rank, table, 6)
    modulus = p**6
    lhs = _central_lhs(params, rank, 6, cell)
    _, _, uv = _uv_ratio(params, rho, modulus)
    s1 = table.sigma(1) % modulus
    s3 = table.sigma(3) % modulus
    sign = _parity_sign(rank, modulus)
    bracket = 1 + 2 * uv * s1 + 2 * pow(3, -1, modulus) * pow(uv, 3, modulus) % modulus * s3
    rhs = sign * pow(params.Q, rho * (rho - 1) // 2, modulus) % modulus * (bracket % modulus) % modulus
    return CongruenceReport(
        "P6",
        params,
        rank,
        {},
        6,
        lhs,
        rhs,
        lhs == rhs,
        None,
        zero_cancellations(params, 2 * rho - 1, rho - 1),
    )


def _min_prime(theorem_id: str) -> int:
    return 5 if theorem_id in ("N", "LjWe") else 7


def _cell(
    params: LucasParams, rank: RankInfo, theorem_set: Sequence[str], ks: Sequence[int]
) -> Cell | None:
    """One residue context for every case of a sweep cell, or None where the
    cases take the exact path, none applies at p, or it cannot be built (each
    case then meets the failure on its own and reports it)."""
    p, rho = rank.p, rank.rho
    if (2 * params.Q * params.D) % p == 0 or all(p < _min_prime(t) for t in theorem_set):
        return None
    # N reaches m = (k+1) rho - 1 and its base case 2 rho - 1; LjWe m = k rho.
    m_max = (max(max(ks, default=0), 1) + 1) * rho - 1
    precision = 3 if set(theorem_set) <= {"N", "LjWe"} else 6
    try:
        return Cell(params, p, m_max, precision)
    except Exception:
        return None


def sweep(
    params_grid: Iterable[LucasParams],
    p_range: tuple[int, int],
    theorem_set: Sequence[str] = THEOREM_IDS,
    k_range: Iterable[int] | None = None,
    l_range: Iterable[int] | None = None,
) -> list[CongruenceReport]:
    """Cartesian sweep over the grid, restricted to maximal-rank primes that
    meet each theorem's preconditions; deterministic (params, p, theorem, k, l)
    order.  Unexpected per-case failures land in error reports rather than
    propagating, so a sweep always returns one report per attempted case.
    """
    for tid in theorem_set:
        if tid not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {tid!r}")
    p_min, p_max = p_range
    ks = list(k_range) if k_range is not None else list(range(6))
    ls = list(l_range) if l_range is not None else ks
    reports: list[CongruenceReport] = []
    for params in params_grid:
        for p in primes_in_range(max(p_min, 3), p_max):
            if params.Q % p == 0:
                continue
            rank = rank_of_appearance(params, p)
            if not rank.maximal:
                continue
            table = blocks = None
            cell = _cell(params, rank, theorem_set, ks)
            for tid in theorem_set:
                if p < _min_prime(tid):
                    continue
                cases: list[dict[str, int]]
                if tid == "N":
                    cases = [{"k": k} for k in ks]
                elif tid == "LjWe":
                    cases = [{"k": k, "l": l} for k in ks for l in ls if l <= k]
                else:
                    cases = [{}]
                for case in cases:
                    try:
                        if tid == "N":
                            reports.append(verify_wolstenholme(params, p, case["k"], rank, cell))
                        elif tid == "LjWe":
                            if blocks is None:
                                blocks = _block_terms(params, rank.rho, max(ks))
                            reports.append(
                                verify_ljunggren(
                                    params, p, case["k"], case["l"], rank, cell, blocks
                                )
                            )
                        elif tid == "P6":
                            if table is None or table.k < 6:
                                table = compute_sums(params, rank, 6)
                            reports.append(verify_sixth_power(params, p, rank, table, cell))
                        else:
                            if table is None:
                                need = 6 if "P6" in theorem_set else 5
                                table = compute_sums(params, rank, need)
                            reports.append(
                                verify_fifth_power(params, p, int(tid[3:]), rank, table, cell)
                            )
                    except Exception as exc:  # recorded, not raised: sweeps must finish
                        reports.append(
                            CongruenceReport(
                                tid, params, rank, case, 0, 0, 0, False, repr(exc)
                            )
                        )
    return reports
