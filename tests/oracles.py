"""Checks the tests use as oracles, over whole ranges or one case at a time;
the package itself never runs them."""

from itertools import islice

from lucanomial import (
    CongruenceReport,
    ConventionViolation,
    LucasParams,
    NonIntegralError,
    RankInfo,
    compute_sums,
    generalized_binomial,
    is_prime,
    legendre,
    lucas_uv_mod,
)
from lucanomial.lucas import u_walk, uv_sequence
from lucanomial.sums import POWER_MAX, _power_sum_report


def check_identities_upto(params: LucasParams, s_max: int) -> bool:
    """True iff the six classical addition/doubling/subtraction identities
    hold exactly at every 0 <= t <= s <= s_max:

        2 U_{s+t} = U_s V_t + U_t V_s          2 V_{s+t} = V_s V_t + D U_s U_t
        V_t^2 - D U_t^2 = 4 Q^t                U_{2t} = U_t V_t
        V_{2t} = V_t^2 - 2 Q^t                 2 Q^t U_{s-t} = U_s V_t - U_t V_s
    """
    us, vs = uv_sequence(params, 2 * s_max)
    D, Q = params.D, params.Q
    qpow = [1]
    for _ in range(s_max):
        qpow.append(qpow[-1] * Q)
    for t in range(s_max + 1):
        qt = qpow[t]
        if vs[t] ** 2 - D * us[t] ** 2 != 4 * qt:
            return False
        if us[2 * t] != us[t] * vs[t] or vs[2 * t] != vs[t] ** 2 - 2 * qt:
            return False
        ut, vt = us[t], vs[t]
        for s in range(t, s_max + 1):
            a, b = us[s] * vt, ut * vs[s]
            if 2 * us[s + t] != a + b:
                return False
            if 2 * vs[s + t] != vs[s] * vt + D * us[s] * ut:
                return False
            if 2 * qt * us[s - t] != a - b:
                return False
    return True


def euler_criterion_check(params: LucasParams, p: int) -> bool:
    """Self-test of the rank machinery: p | U_{(p-eps)/2} iff Q is a square mod p.

    Requires p coprime to 2*D*Q.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if (2 * params.D * params.Q) % p == 0:
        raise ValueError("requires p coprime to 2DQ")
    epsilon = legendre(params.D, p)
    u, _ = lucas_uv_mod(params, (p - epsilon) // 2, p)
    return (u == 0) == (legendre(params.Q, p) == 1)


def integrality_sweep(params: LucasParams, m_max: int) -> bool:
    """True iff binom(m, n)_U is a well-defined integer for all 0 <= n <= m <= m_max."""
    us = list(islice(u_walk(params.P, params.Q), m_max + 1))
    for m in range(m_max + 1):
        for n in range(m + 1):
            try:
                generalized_binomial(us, m, n)
            except (NonIntegralError, ConventionViolation):
                return False
    return True


def verify_power_sums(params: LucasParams, rank: RankInfo, nu: int) -> CongruenceReport:
    """The report on the power sum sigma(nu), 0 <= nu <= 5, at its stated
    modulus, from a table of its own mod p^2: the lemma suite's report for
    that nu, also at a rank that is not maximal, where odd nu still gives
    0 mod p.  No table is taken from the caller, so a table of another prime
    cannot answer for this one."""
    if not 0 <= nu <= POWER_MAX:
        raise ValueError(f"nu must be in 0..{POWER_MAX}")
    return _power_sum_report(params, rank, nu, compute_sums(params, rank, 2))
