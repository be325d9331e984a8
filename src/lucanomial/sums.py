"""Sums of products of V_t/U_t over 0 < t < rank, mod p^k, and their laws.

With x_t = V_t/U_t (every U_t is invertible mod p^k for 0 < t < rho), the
table holds the power sums x_1^v + ... + x_{rho-1}^v for v <= 5, the monomial
symmetric sums over distinct indices for every exponent multiset used by the
fifth- and sixth-power congruences, and the weighted sums
4 Q^t V_t^v / U_t^(v+2) for v <= 3.

One walk of the U recurrence mod p^k gives U_1 .. U_{rho+1}, and the
identity V_t = 2 U_{t+1} - P U_t gives V without a second walk, V_rho and
U_rho/V_rho included.  The U_t are inverted all at once, with one modular
inverse per (P, Q, p) cell.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations
from typing import NamedTuple, Sequence

from .lucas import LucasParams, u_walk
from .ranks import NonMaximalRankError, RankInfo, _euler, require_prime
from .reports import CongruenceReport

__all__ = [
    "SumsTable",
    "compute_sums",
    "monomial_sum_direct",
    "verify_sum_lemmas",
]

# The least prime the lemma suite is stated for.
LEMMA_MIN_P = 7
POWER_MAX = 5
WEIGHTED_MAX = 3
MONOMIAL_KEYS = (
    (1, 1),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 2),
    (2, 3),
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 2),
    (1, 1, 3),
    (1, 1, 1, 1),
    (1, 1, 1, 2),
    (1, 1, 1, 1, 1),
)


class SumsTable(NamedTuple):
    """Residues mod p^k of the tabulated sums for one (params, p)."""

    params: LucasParams
    p: int
    rho: int
    k: int
    power: tuple[int, ...]
    monomial: dict[tuple[int, ...], int]
    weighted: tuple[int, ...]
    v_rho: int
    ratio: int  # U_rho / V_rho

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def sigma(self, *expo: int) -> int:
        """Sum over distinct indices of the monomial with these exponents.

        sigma(v) is the power sum; sigma(1, 2) the sum of x_s * x_t^2 over
        distinct pairs, and so on.  Order of exponents does not matter.
        """
        if len(expo) == 1:
            return self.power[expo[0]]
        return self.monomial[tuple(sorted(expo))]


def monomial_sum_direct(xs: Sequence[int], expo: Sequence[int], modulus: int) -> int:
    """Brute-force monomial symmetric sum over distinct indices; test oracle,
    O(len(xs)^len(expo))."""
    total = 0
    r = len(expo)
    assignments = sorted(set(permutations(expo)))
    for combo in combinations(range(len(xs)), r):
        for perm in assignments:
            term = 1
            for i, e in zip(combo, perm):
                term = term * pow(xs[i], e, modulus) % modulus
            total = (total + term) % modulus
    return total


def _monomials_from_powers(s: Sequence[int], modulus: int) -> dict[tuple[int, ...], int]:
    # Newton's identities and products of monomial sums; exact identities in
    # the x_t, so they hold verbatim mod p^k.  Divisions are by 2, 3, 4, 5
    # only, hence p >= 7 at the call site.
    inv2 = pow(2, -1, modulus)
    inv3 = pow(3, -1, modulus)
    inv5 = pow(5, -1, modulus)
    e1 = s[1]
    e2 = (e1 * s[1] - s[2]) * inv2 % modulus
    e3 = (e2 * s[1] - e1 * s[2] + s[3]) * inv3 % modulus
    e4 = (e3 * s[1] - e2 * s[2] + e1 * s[3] - s[4]) * inv2 * inv2 % modulus
    e5 = (e4 * s[1] - e3 * s[2] + e2 * s[3] - e1 * s[4] + s[5]) * inv5 % modulus
    m21 = (s[1] * s[2] - s[3]) % modulus
    m31 = (s[1] * s[3] - s[4]) % modulus
    m41 = (s[1] * s[4] - s[5]) % modulus
    m22 = (s[2] * s[2] - s[4]) * inv2 % modulus
    m32 = (s[2] * s[3] - s[5]) % modulus
    m211 = (e2 * s[2] - m31) % modulus
    m221 = (e1 * m22 - m32) % modulus
    m311 = (e2 * s[3] - m41) % modulus
    m2111 = (e3 * s[2] - m311) % modulus
    return {
        (1, 1): e2,
        (1, 2): m21,
        (1, 3): m31,
        (1, 4): m41,
        (2, 2): m22,
        (2, 3): m32,
        (1, 1, 1): e3,
        (1, 1, 2): m211,
        (1, 2, 2): m221,
        (1, 1, 3): m311,
        (1, 1, 1, 1): e4,
        (1, 1, 1, 2): m2111,
        (1, 1, 1, 1, 1): e5,
    }


def compute_sums(params: LucasParams, rank: RankInfo, k: int) -> SumsTable:
    """Build the whole table mod p^k.

    Multi-index sums come from the power sums through exact symmetric-function
    relations; for p in {3, 5} the divisions those need are not all invertible
    and the table (rank <= p+1 <= 6 there) is enumerated directly instead.
    Refuses p as `ranks.require_prime` does, then a rank that is not p's.
    """
    p, rho = rank.p, rank.rho
    require_prime(params, p)
    if k < 1:
        raise ValueError("precision k must be positive")
    modulus = p**k
    P, Q = params.P, params.Q
    # Every rank is at most p + 1, so a rho past it is refused before its walk.
    if not 1 <= rho <= p + 1:
        raise ValueError(f"{rank} is not the rank of {p} in U({P}, {Q})")
    # One walk gives U_0 .. U_{rho+1}; V_t = 2 U_{t+1} - P U_t needs no second one.
    us = list(islice(u_walk(P, Q, modulus), rho + 2))
    # Montgomery's trick: U_1 .. U_{rho-1} are all units mod p (rho is the
    # first index with p | U_t), so their product is one, and one inverse of
    # it, walked back through the prefix products, gives every U_t^-1.  A rho
    # past p's rank makes the product a non-unit, and pow raises; one below it
    # leaves U_rho a unit.  epsilon must be (D | p), and maximal must say
    # rho = p - epsilon.
    prefix, acc = [1], 1
    for u in us[1:rho]:
        acc = acc * u % modulus
        prefix.append(acc)
    inv = pow(acc, -1, modulus)
    eps = rank.epsilon
    if us[rho] % p or eps != _euler(params.D, p) or rank.maximal != (rho == p - eps):
        raise ValueError(f"{rank} is not the rank of {p} in U({P}, {Q})")
    # One pass back over the terms, t = rho-1 .. 1, with q = 4 Q^t.  Only what
    # the next step reads is reduced: U_t^-1, the running inverse, x_t, the
    # weight 4 Q^t / U_t^2 and q.  x^2, x^3 and the nine sums grow unreduced
    # and are reduced once, at the end.  The x_t are kept only for p < 7,
    # whose table is enumerated from them.
    q, q_inv = 4 * pow(Q, rho - 1, modulus) % modulus, pow(Q, -1, modulus)
    xs = [] if p < 7 else None
    s1 = s2 = s3 = s4 = s5 = w0 = w1 = w2 = w3 = 0
    for u, u_next, before in zip(us[rho - 1 : 0 : -1], us[rho:1:-1], prefix[rho - 2 :: -1]):
        iu = inv * before % modulus
        inv = inv * u % modulus
        x = (2 * u_next * iu - P) % modulus
        x2 = x * x
        x3 = x2 * x
        w = q * iu * iu % modulus
        q = q * q_inv % modulus
        s1 += x
        s2 += x2
        s3 += x3
        s4 += x2 * x2
        s5 += x2 * x3
        w0 += w
        w1 += w * x
        w2 += w * x2
        w3 += w * x3
        if xs is not None:
            xs.append(x)
    power = tuple(s % modulus for s in (rho - 1, s1, s2, s3, s4, s5))
    weighted = tuple(w % modulus for w in (w0, w1, w2, w3))
    if xs is None:
        monomial = _monomials_from_powers(power, modulus)
    else:
        monomial = {key: monomial_sum_direct(xs, key, modulus) for key in MONOMIAL_KEYS}
    # V_rho is a unit: V_rho^2 - D U_rho^2 = 4 Q^rho with p | U_rho.
    v_rho = (2 * us[rho + 1] - P * us[rho]) % modulus
    ratio = us[rho] * pow(v_rho, -1, modulus) % modulus
    return SumsTable(params, p, rho, k, power, monomial, weighted, v_rho, ratio)


def _power_sum_report(
    params: LucasParams, rank: RankInfo, nu: int, table: SumsTable
) -> CongruenceReport:
    """The report on the power sum sigma(nu) at its stated modulus, read from
    `table`, the sums of (params, rank) mod p^k for some k >= 2.

    At maximal rank (and p >= nu + 3): 0 mod p^2 for odd nu; for even nu,
    0 mod p when epsilon is 0 or -1 and -2 D^(nu/2) mod p when epsilon is 1;
    exception: nu = 0 with epsilon = 0 gives -1 mod p.  At any rank, odd nu
    still gives 0 mod p.
    """
    p, eps = rank.p, rank.epsilon
    if rank.maximal and p >= nu + 3:
        if nu % 2:
            j, rhs = 2, 0
        elif eps == 1:
            j, rhs = 1, (-2 * pow(params.D, nu // 2, p)) % p
        elif nu == 0 and eps == 0:
            j, rhs = 1, p - 1
        else:
            j, rhs = 1, 0
    elif nu % 2:
        j, rhs = 1, 0  # holds at any rank
    else:
        raise ValueError("even nu needs maximal rank and p >= nu + 3")
    return CongruenceReport.of("power_sums", params, rank, {"k": nu}, j, table.power[nu], rhs)


def verify_sum_lemmas(params: LucasParams, rank: RankInfo) -> list[CongruenceReport]:
    """Verify every tabulated-sum law at its stated modulus for one maximal-rank
    prime p >= LEMMA_MIN_P (7); one report per instance.

    Covers the power-sum values, the pair/triple/quadruple/quintuple sums, the
    weighted sums (for p >= nu + 5), the companion-term values V at odd
    multiples of an even rank mod p^2 with their doubled indices, and the two
    higher-precision reductions of sigma(1) (mod p^4 and mod p^5).
    """
    p, rho, eps = rank.p, rank.rho, rank.epsilon
    if p < LEMMA_MIN_P:
        raise ValueError(f"the lemma family needs p >= {LEMMA_MIN_P}")
    # The table refuses a rank that is not p's: only then is its maximal flag trusted.
    table = compute_sums(params, rank, 5)
    if not rank.maximal:
        raise NonMaximalRankError(f"rank of {p} is {rho}, not {p - eps}")
    M5 = table.modulus
    D, Q = params.D, params.Q
    reports = [
        _power_sum_report(params, rank, nu, table) for nu in range(POWER_MAX + 1) if p >= nu + 3
    ]

    def check(tid, inputs, j, lhs, rhs, error=None):
        reports.append(CongruenceReport.of(tid, params, rank, inputs, j, lhs, rhs, error))

    check("pair_sum", {}, 1, table.sigma(1, 1), D if eps == 1 else 0)
    check("triple_sum", {}, 2, table.sigma(1, 1, 1), 0)
    check("quadruple_sum", {}, 1, table.sigma(1, 1, 1, 1), D * D if eps == 1 else 0)
    # The quintuple sum vanishes mod p^2 once p >= 11; at p = 7 the chain that
    # lifts it from mod p breaks (it needs sigma(5) = 0 mod p^2, which wants
    # p >= 5 + 3), so mod p is all that survives there and all that the
    # sixth-power expansion consumes.
    check("quintuple_sum", {}, 2 if p >= 11 else 1, table.sigma(1, 1, 1, 1, 1), 0)

    if rho % 2 == 0:
        # V at odd multiples of the rank: V_{k rho}/2 = -Q^(k rho / 2) mod p^2,
        # and doubling any such index lands on 2 Q^t mod p^2.  V_{j rho} is
        # V_j of the pair (V_rho, Q^rho), the one LjWe's U' is built from, so
        # one walk W of its U gives them all: V_j = 2 W_{j+1} - V_rho W_j.
        p2 = p * p
        inv2 = (p2 + 1) // 2
        v_r = table.v_rho % p2
        ws = list(islice(u_walk(v_r, pow(Q, rho, p2), p2), 12))
        for mult in (1, 3, 5):
            t = mult * rho
            vt, v2t = ((2 * ws[j + 1] - v_r * ws[j]) % p2 for j in (mult, 2 * mult))
            check("companion_odd_multiple", {"k": mult}, 2, vt * inv2, -pow(Q, t // 2, p2))
            check("companion_double", {"k": mult}, 2, v2t, 2 * pow(Q, t, p2))

    for nu in range(WEIGHTED_MAX + 1):
        if p < nu + 5:
            continue
        lhs = table.weighted[nu]
        error = None
        if lhs != (table.power[nu + 2] - D * table.power[nu]) % M5:
            error = "weighted sum disagrees with sigma(nu+2) - D sigma(nu)"
        check("weighted_sum", {"k": nu}, 2 if nu % 2 else 1, lhs, 0, error)

    uv = table.ratio
    check("sum_reflection", {}, 4, -2 * table.sigma(1), uv * table.weighted[0])
    half_term = pow(2, -1, M5) * (rho - 1) % M5 * D % M5
    rhs17 = uv * uv % M5 * ((table.sigma(1, 1) + half_term) % M5)
    check("pair_reduction", {}, 5, uv * table.sigma(1), rhs17)
    return reports
