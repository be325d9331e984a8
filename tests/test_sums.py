"""Sum tables: direct-sum oracles, symmetric-function relations, lemma suite."""

import pytest

from lucanomial import (
    LucasParams,
    compute_sums,
    lucas_uv_mod,
    monomial_sum_direct,
    primes_in_range,
    rank_of_appearance,
    verify_power_sums,
    verify_sum_lemmas,
)
from lucanomial.sums import MONOMIAL_KEYS, POWER_MAX, WEIGHTED_MAX, _monomials_from_powers


def ratios(params, rho, modulus):
    """x_t = V_t / U_t mod modulus for t = 1 .. rho-1, each term on its own."""
    out = []
    for t in range(1, rho):
        u, v = lucas_uv_mod(params, t, modulus)
        out.append(v * pow(u, -1, modulus) % modulus)
    return out


def oracle_sums(params, rho, modulus):
    """Power and weighted sums term by term: separate U and V walks, one
    inverse per term."""
    power = [0] * (POWER_MAX + 1)
    weighted = [0] * (WEIGHTED_MAX + 1)
    u_prev, u = 0, 1 % modulus
    v_prev, v = 2 % modulus, params.P % modulus
    qt = 1
    for _ in range(1, rho):
        qt = qt * params.Q % modulus
        inv_u = pow(u, -1, modulus)
        x = v * inv_u % modulus
        w = 4 * qt * inv_u * inv_u % modulus
        xp = 1
        for nu in range(POWER_MAX + 1):
            power[nu] = (power[nu] + xp) % modulus
            if nu <= WEIGHTED_MAX:
                weighted[nu] = (weighted[nu] + w * xp) % modulus
            xp = xp * x % modulus
        u_prev, u = u, (params.P * u - params.Q * u_prev) % modulus
        v_prev, v = v, (params.P * v - params.Q * v_prev) % modulus
    return tuple(power), tuple(weighted)


def table_for(P, Q, p, k):
    params = LucasParams(P, Q)
    rank = rank_of_appearance(params, p)
    return params, rank, compute_sums(params, rank, k)


def test_sigma_zero_counts_terms():
    _, rank, table = table_for(3, 5, 11, 2)
    assert table.sigma(0) == (rank.rho - 1) % 11**2


def test_harmonic_case_vanishes_mod_p2():
    # U(2,1) has V_t/U_t = 2/t; twice the harmonic sum over a full period
    # vanishes mod p^2.
    _, _, table = table_for(2, 1, 7, 2)
    assert table.sigma(1) == 0
    inv = [pow(t, -1, 49) for t in range(1, 7)]
    assert table.sigma(1) == 2 * sum(inv) % 49


def test_fibonacci_sigma2_value():
    _, _, table = table_for(1, -1, 11, 1)
    assert table.sigma(2) == (-2 * LucasParams(1, -1).D) % 11 == 1


@pytest.mark.parametrize("P,Q,p", [(1, -1, 7), (1, -1, 11), (3, 5, 7), (2, 1, 13), (2, 3, 7)])
def test_monomials_match_direct_enumeration(P, Q, p):
    params, rank, table = table_for(P, Q, p, 3)
    modulus = table.modulus
    xs = ratios(params, rank.rho, modulus)
    for key in MONOMIAL_KEYS:
        if len(key) >= 5 and len(xs) > 24:
            continue  # quintuple enumeration only at small ranks
        assert table.monomial[key] == monomial_sum_direct(xs, key, modulus), key


def test_small_prime_table_matches_direct_enumeration():
    # p = 5 exercises the enumeration fallback (5 is not invertible mod 5^k)
    params, rank, table = table_for(2, 2, 5, 3)
    xs = ratios(params, rank.rho, table.modulus)
    for key in MONOMIAL_KEYS:
        assert table.monomial[key] == monomial_sum_direct(xs, key, table.modulus)


@pytest.mark.parametrize("P,Q,p,k", [(1, -1, 7, 4), (3, 5, 11, 6), (2, 1, 13, 3), (1, 2, 11, 5)])
def test_newton_style_relations(P, Q, p, k):
    _, _, t = table_for(P, Q, p, k)
    M = t.modulus
    s1, s2, s3, s4, s5 = (t.sigma(v) for v in range(1, 6))
    assert s1 * s1 % M == (s2 + 2 * t.sigma(1, 1)) % M
    assert (s1**3 - s3) % M == (3 * t.sigma(1, 2) + 6 * t.sigma(1, 1, 1)) % M
    assert s1 * t.sigma(1, 1) % M == (t.sigma(1, 2) + 3 * t.sigma(1, 1, 1)) % M
    assert 6 * t.sigma(1, 1, 1, 1) % M == (
        t.sigma(1, 1) ** 2 - t.sigma(2, 2) - 2 * t.sigma(1, 1, 2)
    ) % M
    assert t.sigma(1, 3) == (s1 * s3 - s4) % M
    assert 2 * t.sigma(2, 2) % M == (s2 * s2 - s4) % M
    assert (2 * t.sigma(1, 1, 2) + 2 * t.sigma(2, 2) + t.sigma(1, 3)) % M == (
        t.sigma(1, 2) * s1
    ) % M
    assert s1 * t.sigma(1, 1, 1, 1) % M == (
        5 * t.sigma(1, 1, 1, 1, 1) + t.sigma(1, 1, 1, 2)
    ) % M


@pytest.mark.parametrize("P,Q,p", [(1, -1, 7), (3, 5, 11), (1, 2, 11)])
def test_weighted_sums_match_power_sum_identity(P, Q, p):
    params, _, t = table_for(P, Q, p, 5)
    M = t.modulus
    for nu in range(0, 4):
        assert t.weighted[nu] == (t.sigma(nu + 2) - params.D * t.sigma(nu)) % M


def test_precision_reduction_agrees():
    params = LucasParams(3, 5)
    rank = rank_of_appearance(params, 11)
    low = compute_sums(params, rank, 3)
    high = compute_sums(params, rank, 5)
    M = low.modulus
    assert low.power == tuple(v % M for v in high.power)
    assert low.weighted == tuple(v % M for v in high.weighted)
    for key in MONOMIAL_KEYS:
        assert low.monomial[key] == high.monomial[key] % M


def test_compute_sums_validation():
    params = LucasParams(1, -5)
    with pytest.raises(ValueError):
        compute_sums(params, rank_of_appearance(LucasParams(1, -1), 7), 0)
    # A rank from other params: the Fibonacci rank of 7 is 8, but U_7 = 301
    # of U(1, -5) is divisible by 7, so that term has no inverse.
    for k in (1, 2, 5):
        with pytest.raises(ValueError):
            compute_sums(params, rank_of_appearance(LucasParams(1, -1), 7), k)


def test_compute_sums_matches_per_term_oracle():
    # The batched inversion must give the table the per-term loop gives, at
    # every rank (maximal or not), for p | D and for the enumerated p = 3, 5.
    seen = set()
    for P in range(-6, 7):
        for Q in range(-6, 7):
            if Q == 0:
                continue
            params = LucasParams(P, Q)
            for p in primes_in_range(3, 100):
                if Q % p == 0:
                    continue
                rank = rank_of_appearance(params, p)
                seen.add(p if p < 7 else "p >= 7")
                if not rank.maximal:
                    seen.add("nonmaximal")
                if params.D % p == 0:
                    seen.add("p | D")
                for k in (1, 2, 5, 6):
                    modulus = p**k
                    table = compute_sums(params, rank, k)
                    power, weighted = oracle_sums(params, rank.rho, modulus)
                    if p < 7:
                        xs = ratios(params, rank.rho, modulus)
                        monomial = {
                            key: monomial_sum_direct(xs, key, modulus) for key in MONOMIAL_KEYS
                        }
                    else:
                        monomial = _monomials_from_powers(power, modulus)
                    assert (table.power, table.weighted, table.monomial) == (
                        power,
                        weighted,
                        monomial,
                    ), (P, Q, p, k)
    assert seen == {3, 5, "p >= 7", "nonmaximal", "p | D"}


def test_power_sum_value_examples():
    params = LucasParams(1, -1)
    r = verify_power_sums(params, rank_of_appearance(params, 7), 1)
    assert r.holds and r.modulus_exponent == 2
    params = LucasParams(2, 1)
    r = verify_power_sums(params, rank_of_appearance(params, 11), 0)
    assert r.holds and (r.lhs, r.rhs) == (10, 10)  # footnote branch, -1 mod p
    params = LucasParams(1, -1)
    r = verify_power_sums(params, rank_of_appearance(params, 11), 2)
    assert r.holds and r.rhs == (-2 * params.D) % 11


def test_power_sum_supplement_any_rank():
    # rank of 13 in the Fibonacci numbers is 7, far from maximal; odd power
    # sums still vanish mod p.
    params = LucasParams(1, -1)
    rank = rank_of_appearance(params, 13)
    assert not rank.maximal
    for nu in (1, 3, 5):
        r = verify_power_sums(params, rank, nu)
        assert r.holds and r.modulus_exponent == 1
    with pytest.raises(ValueError):
        verify_power_sums(params, rank, 2)


def test_lemma_family_fibonacci_and_harmonic():
    params = LucasParams(1, -1)
    reports = verify_sum_lemmas(params, rank_of_appearance(params, 7))
    assert reports and all(r.holds for r in reports)
    params = LucasParams(2, 1)
    reports = verify_sum_lemmas(params, rank_of_appearance(params, 11))
    assert reports and all(r.holds for r in reports)
    # odd rank: no companion-term cases are emitted
    assert not [r for r in reports if r.theorem_id.startswith("companion")]


def test_lemma_family_requires_seven():
    params = LucasParams(2, 2)
    with pytest.raises(ValueError):
        verify_sum_lemmas(params, rank_of_appearance(params, 5))


def test_quintuple_modulus_depends_on_p():
    params = LucasParams(1, -1)
    by_id = {
        (r.theorem_id, r.p): r
        for p in (7, 11)
        for r in verify_sum_lemmas(params, rank_of_appearance(params, p))
    }
    assert by_id[("quintuple_sum", 7)].modulus_exponent == 1
    assert by_id[("quintuple_sum", 11)].modulus_exponent == 2
    assert by_id[("quintuple_sum", 7)].holds and by_id[("quintuple_sum", 11)].holds
