"""Sum tables: direct-sum oracles, symmetric-function relations, lemma suite."""

import tracemalloc

import pytest

from lucanomial import (
    LucasParams,
    NonMaximalRankError,
    RankInfo,
    compute_sums,
    lucas_uv_mod,
    monomial_sum_direct,
    primes_in_range,
    rank_of_appearance,
    verify_sum_lemmas,
)
from lucanomial import sums
from lucanomial.ranks import maximal_ranks
from lucanomial.sums import MONOMIAL_KEYS, POWER_MAX, WEIGHTED_MAX, _monomials_from_powers
from oracles import verify_power_sums


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
    # Only p's own rank is taken.  The Fibonacci rank of 11 is 10, with
    # epsilon 1 and maximal; each forged field is refused, a rho past the
    # rank by its non-unit product and any other by the rank's own checks.
    # At p = 7, which divides D = 0 of (2, 1), the rank is 7 and epsilon 0;
    # an epsilon of 1 or -1 is refused also where the maximal flag agrees
    # with it.
    fib, nat = LucasParams(1, -1), LucasParams(2, 1)
    true = rank_of_appearance(fib, 11)
    assert true == RankInfo(11, 10, 1, True, {1: 10})
    true_nat = rank_of_appearance(nat, 7)
    assert true_nat == RankInfo(7, 7, 0, True, {1: 7})
    forged = [
        (fib, true._replace(rho=4, maximal=False)),
        (fib, true._replace(rho=6, maximal=False)),
        (fib, true._replace(rho=12, maximal=False)),
        (fib, true._replace(epsilon=-1)),
        (fib, true._replace(epsilon=0)),
        (fib, true._replace(maximal=False)),
    ] + [
        (nat, true_nat._replace(epsilon=eps, maximal=maximal))
        for eps in (1, -1)
        for maximal in (True, False)
    ]
    for params, rank in forged:
        for k in (1, 2, 5):
            with pytest.raises(ValueError):
                compute_sums(params, rank, k)
        # Taken on trust, a rho of 4 or 6 gives a false counterexample to the
        # odd power sum, and an epsilon of -1 or 0 fails 5 lemma reports.
        with pytest.raises(ValueError):
            verify_power_sums(params, rank, 1)
        with pytest.raises(ValueError):
            verify_sum_lemmas(params, rank)
    assert all(r.holds for r in verify_sum_lemmas(fib, true))
    assert all(r.holds for r in verify_sum_lemmas(nat, true_nat))
    # A forged maximal flag is refused as a forged rank, not taken for a
    # non-maximal one; the true rank of 29, 14 = (29 - 1) / 2, is refused as
    # non-maximal.
    with pytest.raises(ValueError, match="is not the rank of 11 in U") as err:
        verify_sum_lemmas(fib, true._replace(maximal=False))
    assert type(err.value) is ValueError
    with pytest.raises(NonMaximalRankError, match="rank of 29 is 14, not 28"):
        verify_sum_lemmas(fib, rank_of_appearance(fib, 29))


def test_compute_sums_refuses_a_rho_past_p_plus_one_before_its_walk():
    # Every rank is at most p + 1: a rho of a million is refused before a
    # walk of a million terms is made and kept.
    forged = RankInfo(11, 10**6, 1, False, {})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="is not the rank of 11 in U"):
            compute_sums(LucasParams(1, -1), forged, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
                    u_r, v_r = lucas_uv_mod(params, rank.rho, modulus)
                    ratio = u_r * pow(v_r, -1, modulus) % modulus
                    assert (table.power, table.weighted, table.monomial) == (
                        power,
                        weighted,
                        monomial,
                    ), (P, Q, p, k)
                    assert (table.v_rho, table.ratio) == (v_r, ratio), (P, Q, p, k)
    assert seen == {3, 5, "p >= 7", "nonmaximal", "p | D"}


@pytest.mark.parametrize("P,Q,p", [(1, -1, 1019), (1, -1, 2003), (-3, 5, 1033), (-3, 5, 2003)])
def test_compute_sums_matches_per_term_oracle_at_large_p(P, Q, p):
    # The sums are left unreduced until the end, so they are widest at large
    # p and k: maximal ranks of both epsilon, for a negative P too.
    params = LucasParams(P, Q)
    rank = rank_of_appearance(params, p)
    assert rank.maximal
    for k in (5, 6):
        modulus = p**k
        table = compute_sums(params, rank, k)
        assert (table.power, table.weighted) == oracle_sums(params, rank.rho, modulus), k
        u_r, v_r = lucas_uv_mod(params, rank.rho, modulus)
        assert (table.v_rho, table.ratio) == (v_r, u_r * pow(v_r, -1, modulus) % modulus), k


def test_companion_values_match_the_ladder():
    # The lemma suite reads V at multiples of an even rank off one walk of
    # U(V_rho, Q^rho); each value must be the ladder's V_{j rho} mod p^2.
    cells = 0
    for P in range(-5, 6):
        for Q in [q for q in range(-5, 6) if q]:
            params = LucasParams(P, Q)
            for rank in maximal_ranks(params, 7, 199):
                if rank.rho % 2:
                    continue
                cells += 1
                p2 = rank.p**2
                reports = [r for r in verify_sum_lemmas(params, rank)
                           if r.theorem_id.startswith("companion_")]
                assert len(reports) == 6, (P, Q, rank.p)
                for r in reports:
                    j = r.inputs["k"] * (2 if r.theorem_id == "companion_double" else 1)
                    _, v = lucas_uv_mod(params, j * rank.rho, p2)
                    if r.theorem_id == "companion_odd_multiple":
                        v = v * pow(2, -1, p2) % p2
                    assert r.lhs == v, (P, Q, rank.p, r.theorem_id, j)
    assert cells > 100


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
    # An even nu needs maximal rank; a nu outside 0..POWER_MAX is never tabulated.
    for nu in (2, -1, POWER_MAX + 1):
        with pytest.raises(ValueError):
            verify_power_sums(params, rank, nu)


def test_power_sums_take_no_table():
    # A table of another prime would answer for this one (lhs 5, rhs 1 at
    # p = 11 from p = 19's table), so none is taken; the lemma suite reads its
    # own table and reports each power sum as verify_power_sums does.
    params = LucasParams(1, -1)
    rank = rank_of_appearance(params, 11)
    foreign = compute_sums(params, rank_of_appearance(params, 19), 2)
    with pytest.raises(TypeError):
        verify_power_sums(params, rank, 2, table=foreign)
    assert verify_power_sums(params, rank, 2).holds
    for params in (LucasParams(1, -1), LucasParams(2, 1), LucasParams(3, 3)):
        for rank in maximal_ranks(params, 7, 60):
            lemmas = [r for r in verify_sum_lemmas(params, rank) if r.theorem_id == "power_sums"]
            expected = [verify_power_sums(params, rank, nu) for nu in range(POWER_MAX + 1)
                        if rank.p >= nu + 3]
            assert lemmas == expected and all(r.holds for r in lemmas)


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


def test_lemma_family_refuses_a_non_maximal_rank():
    params = LucasParams(1, -1)
    rank = rank_of_appearance(params, 29)  # rho = 14, not 29 - 1
    with pytest.raises(NonMaximalRankError):
        verify_sum_lemmas(params, rank)


def test_weighted_sum_inconsistency_is_reported(monkeypatch):
    params = LucasParams(1, -1)
    rank = rank_of_appearance(params, 7)
    table = compute_sums(params, rank, 5)
    # Off by p^4: the weighted sum's own law mod p^2 still holds, but it no
    # longer equals sigma(3) - D sigma(1) mod p^5.
    weighted = list(table.weighted)
    weighted[1] = (weighted[1] + 7**4) % table.modulus
    monkeypatch.setattr(sums, "compute_sums", lambda *args: table._replace(weighted=tuple(weighted)))
    reports = {(r.theorem_id, r.inputs.get("k")): r for r in verify_sum_lemmas(params, rank)}
    bad = reports[("weighted_sum", 1)]
    assert bad.lhs == bad.rhs == 0
    assert bad.error == "weighted sum disagrees with sigma(nu+2) - D sigma(nu)"
    assert not bad.holds
    assert [key for key, r in reports.items() if not r.holds] == [("weighted_sum", 1)]


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
