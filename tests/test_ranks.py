"""Primality, Legendre symbol and rank-of-appearance behavior."""

import random

import pytest

from lucanomial import (
    Cell,
    LucasParams,
    NoRankError,
    RankInfo,
    compute_sums,
    is_prime,
    legendre,
    lucanomial_residue,
    lucas_uv_mod,
    primes_in_range,
    rank_of_appearance,
)
from lucanomial.lucas import uv_sequence
from lucanomial.ranks import maximal_ranks, rank_ladder
from oracles import euler_criterion_check


def naive_rank(params, p, limit=None):
    """Oracle: first positive index whose exact term is divisible by p."""
    limit = limit or p + 1
    us = uv_sequence(params, limit)[0]
    return next((n for n in range(1, limit + 1) if us[n] % p == 0), None)


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    # Below 41^2 is_prime stops after trial division by the primes <= 37;
    # 37^2, 41^2 and 41 * 43 sit on either side of that cut.
    for n in range(-5, 20_000):
        assert is_prime(n) == trial(n), n
    assert not any(map(is_prime, (1369, 1681, 1763)))
    for n in (10**9 + 7, 10**9 + 9, 2**31 - 1, 10**12 + 39):
        assert is_prime(n)
    assert not is_prime(10**12 + 1)


def test_primes_in_range():
    assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(24, 28) == []
    assert primes_in_range(29, 29) == [29]
    assert primes_in_range(10, 2) == []


def test_primes_in_range_matches_is_prime():
    # The segmented sieve against Miller-Rabin: ranges that start at or below
    # 2, ranges that start above isqrt(hi), one-entry and empty ranges; and
    # every one-number range below 2,000, which is_prime answers alone.
    rng = random.Random(10)
    ranges = [(-5, 1), (-5, 2), (0, 3), (2, 2), (4, 4), (3, 4), (9, 9), (121, 121), (90, 80)]
    for _ in range(200):
        lo = rng.choice([rng.randint(-3, 2), rng.randint(3, 2000), rng.randint(10**6, 10**8)])
        ranges.append((lo, lo + rng.randint(-2, 600)))
    ranges += [(n, n) for n in range(2000)]
    for lo, hi in ranges:
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)


def test_legendre_examples():
    assert legendre(5, 11) == 1
    assert legendre(5, 7) == -1
    assert legendre(0, 7) == 0


def test_legendre_against_square_scan():
    for p in primes_in_range(3, 60):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-20, 40):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_rank_examples():
    fib = LucasParams(1, -1)
    info = rank_of_appearance(fib, 7)
    assert (info.rho, info.epsilon, info.maximal) == (8, -1, True)
    info = rank_of_appearance(fib, 13)
    assert (info.rho, info.maximal) == (7, False)
    info = rank_of_appearance(LucasParams(2, 1), 11)
    assert (info.rho, info.epsilon, info.maximal) == (11, 0, True)


def test_rank_rejects_p_dividing_q():
    with pytest.raises(NoRankError):
        rank_of_appearance(LucasParams(2, 2), 2)
    with pytest.raises(NoRankError):
        rank_of_appearance(LucasParams(1, -5), 5)


# Each entry point that takes a prime, called as f(params, p, k, m, n).
_ENTRIES = {
    "rank_of_appearance": lambda params, p, k, m, n: rank_of_appearance(params, p),
    "Cell": lambda params, p, k, m, n: Cell(params, p, m, k),
    # The default method, which is "rank".
    "residue-auto": lambda params, p, k, m, n: lucanomial_residue(params, m, n, p, k),
    "residue-rank": lambda params, p, k, m, n: lucanomial_residue(params, m, n, p, k, "rank"),
    "residue-exact": lambda params, p, k, m, n: lucanomial_residue(params, m, n, p, k, "exact"),
    # The rank is refused before it is read, so any will do.
    "compute_sums": lambda params, p, k, m, n: compute_sums(
        params, RankInfo(p, 4, 0, True, {1: 4}), k
    ),
}
_RESIDUES = ("Cell", "residue-auto", "residue-rank", "residue-exact")

# (input, its (params, p, k, m, n), the exception, the entries that take it)
_BAD_INPUTS = [
    ("p=2,Q-even", (LucasParams(1, 2), 2, 3, 9, 4), NoRankError, tuple(_ENTRIES)),
    ("p=2,Q-odd", (LucasParams(1, -1), 2, 3, 9, 4), ValueError, tuple(_ENTRIES)),
    ("p=9", (LucasParams(1, -1), 9, 3, 9, 4), ValueError, tuple(_ENTRIES)),
    ("p|Q", (LucasParams(1, -5), 5, 3, 9, 4), NoRankError, tuple(_ENTRIES)),
    ("k=0", (LucasParams(1, -1), 11, 0, 9, 4), ValueError, _RESIDUES + ("compute_sums",)),
    ("m<0", (LucasParams(1, -1), 11, 3, -1, 0), ValueError, _RESIDUES),
    ("n<0", (LucasParams(1, -1), 11, 3, 9, -1), ValueError, _RESIDUES[1:]),
]


@pytest.mark.parametrize(
    "args, error, entry",
    [
        pytest.param(args, error, entry, id=f"{name}-{entry}")
        for name, args, error, entries in _BAD_INPUTS
        for entry in entries
    ],
)
def test_every_entry_refuses_a_bad_input_alike(args, error, entry):
    # One rule refuses p unless it is an odd prime not dividing Q, wherever p
    # comes in: p | Q is always NoRankError, and every other refusal is a
    # plain ValueError.
    with pytest.raises(ValueError) as refused:
        _ENTRIES[entry](*args)
    assert refused.type is error


def test_rank_rejects_non_prime():
    with pytest.raises(ValueError):
        rank_of_appearance(LucasParams(1, -1), 15)


@pytest.mark.parametrize("P,Q", [(1, -1), (2, 1), (3, 5), (2, 2), (0, 3), (-3, -2)])
def test_rank_agrees_with_naive_scan(P, Q):
    params = LucasParams(P, Q)
    for p in primes_in_range(3, 120):
        if params.Q % p == 0:
            continue
        assert rank_of_appearance(params, p).rho == naive_rank(params, p)


@pytest.mark.parametrize("P,Q", [(1, -1), (3, 5), (-3, 2), (5, 3)])
def test_rank_divides_p_minus_epsilon(P, Q):
    params = LucasParams(P, Q)
    for p in primes_in_range(5, 500):
        if (2 * params.D * params.Q) % p == 0:
            continue
        info = rank_of_appearance(params, p)
        assert (p - info.epsilon) % info.rho == 0


@pytest.mark.parametrize("P,Q", [(1, -1), (3, 5), (-3, 2), (5, 3)])
def test_euler_criterion_sweep(P, Q):
    params = LucasParams(P, Q)
    for p in primes_in_range(5, 500):
        if (2 * params.D * params.Q) % p == 0:
            continue
        assert euler_criterion_check(params, p)


def test_euler_criterion_examples():
    assert euler_criterion_check(LucasParams(1, -1), 11)
    assert euler_criterion_check(LucasParams(1, -1), 29)
    with pytest.raises(ValueError):
        euler_criterion_check(LucasParams(2, 1), 7)  # D = 0


@pytest.mark.parametrize("P,Q", [(1, -1), (3, 5), (2, 3)])
def test_prime_power_ranks_characterize_divisibility(P, Q):
    params = LucasParams(P, Q)
    for p in (3, 5, 7):
        if params.Q % p == 0:
            continue
        info = rank_of_appearance(params, p, exponents=3)
        us = uv_sequence(params, 3 * info.rho_prime_power[3])[0]
        for a in (1, 2, 3):
            rho_a = info.rho_prime_power[a]
            assert rho_a % info.rho == 0
            for t in range(1, 3 * rho_a + 1):
                if t < len(us):
                    assert (us[t] % p**a == 0) == (t % rho_a == 0)


def test_prime_power_ranks_nest():
    info = rank_of_appearance(LucasParams(1, -1), 7, exponents=4)
    ladder = [info.rho_prime_power[a] for a in (1, 2, 3, 4)]
    for lower, higher in zip(ladder, ladder[1:]):
        assert higher % lower == 0


def scanned_prime_power_ranks(params, p, exponents):
    """Oracle: rank(p^a) as the first of j * rank(p^(a-1)), j = 1..p, where U
    vanishes mod p^a.  The multiples are walked with U_{jr} = U_r * W_j,
    W = U(V_r, Q^r), so that the whole scan costs one pass per rung."""
    powers = {1: naive_rank(params, p)}
    for a in range(2, exponents + 1):
        r, mod = powers[a - 1], p**a
        u_r, v_r = lucas_uv_mod(params, r, mod)
        q_r = pow(params.Q, r, mod)
        w_prev, w = 0, 1
        for j in range(1, p + 1):
            if u_r * w % mod == 0:
                powers[a] = j * r
                break
            w_prev, w = w, (v_r * w - q_r * w_prev) % mod
    return powers


def test_ladder_matches_full_scan():
    # Every |P|, |Q| <= 6 and odd prime p <= 113 not dividing Q, p | D
    # included: 4,446 ladders, 13,338 rungs past the first.
    checked = 0
    for P in range(-6, 7):
        for Q in range(-6, 7):
            if Q == 0:
                continue
            params = LucasParams(P, Q)
            for p in primes_in_range(3, 113):
                if Q % p == 0:
                    continue
                info = rank_of_appearance(params, p, exponents=4)
                assert info.rho_prime_power == scanned_prime_power_ranks(params, p, 4), (P, Q, p)
                checked += 1
    assert checked == 4446


def test_rank_ladder_stops_at_zero_terms():
    # U(2,2) vanishes at every multiple of 4, so the rank of every power of 5
    # is 4 and the ladder must not grow unboundedly.
    ladder = rank_ladder(LucasParams(2, 2), 5, 1000)
    assert ladder[0] == 4
    assert len(ladder) <= 2


@pytest.mark.parametrize(
    "dividing, p_max, t_max, counts",
    [
        pytest.param(True, 49, lambda p: 2 * p * p, (136, 113272), id="p|D"),
        pytest.param(
            False, 13, lambda p: p * p * (p + 1) if p <= 5 else 2 * p * p, (422, 74096), id="p!|D"
        ),
    ],
)
def test_rank_ladder_counts_valuations(dividing, p_max, t_max, counts):
    # The rank path needs (a) p^a | U_t iff rank(p^a) | t and (b) the exact
    # law v_p(U_t) = v_p(U_rho) + v_p(t / rho) for rho | t; neither uses p
    # not dividing D.  Then the rungs dividing t count v_p(U_t) exactly.
    # Checked for |P|, |Q| <= 5 and t <= t_max(p) at each odd prime p not
    # dividing Q: with p | D for p < 50 (the D = 0 pairs at every such p),
    # and with p not dividing D for p <= 13.  There t reaches p^2 rho at
    # p <= 5, and 38 cells have rank(p^2) = rho, among them e = 3 at
    # (+-5, -1, 3) and (+-5, 3, 7).
    cells = terms = 0
    for P in range(-5, 6):
        for Q in range(-5, 6):
            if Q == 0:
                continue
            params = LucasParams(P, Q)
            for p in primes_in_range(3, p_max):
                if Q % p == 0 or (params.D % p == 0) != dividing:
                    continue
                ladder = rank_ladder(params, p, t_max(p))
                us = uv_sequence(params, t_max(p))[0]
                for t, u in enumerate(us[1:], 1):
                    if u == 0:
                        continue
                    v = 0
                    while u % p == 0:
                        u //= p
                        v += 1
                    assert v == sum(t % r == 0 for r in ladder), (P, Q, p, t)
                    terms += 1
                cells += 1
    assert (cells, terms) == counts


def test_rank_ladder_is_a_prefix_of_the_prime_power_ranks():
    # The ladder and rank_of_appearance read one climb: the ladder's rungs
    # are the first prime-power ranks.  (2, 2) at p = 5 stops on the zero
    # term U_4.
    for P in range(-5, 6):
        for Q in range(-5, 6):
            if Q == 0:
                continue
            params = LucasParams(P, Q)
            for p in primes_in_range(3, 59):
                if Q % p == 0:
                    continue
                ladder = rank_ladder(params, p, 2 * p * p)
                powers = rank_of_appearance(params, p, len(ladder)).rho_prime_power
                assert ladder == [powers[a] for a in range(1, len(ladder) + 1)], (P, Q, p)
    assert rank_ladder(LucasParams(2, 2), 5, 2 * 5 * 5) == [4]


def test_maximal_ranks_climbs_only_the_primes_it_yields(monkeypatch):
    # By the law of repetition a climb probes U_rho alone, and only while
    # the rung is rho, however many exponents it is asked for; and only the
    # yielded primes are climbed.  None of the 30 maximal primes of (1, -1)
    # in 5..400 has p^2 | U_rho, so each costs one probe, mod p^2.
    import lucanomial.ranks

    probes = []

    def counted(*args):
        probes.append(args)
        return lucas_uv_mod(*args)

    params = LucasParams(1, -1)
    for exponents in (4, 12):
        probes.clear()
        monkeypatch.setattr(lucanomial.ranks, "lucas_uv_mod", counted)
        infos = list(maximal_ranks(params, 5, 400, exponents))
        monkeypatch.undo()
        assert probes == [(params, info.rho, info.p**2) for info in infos]
        assert infos == [rank_of_appearance(params, info.p, exponents) for info in infos]
        assert len(infos) == 30


def test_find_maximal_rank_primes_fibonacci():
    infos = list(maximal_ranks(LucasParams(1, -1), 7, 30))
    assert [(i.p, i.rho) for i in infos] == [(7, 8), (11, 10), (19, 18), (23, 24)]


def test_find_maximal_rank_primes_identity_sequence():
    infos = list(maximal_ranks(LucasParams(2, 1), 5, 20))
    assert [i.p for i in infos] == [5, 7, 11, 13, 17, 19]
    assert all(i.rho == i.p and i.epsilon == 0 for i in infos)


def test_find_maximal_rank_primes_degenerate():
    infos = list(maximal_ranks(LucasParams(2, 2), 5, 5))
    assert [(i.p, i.rho, i.epsilon) for i in infos] == [(5, 4, 1)]
