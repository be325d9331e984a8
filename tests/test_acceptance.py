"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its runtime
and asserts both the checked facts and the stated time budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction
from math import comb

from lucanomial import (
    LucasParams,
    lucanomial_exact,
    lucanomial_residue,
    primes_in_range,
    rank_of_appearance,
    sweep,
    verify_ljunggren,
    verify_sum_lemmas,
)
from lucanomial.lucas import uv_sequence
from lucanomial.ranks import accepts_prime
from oracles import check_identities_upto, integrality_sweep

GRID = [LucasParams(P, Q) for P in range(-5, 6) for Q in range(-5, 6) if Q != 0]
FIB = LucasParams(1, -1)
NAT = LucasParams(2, 1)


def run_criterion(number, description, limit_seconds, body):
    start = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number:2d} {status} {elapsed:7.2f}s (limit {limit_seconds}s): {description}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_01_worked_equality_case(capsys):
    def body():
        assert lucanomial_exact(LucasParams(2, 2), 12, 8) == 4096
        report = verify_ljunggren(LucasParams(2, 2), 5, 3, 2)
        assert report.holds and report.lhs == report.rhs

    with capsys.disabled():
        run_criterion(1, "degenerate U(2,2): binom(12,8) = 4096 and the p=5 block congruence", 1, body)


def test_criterion_02_fibonacci_central_case(capsys):
    def body():
        fib = uv_sequence(FIB, 9)[0]
        oracle = Fraction(fib[9] * fib[8] * fib[7] * fib[6], fib[4] * fib[3] * fib[2] * fib[1])
        assert oracle == 12376
        assert lucanomial_exact(FIB, 9, 4) == 12376
        residue = lucanomial_residue(FIB, 9, 4, 5, 3)
        assert residue.residue() == 1 and residue.valuation == 0

    with capsys.disabled():
        run_criterion(2, "Fibonomial binom(9,4) = 12376 = 1 mod 125", 1, body)


def test_criterion_03_classical_congruences(capsys):
    def body():
        reports = sweep([NAT], (5, 100), ("N",), range(6))
        primes = set(primes_in_range(5, 100))
        assert {r.p for r in reports} == primes  # every prime is maximal for U(2,1)
        assert all(r.holds for r in reports)
        assert all(r.rhs == 1 for r in reports)  # the classical right side
        reports = sweep([NAT], (5, 100), ("LjWe",), range(6))
        assert {r.p for r in reports} == primes
        assert all(r.holds for r in reports)

    with capsys.disabled():
        run_criterion(3, "U(2,1) mod p^3: both classical families over 5 <= p <= 100, k <= 5", 10, body)


def test_criterion_04_mod_p3_sweep(capsys):
    def body():
        reports = sweep(GRID, (5, 100), ("N",), range(6))
        assert reports and all(r.holds for r in reports)
        fib_reports = sweep([FIB], (5, 300), ("N",), range(6))
        assert fib_reports and all(r.holds for r in fib_reports)

    with capsys.disabled():
        run_criterion(4, "mod p^3 sweep: grid |P|,|Q| <= 5 to p <= 100, U(1,-1) to p <= 300", 120, body)


def test_criterion_05_block_congruence_sweep(capsys):
    def body():
        reports = sweep(GRID, (5, 50), ("LjWe",), range(6))
        assert reports and all(r.holds for r in reports)

    with capsys.disabled():
        run_criterion(5, "block congruence sweep: grid, maximal p <= 50, k <= 5, l <= k", 120, body)


def test_criterion_06_mod_p5_suite(capsys):
    def body():
        reports = sweep(GRID, (7, 100), ("P5_1", "P5_2", "P5_3", "P5_4"))
        assert reports and all(r.holds for r in reports)
        for r in reports:
            if r.params == NAT and r.theorem_id == "P5_3":
                M = r.p**5
                classical = (1 - r.p**2 * sum(pow(t * t, -1, M) for t in range(1, r.p))) % M
                assert r.rhs == classical

    with capsys.disabled():
        run_criterion(6, "mod p^5 suite: four variants, grid, 7 <= p <= 100", 180, body)


def test_criterion_07_mod_p6_suite(capsys):
    def body():
        reports = sweep(GRID, (7, 100), ("P6",))
        assert reports and all(r.holds for r in reports)
        for r in reports:
            if r.params == NAT:
                p, M = r.p, r.p**6
                harmonic = sum(pow(t, -1, M) for t in range(1, p))
                cubes = sum(pow(t**3, -1, M) for t in range(1, p))
                assert r.rhs == (1 + 2 * p * harmonic + 2 * p**3 * pow(3, -1, M) * cubes) % M
                assert r.lhs == comb(2 * p - 1, p - 1) % M

    with capsys.disabled():
        run_criterion(7, "mod p^6 suite: grid, 7 <= p <= 100, classical reduction for U(2,1)", 180, body)


def test_criterion_08_lemma_suite(capsys):
    def body():
        footnote_cases = 0
        checked = 0
        for params in GRID:
            for p in primes_in_range(7, 200):
                if params.Q % p == 0:
                    continue
                rank = rank_of_appearance(params, p)
                if not rank.maximal:
                    continue
                reports = verify_sum_lemmas(params, rank)
                checked += len(reports)
                assert all(r.holds for r in reports), (params, p)
                footnote_cases += sum(
                    1
                    for r in reports
                    if r.theorem_id == "power_sums"
                    and r.inputs.get("k") == 0
                    and r.epsilon == 0
                    and r.rhs == p - 1
                )
        assert checked > 10_000
        assert footnote_cases > 0  # the epsilon = 0 exceptional value was exercised

    with capsys.disabled():
        run_criterion(8, "lemma suite at stated moduli, grid, maximal 7 <= p <= 200", 120, body)


def test_criterion_09_identities_and_integrality(capsys):
    def body():
        for params in GRID:
            assert check_identities_upto(params, 200), params
        degenerate_extras = [LucasParams(0, 3), LucasParams(0, -3), LucasParams(2, 2), LucasParams(3, 3)]
        for params in GRID + degenerate_extras:
            assert integrality_sweep(params, 40), params

    with capsys.disabled():
        run_criterion(9, "six identities to s = 200 and integrality to m = 40, whole grid", 120, body)


def test_criterion_10_oracle_equivalence(capsys):
    def body():
        import random

        rng = random.Random(1789)
        eligible = []
        for params in GRID:
            for p in (5, 7, 11, 13, 17, 19, 23):
                if accepts_prime(params, p):
                    eligible.append((params, p))
        for _ in range(500):
            params, p = rng.choice(eligible)
            rho = rank_of_appearance(params, p).rho
            m = rng.randint(0, 4 * rho)
            n = rng.randint(0, m + 2)
            k = rng.randint(1, 5)
            fast = lucanomial_residue(params, m, n, p, k, method="rank")
            slow = lucanomial_residue(params, m, n, p, k, method="exact")
            assert fast == slow, (params, m, n, p, k)
        for params in GRID:
            us = uv_sequence(params, 202)[0]
            for p in primes_in_range(3, 200):
                if params.Q % p == 0:
                    continue
                naive = next(n for n in range(1, 203) if us[n] % p == 0)
                assert rank_of_appearance(params, p).rho == naive, (params, p)

    with capsys.disabled():
        run_criterion(10, "500 seeded fast/exact residue agreements; ranks vs naive scan to 200", 60, body)
