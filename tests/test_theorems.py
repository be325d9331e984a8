"""Theorem verifiers: frozen examples, classical reductions, sweeps."""

from math import comb

import pytest

from lucanomial import (
    LucasParams,
    NonMaximalRankError,
    THEOREM_IDS,
    NoRankError,
    lucanomial_exact,
    lucanomial_residue,
    rank_of_appearance,
    sweep,
    verify_fifth_power,
    verify_ljunggren,
    verify_sixth_power,
    verify_wolstenholme,
)
from lucanomial.lucas import uv_sequence
from lucanomial.ranks import maximal_ranks
from lucanomial.theorems import _block_terms, _Context

FIB = LucasParams(1, -1)
NAT = LucasParams(2, 1)  # U_n = n, ordinary binomials


def test_wolstenholme_ordinary_case():
    r = verify_wolstenholme(NAT, 5, 1)
    assert r.holds
    assert r.lhs == comb(9, 4) % 125 == 1
    assert r.rhs == 1


def test_wolstenholme_degenerate_case():
    r = verify_wolstenholme(LucasParams(2, 2), 5, 1)
    assert r.holds
    assert r.lhs == r.rhs == (-64) % 125 == 61


def test_wolstenholme_fibonacci_negative_epsilon():
    r = verify_wolstenholme(FIB, 7, 1)
    assert r.holds
    assert r.rhs == 342  # -1 mod 343, matching epsilon^k


def test_wolstenholme_k_zero_boundary():
    for params in (FIB, NAT, LucasParams(3, 5)):
        for p in (7, 11, 13):
            try:
                r = verify_wolstenholme(params, p, 0)
            except NonMaximalRankError:
                continue
            assert r.holds and r.lhs == r.rhs == 1


def test_wolstenholme_power_identity():
    rank = rank_of_appearance(FIB, 11)
    base = lucanomial_residue(FIB, 2 * rank.rho - 1, rank.rho - 1, 11, 3).residue()
    for k in range(0, 6):
        r = verify_wolstenholme(FIB, 11, k)
        assert r.holds
        assert r.lhs == pow(base, k, 11**3)


def test_wolstenholme_epsilon_power_form_for_fibonacci():
    # With epsilon nonzero the right side collapses to epsilon^k mod p^3.
    for p in (7, 11, 19, 23):
        rank = rank_of_appearance(FIB, p)
        for k in range(0, 4):
            r = verify_wolstenholme(FIB, p, k)
            assert r.holds
            assert r.rhs == pow(rank.epsilon, k, p**3) % p**3


def test_wolstenholme_depth_beyond_the_modulus():
    # v_p(binom(2 rho - 1, rho - 1)_U - (-1)^eps Q^(rho(rho-1)/2)) from the
    # exact integer: N at k = 1 claims at least 3.  Depth 4 marks a
    # Lucas-Wolstenholme prime; at (5, 3, 7) v_7(U_8) = 3 lifts it to 7.
    deeper = {(1, -1, 11): 4, (3, 2, 5): 4, (3, -1, 13): 4, (1, 2, 11): 4, (5, 3, 7): 7}
    depths = {}
    for P, Q in [(2, 1), (1, -1), (2, -1), (3, 2), (3, -1), (1, 2), (5, 3)]:
        params = LucasParams(P, Q)
        for rank in maximal_ranks(params, 5, 13):
            p, rho = rank.p, rank.rho
            sign = -1 if rank.epsilon else 1  # (-1)**eps is a float for eps = -1
            x = lucanomial_exact(params, 2 * rho - 1, rho - 1) - sign * Q ** (rho * (rho - 1) // 2)
            v = 0
            while x % p == 0:
                x //= p
                v += 1
            depths[P, Q, p] = v
    assert len(depths) == 20
    assert depths == {cell: deeper.get(cell, 3) for cell in depths}


def test_wolstenholme_preconditions():
    with pytest.raises(NonMaximalRankError):
        verify_wolstenholme(FIB, 13, 1)
    with pytest.raises(NoRankError):
        verify_wolstenholme(LucasParams(1, -5), 5, 1)
    with pytest.raises(ValueError):
        verify_wolstenholme(FIB, 3, 1)
    with pytest.raises(ValueError):
        verify_wolstenholme(FIB, 7, -1)


def test_ljunggren_equality_example():
    r = verify_ljunggren(LucasParams(2, 2), 5, 3, 2)
    assert r.holds
    assert r.lhs == r.rhs == 4096 % 125 == 96
    assert r.zero_cancellations == 2  # the convention fires inside the left side


def test_ljunggren_ordinary_blocks():
    r = verify_ljunggren(NAT, 7, 3, 1)
    assert r.holds
    assert r.lhs == comb(21, 7) % 343 == 3
    for p in (5, 7, 11):
        for k in range(0, 5):
            for l in range(0, k + 1):
                r = verify_ljunggren(NAT, p, k, l)
                assert r.holds
                assert r.rhs == comb(k, l) % p**3


def test_block_terms_are_u_at_multiples_of_rho():
    # U_{t rho} = U_rho * U_t(V_rho, Q^rho), compared with U itself, exactly;
    # at a degenerate pair with U_rho = 0 both sides are all zeros.
    for P in range(-5, 6):
        for Q in range(-5, 6):
            if Q == 0:
                continue
            params = LucasParams(P, Q)
            for rank in maximal_ranks(params, 5, 50):
                rho = rank.rho
                us, _ = uv_sequence(params, 6 * rho)
                assert _block_terms(params, rho, 6) == [us[t * rho] for t in range(7)]


def test_ljunggren_boundaries():
    for params, p in ((FIB, 7), (NAT, 11), (LucasParams(3, 5), 7)):
        for k in range(0, 4):
            r = verify_ljunggren(params, p, k, k)
            assert r.holds and r.lhs == r.rhs == 1 % p**3
            r = verify_ljunggren(params, p, k, 0)
            assert r.holds and r.lhs == r.rhs == 1 % p**3
    with pytest.raises(ValueError):
        verify_ljunggren(FIB, 7, 1, 2)


def test_fifth_power_classical_reduction():
    # Over U(2,1) the third variant is the classical two-term form
    # 1 - p^2 * sum 1/t^2 mod p^5.
    for p in (7, 11, 13):
        r = verify_fifth_power(NAT, p, 3)
        assert r.holds
        M = p**5
        classical = (1 - p * p * sum(pow(t * t, -1, M) for t in range(1, p))) % M
        assert r.rhs == classical
        assert r.lhs == comb(2 * p - 1, p - 1) % M


@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_fifth_power_fibonacci(variant):
    for p in (7, 11, 19):
        r = verify_fifth_power(FIB, p, variant)
        assert r.holds, (p, variant)


def test_fifth_power_guards():
    with pytest.raises(ValueError):
        verify_fifth_power(FIB, 5, 1)
    with pytest.raises(ValueError):
        verify_fifth_power(FIB, 7, 5)
    with pytest.raises(NonMaximalRankError):
        verify_fifth_power(FIB, 13, 2)


def test_sixth_power_classical_reduction():
    for p in (7, 11, 13):
        r = verify_sixth_power(NAT, p)
        assert r.holds
        M = p**6
        harmonic = sum(pow(t, -1, M) for t in range(1, p))
        cubes = sum(pow(t**3, -1, M) for t in range(1, p))
        classical = (1 + 2 * p * harmonic + 2 * p**3 * pow(3, -1, M) * cubes) % M
        assert r.rhs == classical
        assert r.lhs == comb(2 * p - 1, p - 1) % M


def test_sixth_power_fibonacci():
    assert verify_sixth_power(FIB, 11).holds
    with pytest.raises(NonMaximalRankError):
        verify_sixth_power(FIB, 13)


def _verifiers_at_fib_11(context):
    return (
        lambda: verify_wolstenholme(FIB, 11, 2, context),
        lambda: verify_ljunggren(FIB, 11, 3, 1, context),
        *(lambda v=v: verify_fifth_power(FIB, 11, v, context) for v in (1, 2, 3, 4)),
        lambda: verify_sixth_power(FIB, 11, context),
    )


def test_verifiers_refuse_a_sums_table_of_another_cell():
    # Given the block terms of (2, 1), LjWe at Fibonacci once reported lhs
    # 487 against rhs 3.  A context of another (P, Q), whose sums table and
    # block terms are those of that cell, is refused by every verifier.
    other = _Context(NAT, rank_of_appearance(NAT, 11), 5, 6)
    for verify in _verifiers_at_fib_11(other):
        with pytest.raises(ValueError, match="another cell"):
            verify()
    own = _Context(FIB, rank_of_appearance(FIB, 11), 5, 6)
    assert all(verify().holds for verify in _verifiers_at_fib_11(own))


def test_verifiers_refuse_a_rank_of_another_prime():
    # Given the rank of another prime, N once reported that its base case
    # disagrees.  A context of another p, rank included, is refused instead.
    other = _Context(FIB, rank_of_appearance(FIB, 19), 5, 6)
    for verify in _verifiers_at_fib_11(other):
        with pytest.raises(ValueError, match="another cell than \\(1, -1, 11\\)"):
            verify()


def test_verifiers_refuse_a_context_that_falls_short():
    # A context reaching k = 1 serves N and LjWe up to k = 1 only.
    short = _Context(FIB, rank_of_appearance(FIB, 11), 1, 6)
    assert verify_wolstenholme(FIB, 11, 1, short) == verify_wolstenholme(FIB, 11, 1)
    assert verify_ljunggren(FIB, 11, 1, 1, short) == verify_ljunggren(FIB, 11, 1, 1)
    for verify in (
        lambda: verify_wolstenholme(FIB, 11, 2, short),
        lambda: verify_ljunggren(FIB, 11, 2, 1, short),
    ):
        with pytest.raises(ValueError, match="reaches k <= 1"):
            verify()
    # A sums table below the verifier's precision once gave false
    # counterexamples for P5 variants 1, 2 and 4 at these primes; a context
    # built below a theorem's modulus exponent is now refused.
    for p in (11, 19, 31):
        rank = rank_of_appearance(FIB, p)
        for exponent in (1, 3, 5, 6):
            context = _Context(FIB, rank, 5, exponent)
            for needs, verify in (
                (3, lambda c=None: verify_wolstenholme(FIB, p, 5, c)),
                (3, lambda c=None: verify_ljunggren(FIB, p, 5, 2, c)),
                *((5, lambda c=None, v=v: verify_fifth_power(FIB, p, v, c)) for v in (1, 2, 3, 4)),
                (6, lambda c=None: verify_sixth_power(FIB, p, c)),
            ):
                if exponent < needs:
                    with pytest.raises(ValueError, match=f"mod p\\^{exponent} only"):
                        verify(context)
                else:
                    r = verify(context)
                    assert r == verify() and r.holds, (p, exponent, r)


def test_lhs_path_independence():
    # Every verified left side must reproduce through the exact-strip path.
    cases = [(FIB, 7), (FIB, 11), (LucasParams(3, 5), 7), (LucasParams(2, 3), 7)]
    for params, p in cases:
        rank = rank_of_appearance(params, p)
        rho = rank.rho
        for m, n, j in [
            (2 * rho - 1, rho - 1, 3),
            (4 * rho - 1, rho - 1, 3),
            (3 * rho, 2 * rho, 3),
            (2 * rho - 1, rho - 1, 5),
            (2 * rho - 1, rho - 1, 6),
        ]:
            fast = lucanomial_residue(params, m, n, p, j)
            slow = lucanomial_residue(params, m, n, p, j, method="exact")
            assert fast == slow


def test_sweep_fibonacci_all_hold():
    reports = sweep([FIB], (7, 50), ("N",), range(0, 4))
    assert reports
    assert all(r.holds for r in reports)
    assert all(r.error is None for r in reports)


def test_sweep_restricts_to_maximal_primes():
    from lucanomial import legendre, primes_in_range

    us = uv_sequence(FIB, 52)[0]
    expected = []
    for p in primes_in_range(7, 50):
        naive_rho = next(n for n in range(1, 53) if us[n] % p == 0)
        if naive_rho == p - legendre(5, p):
            expected.append(p)
    assert expected == [7, 11, 19, 23, 31, 43]  # e.g. 13, 29, 41, 47 have small rank
    reports = sweep([FIB], (7, 50), ("N",), [1])
    assert sorted({r.p for r in reports}) == expected


def test_sweep_deterministic_order_and_repeatable():
    grid = [FIB, LucasParams(3, 5)]
    a = sweep(grid, (5, 30), ("N", "LjWe"), range(0, 3))
    b = sweep(grid, (5, 30), ("N", "LjWe"), range(0, 3))
    assert a == b
    keys = [(r.params.P, r.params.Q, r.p) for r in a]
    assert keys == sorted(keys, key=lambda key: (grid.index(LucasParams(key[0], key[1])), key[2]))


def test_sweep_empty_prime_range():
    assert sweep([FIB], (20, 10), ("N",)) == []


def test_sweep_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        sweep([FIB], (5, 10), ("nonsense",))


def test_sweep_skips_p_dividing_q():
    reports = sweep([LucasParams(1, -5)], (5, 5), ("N",), [1])
    assert reports == []


def test_sweep_applies_each_theorem_at_its_least_prime_and_modulus():
    grid = [FIB, NAT, LucasParams(3, 5), LucasParams(2, 2)]
    at_five = sweep(grid, (5, 5), THEOREM_IDS, range(0, 3))
    assert at_five and {r.theorem_id for r in at_five} == {"N", "LjWe"}
    exponents = {r.theorem_id: r.modulus_exponent for r in sweep(grid, (5, 20), THEOREM_IDS)}
    assert exponents == {
        "N": 3, "LjWe": 3, "P5_1": 5, "P5_2": 5, "P5_3": 5, "P5_4": 5, "P6": 6
    }


def test_fifth_power_sweep_matches_the_full_sweep():
    # A P5-only sweep builds its cell and sums table at p^5, the full sweep at p^6.
    grid = [FIB, NAT, LucasParams(3, 5), LucasParams(2, 2), LucasParams(-1, 3)]
    fifth = ("P5_1", "P5_2", "P5_3", "P5_4")
    alone = sweep(grid, (5, 60), fifth, range(0, 3))
    full = sweep(grid, (5, 60), THEOREM_IDS, range(0, 3))
    assert alone and alone == [r for r in full if r.theorem_id in fifth]


def test_sweep_cell_matches_per_call_verifiers():
    # The sweep answers every rank-path left side from one Cell per (P, Q, p);
    # each verifier called alone builds its own.  Degenerate (2, 2) included.
    for params in (FIB, LucasParams(3, 5), LucasParams(2, 2), LucasParams(-1, 3)):
        for report in sweep([params], (5, 40), THEOREM_IDS, range(0, 4)):
            p, k = report.p, report.inputs.get("k")
            if report.theorem_id == "N":
                alone = verify_wolstenholme(params, p, k)
            elif report.theorem_id == "LjWe":
                alone = verify_ljunggren(params, p, k, report.inputs["l"])
            elif report.theorem_id == "P6":
                alone = verify_sixth_power(params, p)
            else:
                alone = verify_fifth_power(params, p, k)
            assert (alone.lhs, alone.rhs, alone.holds, alone.error) == (
                report.lhs, report.rhs, report.holds, report.error
            )


def test_sweep_reports_each_case_when_the_cell_fails(monkeypatch):
    import lucanomial.binomial

    expected = sweep([FIB], (7, 7), ("N", "LjWe"), range(0, 3))

    def broken_ladder(params, p, index_limit):
        raise ArithmeticError("no ladder")

    monkeypatch.setattr(lucanomial.binomial, "rank_ladder", broken_ladder)
    reports = sweep([FIB], (7, 7), ("N", "LjWe"), range(0, 3))
    assert [(r.theorem_id, r.inputs) for r in reports] == [
        (r.theorem_id, r.inputs) for r in expected
    ]
    # Every case reads the cell's Cell, so every case reports the failure.
    assert all(not r.holds and "no ladder" in r.error for r in reports)


def test_sweep_reports_a_cell_that_fails_to_build(monkeypatch):
    # A Cell that raises is kept as the cell's failure: no case falls back to
    # a one-shot Cell of its own, and each one reports the error.
    import lucanomial.theorems

    def broken_cell(*args):
        raise ArithmeticError("no cell")

    monkeypatch.setattr(lucanomial.theorems, "Cell", broken_cell)
    reports = sweep([FIB], (11, 11), ("N", "LjWe", "P5_1", "P6"), [1, 2], [1])
    assert [r.theorem_id for r in reports] == ["N", "N", "LjWe", "LjWe", "P5_1", "P6"]
    assert all(not r.holds and "no cell" in r.error for r in reports)


@pytest.mark.parametrize(
    "part, theorems, cases",
    [("Cell", ("N", "LjWe", "P5_1", "P6"), 6), ("_block_terms", ("LjWe",), 2),
     ("compute_sums", ("P5_1", "P5_2", "P6"), 3)],
)
def test_sweep_builds_a_failing_part_once_per_cell(monkeypatch, part, theorems, cases):
    # A part that cannot be built is not built again for each case that needs
    # it: its failure is kept, and every such case reports it.
    import lucanomial.theorems

    calls = []

    def broken_part(*args):
        calls.append(args)
        raise ArithmeticError(f"no {part}")

    monkeypatch.setattr(lucanomial.theorems, part, broken_part)
    reports = sweep([FIB], (11, 11), theorems, [1, 2], [1])
    assert len(calls) == 1
    assert len(reports) == cases
    assert all(not r.holds and f"no {part}" in r.error for r in reports)


def test_sweep_builds_the_sums_table_once_per_cell(monkeypatch):
    # The five central expansions of a cell read V_rho, U_rho/V_rho and the
    # sums from one table.
    import lucanomial.theorems

    calls = []
    real = lucanomial.theorems.compute_sums

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lucanomial.theorems, "compute_sums", counted)
    reports = sweep([FIB], (11, 11), ("P5_1", "P5_2", "P5_3", "P5_4", "P6"))
    assert len(calls) == 1
    assert len(reports) == 5 and all(r.holds for r in reports)


def test_twist_is_the_sign_and_q_power_of_each_right_side():
    # At maximal rank rho - 1 = p - 1 - eps with p odd, so the sign (-1)^(rho-1)
    # of P5 and P6 is N's (-1)^eps, and the one twist serves all of them.
    for P in range(-5, 6):
        for Q in [q for q in range(-5, 6) if q]:
            params = LucasParams(P, Q)
            for rank in maximal_ranks(params, 3, 199):
                rho, eps, modulus = rank.rho, rank.epsilon, rank.p**3
                assert (rho - 1) % 2 == eps % 2, (P, Q, rank.p)
                twist = _Context(params, rank, 0, 3).twist
                for e in range(26):
                    expected = (-1) ** (e * eps % 2) * pow(Q, e * rho * (rho - 1) // 2, modulus)
                    assert pow(twist, e, modulus) == expected % modulus, (P, Q, rank.p, e)


def test_fifth_power_error_record_names_its_variant(monkeypatch):
    import lucanomial.theorems

    expected = sweep([FIB], (11, 11), ("P5_2",))
    assert [(r.inputs, r.holds) for r in expected] == [({"k": 2}, True)]

    def broken_sums(*args):
        raise ArithmeticError("no sums")

    monkeypatch.setattr(lucanomial.theorems, "compute_sums", broken_sums)
    [failed] = sweep([FIB], (11, 11), ("P5_2",))
    assert failed.to_record()["k"] == 2
    assert not failed.holds and "no sums" in failed.error
