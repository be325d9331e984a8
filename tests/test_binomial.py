"""Exact and modular Lucanomial coefficients and the cancellation convention."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lucanomial import (
    Cell,
    ConventionViolation,
    LucasParams,
    NoRankError,
    ValuedResidue,
    generalized_binomial,
    lucanomial_exact,
    lucanomial_residue,
    primes_in_range,
    rank_of_appearance,
    zero_cancellations,
)
from lucanomial.binomial import _convention_quotient
from lucanomial.lucas import uv_sequence
from lucanomial.ranks import accepts_prime
from oracles import integrality_sweep


def oracle_lucanomial(P, Q, m, n):
    """Independent oracle: explicit factor lists, Fraction arithmetic, and
    literal pairwise cancellation of zeros."""
    if n == 0:
        return 1
    if m < n:
        return 0
    us = uv_sequence(LucasParams(P, Q), m)[0]
    num = [us[m - i] for i in range(n)]
    den = [us[i] for i in range(1, n + 1)]
    while 0 in num and 0 in den:
        num.remove(0)
        den.remove(0)
    if 0 in num:
        return 0
    assert 0 not in den, "oracle hit an uncancelled zero below the bar"
    value = Fraction(1)
    for a in num:
        value *= a
    for b in den:
        value /= b
    assert value.denominator == 1
    return value.numerator


def test_fibonomial_example():
    assert oracle_lucanomial(1, -1, 9, 4) == 12376
    assert lucanomial_exact(LucasParams(1, -1), 9, 4) == 12376


def test_degenerate_example_power_of_two():
    assert oracle_lucanomial(2, 2, 12, 8) == 4096
    assert lucanomial_exact(LucasParams(2, 2), 12, 8) == 4096


def test_boundary_cases():
    assert lucanomial_exact(LucasParams(3, 5), 17, 0) == 1
    assert lucanomial_exact(LucasParams(1, -1), 5, 7) == 0


@pytest.mark.parametrize("P,Q", [(1, -1), (2, 2), (0, 3), (1, 1), (3, 3), (-2, 5)])
def test_exact_matches_oracle(P, Q):
    params = LucasParams(P, Q)
    for m in range(0, 25):
        for n in range(0, m + 2):
            assert lucanomial_exact(params, m, n) == oracle_lucanomial(P, Q, m, n)


@pytest.mark.parametrize("P,Q", [(1, -1), (30, 1), (2, 2), (0, 3), (3, 3)])
def test_integrality_sweep(P, Q):
    assert integrality_sweep(LucasParams(P, Q), 30)


def test_symmetry_nondegenerate():
    for P, Q in [(1, -1), (2, 1), (3, 5), (-3, 2)]:
        params = LucasParams(P, Q)
        for m in range(0, 40):
            for n in range(0, m + 1):
                assert (
                    lucanomial_exact(params, m, n)
                    == lucanomial_exact(params, m, m - n)
                )


def test_addition_recurrence_nondegenerate():
    # U_{n+1} C(m-1, n) - Q U_{m-n-1} C(m-1, n-1) = C(m, n), the induction
    # step behind integrality; relies on U_{n+1} U_{m-n} - Q U_n U_{m-n-1} = U_m.
    for P, Q in [(1, -1), (2, 1), (3, 5), (-3, -2)]:
        params = LucasParams(P, Q)
        us = uv_sequence(params, 61)[0]
        for m in range(2, 30):
            for n in range(1, m):
                assert us[n + 1] * us[m - n] - Q * us[n] * us[m - n - 1] == us[m]
                lhs = (
                    us[n + 1] * lucanomial_exact(params, m - 1, n)
                    - Q * us[m - n - 1] * lucanomial_exact(params, m - 1, n - 1)
                )
                assert lhs == lucanomial_exact(params, m, n)


def test_convention_quotient_error_paths():
    with pytest.raises(ConventionViolation):
        _convention_quotient([1, 2], [0, 1])
    from lucanomial import NonIntegralError

    with pytest.raises(NonIntegralError):
        _convention_quotient([3], [2])


def test_exact_diagonal_is_one():
    # lucanomial_exact answers binom(m, m)_U without forming the products;
    # the full quotient, zero cancellation included, must agree.
    for P in range(-5, 6):
        for Q in range(-5, 6):
            if Q == 0:
                continue
            params = LucasParams(P, Q)
            us = uv_sequence(params, 60)[0]
            for m in range(1, 61):
                factors = us[1 : m + 1]
                assert lucanomial_exact(params, m, m) == _convention_quotient(
                    factors, factors
                ), (P, Q, m)


def test_generalized_binomial_all_zero_sequence():
    # Blocks of a degenerate sequence can be identically zero; every factor
    # then cancels pairwise and the coefficient collapses to 1.
    zeros = [0, 0, 0, 0]
    assert generalized_binomial(zeros, 3, 2) == 1
    assert generalized_binomial(zeros, 3, 0) == 1
    assert generalized_binomial(zeros, 2, 3) == 0


def test_generalized_binomial_matches_ordinary():
    from math import comb

    naturals = list(range(0, 30))
    for m in range(0, 20):
        for n in range(0, 22):
            assert generalized_binomial(naturals, m, n) == comb(m, n)
    with pytest.raises(ValueError):
        generalized_binomial([0, 1, 1], 5, 2)  # values end before index m


def test_zero_cancellations_counts():
    assert zero_cancellations(LucasParams(2, 2), 12, 8) == 2
    assert zero_cancellations(LucasParams(1, -1), 12, 8) == 0
    assert zero_cancellations(LucasParams(0, 3), 10, 4) == 2


def test_residue_examples():
    r = lucanomial_residue(LucasParams(1, -1), 9, 4, 5, 3)
    assert (r.valuation, r.unit, r.zero) == (0, 1, False)
    r = lucanomial_residue(LucasParams(2, 1), 10, 5, 5, 3)
    assert (r.valuation, r.unit) == (0, 2)  # 252 mod 125
    r = lucanomial_residue(LucasParams(2, 2), 12, 8, 5, 3)
    assert (r.valuation, r.unit) == (0, 96)  # 4096 mod 125


def test_residue_trivial_and_zero_cases():
    r = lucanomial_residue(LucasParams(1, -1), 17, 0, 7, 2)
    assert r.residue() == 1
    r = lucanomial_residue(LucasParams(1, -1), 5, 7, 7, 2)
    assert r.zero and r.residue() == 0


def test_residue_rejects_bad_inputs():
    with pytest.raises(NoRankError):
        lucanomial_residue(LucasParams(1, -5), 9, 4, 5, 3)
    with pytest.raises(ValueError):
        lucanomial_residue(LucasParams(1, -1), 9, 4, 15, 3)
    with pytest.raises(ValueError):
        lucanomial_residue(LucasParams(1, -1), 9, 4, 5, 0)
    with pytest.raises(ValueError):
        lucanomial_residue(LucasParams(1, -1), 9, 4, 5, 3, method="auto")
    # p = 5 divides D = 0 of (2, 1): the rank path serves it, and gives the
    # D = 0 closed form, here with U_t = t the ordinary binom(10, 5).
    assert lucanomial_residue(LucasParams(2, 1), 10, 5, 5, 3, method="rank") == (
        ValuedResidue.from_integer(comb(10, 5), 5, 3)
    )


@pytest.mark.parametrize("a", [1, -1, 2, -2, 3])
def test_zero_discriminant_closed_form(a):
    # With P = 2a and Q = a^2 (D = 0), U_t = t a^(t-1), so
    # binom(m, n)_U = binom(m, n) a^(n(m-n)): an oracle that shares no code
    # with the recurrence, the exact quotient or the residue paths.
    params = LucasParams(2 * a, a * a)
    for m in range(51):
        for n in range(m + 2):
            closed = comb(m, n) * a ** (n * (m - n)) if n <= m else 0
            assert lucanomial_exact(params, m, n) == closed, (m, n)
            for p in (5, 7, 11):
                expected = ValuedResidue.from_integer(closed, p, 4)
                assert lucanomial_residue(params, m, n, p, 4) == expected, (m, n, p)


@pytest.mark.parametrize("P,Q", [(1, -1), (3, 5), (2, 2), (-3, 2), (1, 1)])
def test_rank_and_exact_paths_agree(P, Q):
    params = LucasParams(P, Q)
    rng = random.Random(20240 + P * 10 + Q)
    for p in (5, 7, 11, 13):
        if not accepts_prime(params, p):
            continue
        for _ in range(12):
            m = rng.randint(0, 90)
            n = rng.randint(0, m + 3)
            k = rng.randint(1, 5)
            fast = lucanomial_residue(params, m, n, p, k, method="rank")
            slow = lucanomial_residue(params, m, n, p, k, method="exact")
            assert fast == slow


@st.composite
def cell_queries(draw):
    """A Cell over |P| <= 6, 1 <= |Q| <= 6 (degenerate pairs included) at a
    prime 5 <= p <= 113 that `require_prime` accepts, and (m, n, j) queries
    to it."""
    P = draw(st.integers(-6, 6))
    Q = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
    params = LucasParams(P, Q)
    primes = [p for p in primes_in_range(5, 113) if accepts_prime(params, p)]
    assume(primes)
    p = draw(st.sampled_from(primes))
    rho = rank_of_appearance(params, p).rho
    m_max = draw(st.integers(0, 6 * rho - 1))
    queries = draw(
        st.lists(
            st.integers(0, m_max).flatmap(
                lambda m: st.tuples(st.just(m), st.integers(0, m + 2), st.integers(1, 6))
            ),
            min_size=1,
            max_size=6,
        )
    )
    return params, p, m_max, queries


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
)
@given(cell_queries())
def test_cell_matches_exact_path(case):
    params, p, m_max, queries = case
    cell = Cell(params, p, m_max, 6)
    for m, n, j in queries:
        assert cell.residue(m, n, j) == lucanomial_residue(params, m, n, p, j, method="exact")


# Pairs whose U has zero terms, with zero periods 2, 3, 4 and 6.
DEGENERATE = ((0, 5), (0, -3), (1, 1), (-2, 4), (2, 2), (-2, 2), (3, 3), (-3, 3))


@st.composite
def symmetry_queries(draw):
    """(P, Q, p, m, n, k) with |P| <= 6, 1 <= |Q| <= 6 (a degenerate pair half
    the time), an odd prime 3 <= p <= 113 not dividing Q, 0 <= n <= m and
    1 <= k <= 6, with m at most 6 rho."""
    if draw(st.booleans()):
        P, Q = draw(st.sampled_from(DEGENERATE))
    else:
        P = draw(st.integers(-6, 6))
        Q = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
    params = LucasParams(P, Q)
    p = draw(st.sampled_from([p for p in primes_in_range(3, 113) if Q % p]))
    rho = rank_of_appearance(params, p).rho
    m = draw(st.integers(0, 6 * rho))
    n = draw(st.integers(0, m))
    k = draw(st.integers(1, 6))
    return params, p, m, n, k


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
)
@given(symmetry_queries())
def test_symmetry_mod_prime_powers(case):
    params, p, m, n, k = case
    cell = Cell(params, p, m, k)
    lhs, rhs = cell.residue(m, n, k), cell.residue(m, m - n, k)
    assert lhs == rhs
    zp = params.zero_period
    if zp is not None:
        # Zeros above the bar less zeros below: the same count for n and m - n.
        leftover = m // zp - n // zp - (m - n) // zp
        assert lhs.zero == (leftover > 0)


@st.composite
def path_queries(draw):
    """(P, Q, p, m, n, k) with |P|, |Q| <= 5, an odd prime p < 60 not
    dividing Q, m <= 4(p + 1), n <= m + 2 and 1 <= k <= 5.  A third of the
    pairs are degenerate, and a third are drawn with p | D."""
    kind = draw(st.sampled_from(("any", "degenerate", "p | D")))
    if kind == "degenerate":
        P, Q = draw(st.sampled_from(DEGENERATE))
    else:
        P = draw(st.integers(-5, 5))
        Q = draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
    params = LucasParams(P, Q)
    primes = [p for p in primes_in_range(3, 59) if accepts_prime(params, p)]
    if kind == "p | D":
        primes = [p for p in primes if params.D % p == 0]
    assume(primes)
    p = draw(st.sampled_from(primes))
    m = draw(st.integers(0, 4 * (p + 1)))
    return params, p, m, draw(st.integers(0, m + 2)), draw(st.integers(1, 5))


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
)
@given(path_queries())
def test_rank_path_equals_exact_path(case):
    params, p, m, n, k = case
    rank = lucanomial_residue(params, m, n, p, k, method="rank")
    assert rank == lucanomial_residue(params, m, n, p, k, method="exact")


def test_cell_serves_lucanomial_residue():
    params, p = LucasParams(1, -1), 11
    cell = Cell(params, p, 60, 5)
    for m, n, k in ((59, 9, 5), (60, 30, 3), (20, 0, 1), (7, 9, 4)):
        assert lucanomial_residue(params, m, n, p, k, cell=cell) == lucanomial_residue(
            params, m, n, p, k
        )
    with pytest.raises(ValueError):
        cell.residue(61, 3, 3)  # beyond m_max
    with pytest.raises(ValueError):
        cell.residue(30, 3, 6)  # beyond the precision
    with pytest.raises(ValueError):
        lucanomial_residue(LucasParams(1, 1), 30, 3, p, 3, cell=cell)  # another (P, Q)
    # p = 5 divides D = 0 of (2, 1), where U_t = t: a Cell serves it, with the
    # D = 0 closed form, the ordinary binom(m, n).
    cell = Cell(LucasParams(2, 1), 5, 10, 3)
    for m in range(11):
        for n in range(m + 1):
            assert cell.residue(m, n, 3) == ValuedResidue.from_integer(comb(m, n), 5, 3)


def test_high_valuation_case_keeps_unit():
    # binom(5p, p) over U(1,2): ordinary-binomial analogue has positive valuation
    params = LucasParams(1, 2)
    p = 11
    fast = lucanomial_residue(params, 5 * 11, 11, p, 3, method="rank")
    slow = lucanomial_residue(params, 5 * 11, 11, p, 3, method="exact")
    assert fast == slow
    assert fast.residue() == slow.residue()


def test_valued_residue_arithmetic():
    a = ValuedResidue.from_integer(3 * 7**2, 7, 3)
    assert (a.valuation, a.unit) == (2, 3)
    assert a.residue() == 3 * 49
    assert ValuedResidue.from_integer(3 * 7**3, 7, 3).residue() == 0  # valuation exceeds precision
    z = ValuedResidue.from_integer(0, 7, 3)
    assert z.zero and z == ValuedResidue.exact_zero(7, 3) and z.residue() == 0


def test_valued_residue_refuses_tuple_arithmetic():
    # Tuple concatenation and repetition would pass for residue arithmetic.
    r = ValuedResidue.from_integer(21, 7, 3)
    for op in (lambda: r + r, lambda: 2 * r, lambda: r * 2):
        with pytest.raises(TypeError):
            op()


def test_valued_residue_validation():
    with pytest.raises(ValueError):
        ValuedResidue(7, 2, 0, 14)  # unit divisible by p
    with pytest.raises(ValueError):
        ValuedResidue(7, 2, -1, 3)
    with pytest.raises(ValueError):
        ValuedResidue(7, 2, 1, 3, zero=True)


def test_exact_zero_distinct_from_high_valuation():
    z = ValuedResidue.exact_zero(5, 2)
    deep = ValuedResidue.from_integer(5**9, 5, 2)
    assert z.residue() == deep.residue() == 0
    assert z != deep
