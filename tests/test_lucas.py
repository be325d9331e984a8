"""Lucas sequence construction, evaluation, and the classical identities."""

from itertools import islice

import pytest

from lucanomial import LucasParams, lucas_term, lucas_uv_mod
from lucanomial.lucas import u_walk, uv_sequence
from oracles import check_identities_upto


def plain_uv(P, Q, n):
    """Independent oracle: the bare three-term recurrence."""
    u0, u1, v0, v1 = 0, 1, 2, P
    for _ in range(n):
        u0, u1 = u1, P * u1 - Q * u0
        v0, v1 = v1, P * v1 - Q * v0
    return u0, v0


SAMPLE_PARAMS = [
    (1, -1),
    (2, 1),
    (2, 2),
    (3, 5),
    (-3, 2),
    (0, 3),
    (1, 1),
    (3, 3),
    (-5, -5),
    (4, 4),
]


def test_q_zero_rejected():
    with pytest.raises(ValueError):
        LucasParams(3, 0)


def test_discriminant_derived():
    assert LucasParams(3, -2).D == 17
    assert LucasParams(2, 1).D == 0
    assert LucasParams(1, -1).D == 5


@pytest.mark.parametrize(
    "P,Q,degenerate,period",
    [
        (1, -1, False, None),
        (2, 1, False, None),  # D = 0 but no zero terms
        (2, 2, True, 4),
        (0, 3, True, 2),
        (0, -5, True, 2),
        (1, 1, True, 3),
        (2, 4, True, 3),
        (3, 3, True, 6),
        (-2, 2, True, 4),
    ],
)
def test_degenerate_detection(P, Q, degenerate, period):
    params = LucasParams(P, Q)
    assert params.degenerate is degenerate
    assert params.zero_period == period


def test_degenerate_iff_early_zero_product():
    for P, Q in SAMPLE_PARAMS:
        params = LucasParams(P, Q)
        us = uv_sequence(params, 6)[0]
        assert params.degenerate == (us[2] * us[3] * us[4] * us[6] == 0)


def test_initial_values():
    for P, Q in SAMPLE_PARAMS:
        term = lucas_term(LucasParams(P, Q), 0)
        assert (term.U, term.V) == (0, 2)


def test_fibonacci_term_nine():
    assert plain_uv(1, -1, 9) == (34, 76)
    term = lucas_term(LucasParams(1, -1), 9)
    assert (term.U, term.V) == (34, 76)


def test_u22_opening_run():
    us = uv_sequence(LucasParams(2, 2), 12)[0]
    assert us == [0, 1, 2, 2, 0, -4, -8, -8, 0, 16, 32, 32, 0]


def test_u21_counts_indices():
    assert lucas_term(LucasParams(2, 1), 7).U == 7
    assert uv_sequence(LucasParams(2, 1), 5)[0] == [0, 1, 2, 3, 4, 5]


def test_p_zero_pattern():
    assert uv_sequence(LucasParams(0, 3), 4)[0] == [0, 1, 0, -3, 0]


@pytest.mark.parametrize("P,Q", SAMPLE_PARAMS)
def test_fast_doubling_matches_plain_recurrence(P, Q):
    params = LucasParams(P, Q)
    us, vs = uv_sequence(params, 500)
    for n in range(501):
        term = lucas_term(params, n)
        assert (term.U, term.V) == (us[n], vs[n])


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        lucas_term(LucasParams(1, -1), -1)


@pytest.mark.parametrize("P,Q", [(1, -1), (3, 5), (2, 2), (-4, 3)])
def test_modular_evaluation_matches_exact(P, Q):
    params = LucasParams(P, Q)
    exact = list(islice(u_walk(P, Q), 514))
    for modulus in (3, 7**3, 11**5, 3 * 5 * 49):
        walk = list(islice(u_walk(P, Q, modulus), 514))
        for n in (0, 1, 2, 17, 100, 513):
            term = lucas_term(params, n)
            assert lucas_uv_mod(params, n, modulus) == (term.U % modulus, term.V % modulus)
            assert walk[n] == term.U % modulus
            assert exact[n] == term.U


def test_uv_sequence_lists_belong_to_the_caller():
    params = LucasParams(1, -1)
    us, vs = uv_sequence(params, 10)
    us[3] = 99
    us.append(0)
    del vs[:]
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    lucas = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    assert uv_sequence(params, 10) == (fib, lucas)
    assert [len(x) for x in uv_sequence(params, 4)] == [5, 5]


def test_modular_evaluation_needs_odd_modulus():
    with pytest.raises(ValueError):
        lucas_uv_mod(LucasParams(1, -1), 5, 10)


@pytest.mark.parametrize("P,Q", SAMPLE_PARAMS)
def test_companion_norm_identity(P, Q):
    params = LucasParams(P, Q)
    for n, (u, v) in enumerate(zip(*uv_sequence(params, 120))):
        assert v**2 - params.D * u**2 == 4 * params.Q**n


@pytest.mark.parametrize("P,Q", SAMPLE_PARAMS + [(0, -5)])
def test_identities_exhaustive_small(P, Q):
    assert check_identities_upto(LucasParams(P, Q), 60)
