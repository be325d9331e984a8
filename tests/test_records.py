"""The result records are NamedTuples: derived fields, validation, equality,
hashing, repr and the tuple protocol."""

import copy
import pickle

import pytest

from lucanomial import (
    LucasParams,
    RankInfo,
    ValuedResidue,
    lucanomial_residue,
    sweep,
    theorems,
)
from lucanomial.ranks import maximal_ranks

FIB = LucasParams(1, -1)
PAIRS = [(P, Q) for P in range(-5, 6) for Q in range(-5, 6) if Q != 0]

FIB_REPR = "LucasParams(P=1, Q=-1, D=5, zero_period=None, degenerate=False)"
RANK_REPR = "RankInfo(p=11, rho=10, epsilon=1, maximal=True, rho_prime_power={1: 10, 2: 110})"


@pytest.mark.parametrize("P", [-3, 0, 1, 2])
def test_params_q_zero_raises(P):
    with pytest.raises(ValueError, match="Q must be nonzero"):
        LucasParams(P, 0)
    with pytest.raises(ValueError, match="Q must be nonzero"):
        LucasParams(P, 1)._replace(Q=0)


def test_params_replace_rederives_d_and_zero_period():
    for P, Q in PAIRS:
        params = LucasParams(P, 1)._replace(Q=Q)
        fresh = LucasParams(P, Q)
        assert params.D == fresh.D == P * P - 4 * Q
        assert params.zero_period == fresh.zero_period
        assert params.degenerate == fresh.degenerate
        assert tuple(params) == tuple(fresh)
        assert LucasParams(0, Q)._replace(P=P) == fresh
    with pytest.raises(ValueError):
        FIB._replace(D=0)
    with pytest.raises(ValueError):
        LucasParams._make((1, -1, 0, None, False))  # D disagrees with (P, Q)
    assert LucasParams._make((1, -1)) == LucasParams._make(tuple(FIB)) == FIB


def test_params_equality_and_hash_follow_p_and_q():
    seen = {}
    for P, Q in PAIRS:
        a, b = LucasParams(P, Q), LucasParams(P, Q)
        assert a == b and hash(a) == hash(b)
        seen[a] = (P, Q)
    assert len(seen) == len(PAIRS)
    assert all(seen[LucasParams(P, Q)] == (P, Q) for P, Q in PAIRS)
    assert LucasParams(1, -1) != LucasParams(-1, -1)
    assert LucasParams(1, -1) != LucasParams(1, 1)


def test_records_survive_pickle_and_copy():
    [rank] = maximal_ranks(FIB, 11, 11, 2)
    residue = ValuedResidue(5, 3, 1, 7)
    for record in (FIB, LucasParams(2, 2), rank, residue, ValuedResidue.exact_zero(5, 3)):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        assert type(copy.copy(record)) is type(record)


def test_records_keep_their_repr():
    assert repr(FIB) == FIB_REPR
    assert repr(LucasParams(2, 2)) == (
        "LucasParams(P=2, Q=2, D=-4, zero_period=4, degenerate=True)"
    )
    [rank] = maximal_ranks(FIB, 11, 11, 2)
    assert repr(rank) == RANK_REPR
    assert repr(ValuedResidue(5, 3, 1, 7)) == (
        "ValuedResidue(p=5, k=3, valuation=1, unit=7, zero=False)"
    )
    assert repr(ValuedResidue.exact_zero(5, 3)) == (
        "ValuedResidue(p=5, k=3, valuation=0, unit=0, zero=True)"
    )


def test_error_column_carries_record_reprs(monkeypatch):
    def failing_check(params, p, k, context=None):
        raise ArithmeticError(params, context.rank)

    monkeypatch.setattr(theorems, "verify_wolstenholme", failing_check)
    [rank] = maximal_ranks(FIB, 11, 11, 1)
    [report] = sweep([FIB], (11, 11), ("N",), [1])
    assert report.rank == rank and not report.holds
    assert report.to_record()["error"] == f"ArithmeticError({FIB_REPR}, {rank!r})"
    assert repr(rank) == "RankInfo(p=11, rho=10, epsilon=1, maximal=True, rho_prime_power={1: 10})"


@pytest.mark.parametrize("P,Q,period", [(2, 2, 4), (1, 1, 3), (0, 3, 2), (3, 3, 6)])
def test_zero_period_of_degenerate_pairs(P, Q, period):
    params = LucasParams(P, Q)
    assert params.zero_period == period and params.degenerate
    assert params.D == P * P - 4 * Q


def test_rank_info_has_no_default_powers():
    with pytest.raises(TypeError):
        RankInfo(11, 10, 1, True)


def test_valued_residue_checks_fields_on_every_path():
    bad = [
        ((5, 3, 1, 0, True), "exact zero"),  # zero with a valuation
        ((5, 3, 0, 2, True), "exact zero"),  # zero with a unit
        ((5, 3, -1, 2), "nonnegative"),
        ((5, 3, 0, 125), "out of range"),
        ((5, 3, 0, -1), "out of range"),
        ((5, 3, 0, 10), "coprime"),
    ]
    for fields, message in bad:
        with pytest.raises(ValueError, match=message):
            ValuedResidue(*fields)
        with pytest.raises(ValueError, match=message):
            ValuedResidue._make(fields)
    with pytest.raises(ValueError, match="coprime"):
        ValuedResidue(5, 3, 0, 7)._replace(unit=10)
    assert ValuedResidue(5, 3, 0, 7)._replace(valuation=2) == ValuedResidue(5, 3, 2, 7)


def test_valued_residue_arithmetic_and_tuple_protocol():
    a = lucanomial_residue(FIB, 9, 4, 5, 3)
    p, k, valuation, unit, zero = a
    assert (p, k, valuation, unit, zero) == (a[0], 3, a.valuation, a[3], False)
