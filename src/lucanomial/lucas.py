"""Exact arithmetic for fundamental and companion Lucas sequences."""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, NamedTuple

__all__ = ["LucasParams", "LucasTerm", "lucas_term", "lucas_uv_mod"]


class _LucasFields(NamedTuple):
    P: int
    Q: int
    D: int
    zero_period: int | None
    degenerate: bool


class LucasParams(_LucasFields):
    """Recurrence parameters (P, Q) for the pair U, V with x_{n+2} = P x_{n+1} - Q x_n.

    U starts (0, 1) and V starts (2, P).  Q must be nonzero; negative P and Q
    are fully supported.  D is the discriminant P^2 - 4Q.  The sequence is
    degenerate exactly when U_2 * U_3 * U_4 * U_6 = 0, in which case U has
    periodically recurring zero terms.  D, zero_period and degenerate are
    derived from (P, Q) however a LucasParams is made, _make and _replace
    included.
    """

    __slots__ = ()

    def __new__(cls, P: int, Q: int) -> LucasParams:
        if Q == 0:
            raise ValueError("Q must be nonzero")
        zero_period = _zero_period(P, Q)
        return tuple.__new__(cls, (P, Q, P * P - 4 * Q, zero_period, zero_period is not None))

    def __getnewargs__(self) -> tuple[int, int]:
        return self.P, self.Q

    @classmethod
    def _make(cls, fields: Iterable) -> LucasParams:
        P, Q, *derived = fields
        made = cls(P, Q)
        if derived and tuple(derived) != made[2:]:
            raise ValueError("D, zero_period and degenerate follow from P and Q")
        return made

    def _replace(self, **changes: int) -> LucasParams:
        P, Q = changes.pop("P", self.P), changes.pop("Q", self.Q)
        if changes:
            raise ValueError(f"only P and Q can be replaced, not {sorted(changes)}")
        return type(self)(P, Q)


def _zero_period(P: int, Q: int) -> int | None:
    """Least n >= 1 with U_n = 0, or None when all positive-index terms are nonzero.

    Zero terms occur only when the root ratio of x^2 - Px + Q is a root of
    unity; they then sit exactly at the multiples of this period, which is
    always one of 2, 3, 4, 6.
    """
    u = list(islice(u_walk(P, Q), 7))
    for n in (2, 3, 4, 6):
        if u[n] == 0:
            return n
    return None


def u_walk(P: int, Q: int, modulus: int | None = None) -> Iterator[int]:
    """U_0, U_1, U_2, ... of U(P, Q) by the three-term recurrence, each term
    reduced mod `modulus` when one is given; the only walk of U in the package."""
    if modulus is None:
        u_prev, u = 0, 1
        while True:
            yield u_prev
            u_prev, u = u, P * u - Q * u_prev
    P, Q = P % modulus, Q % modulus
    u_prev, u = 0, 1 % modulus
    while True:
        yield u_prev
        u_prev, u = u, (P * u - Q * u_prev) % modulus


class LucasTerm(NamedTuple):
    """Exact value pair (U_n, V_n)."""

    n: int
    U: int
    V: int


def _ladder(P: int, Q: int, n: int, modulus: int | None = None) -> tuple[int, int]:
    """(U_n, U_{n+1}) of U(P, Q) by binary doubling, O(log n) steps, both terms
    reduced mod `modulus` when one is given.

    The addition formula at m = t and m = t + 1 doubles the index,
    U_{2t} = 2 U_t U_{t+1} - P U_t^2 and U_{2t+1} = U_{t+1}^2 - Q U_t^2, and
    a 1 bit then takes one step of the recurrence.
    """
    u, u1 = 0, 1
    for bit in bin(n)[2:]:
        square = u * u
        u, u1 = 2 * u * u1 - P * square, u1 * u1 - Q * square
        if bit == "1":
            u, u1 = u1, P * u1 - Q * u
        if modulus is not None:
            u, u1 = u % modulus, u1 % modulus
    return u, u1


def lucas_term(params: LucasParams, n: int) -> LucasTerm:
    """Exact (U_n, V_n) in O(log n) big-integer steps, V_n = 2 U_{n+1} - P U_n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    u, u1 = _ladder(params.P, params.Q, n)
    return LucasTerm(n, u, 2 * u1 - params.P * u)


def lucas_uv_mod(params: LucasParams, n: int, modulus: int) -> tuple[int, int]:
    """(U_n mod modulus, V_n mod modulus) for any modulus >= 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    u, u1 = _ladder(params.P, params.Q, n, modulus)
    return u, (2 * u1 - params.P * u) % modulus


def uv_sequence(params: LucasParams, n_max: int) -> tuple[list[int], list[int]]:
    """Exact U_0..U_{n_max} and V_0..V_{n_max} as two new lists.

    One walk gives U_0 .. U_{n_max + 1}; V_t = 2 U_{t+1} - P U_t needs no
    second one.
    """
    if n_max < 0:
        raise ValueError("index must be nonnegative")
    P = params.P
    us = list(islice(u_walk(P, params.Q), n_max + 2))
    return us[:-1], [2 * u1 - P * u for u, u1 in zip(us, us[1:])]
