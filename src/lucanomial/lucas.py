"""Exact arithmetic for fundamental and companion Lucas sequences."""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "LucasParams",
    "LucasTerm",
    "u_walk",
    "lucas_term",
    "lucas_range",
    "lucas_uv_mod",
    "uv_sequence",
    "check_identities",
    "check_identities_upto",
]


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


def _bits(n: int):
    return map(int, bin(n)[2:]) if n else ()


def lucas_term(params: LucasParams, n: int) -> LucasTerm:
    """Exact (U_n, V_n) by binary double-and-add, O(log n) big-integer steps.

    Doubling: U_{2t} = U_t V_t and V_{2t} = V_t^2 - 2 Q^t.  The odd step halves
    P*U + V and D*U + P*V, both of which are always even.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    P, Q, D = params.P, params.Q, params.D
    u, v, q = 0, 2, 1
    for bit in _bits(n):
        u, v, q = u * v, v * v - 2 * q, q * q
        if bit:
            u, v, q = (P * u + v) // 2, (D * u + P * v) // 2, q * Q
    return LucasTerm(n, u, v)


def lucas_range(params: LucasParams, n_max: int) -> list[LucasTerm]:
    """Terms 0..n_max computed by the plain three-term recurrence."""
    us, vs = uv_sequence(params, n_max)
    return [LucasTerm(i, u, v) for i, (u, v) in enumerate(zip(us, vs))]


def lucas_uv_mod(params: LucasParams, n: int, modulus: int) -> tuple[int, int]:
    """(U_n mod modulus, V_n mod modulus) for an odd modulus >= 3."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and >= 3")
    inv2 = (modulus + 1) // 2
    P, Q, D = params.P % modulus, params.Q % modulus, params.D % modulus
    u, v, q = 0, 2 % modulus, 1
    for bit in _bits(n):
        u, v, q = u * v % modulus, (v * v - 2 * q) % modulus, q * q % modulus
        if bit:
            u, v, q = (
                (P * u + v) * inv2 % modulus,
                (D * u + P * v) * inv2 % modulus,
                q * Q % modulus,
            )
    return u, v


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


def check_identities(params: LucasParams, s: int, t: int) -> bool:
    """True iff the six classical addition/doubling/subtraction identities hold
    exactly at indices (s, t):

        2 U_{s+t} = U_s V_t + U_t V_s          2 V_{s+t} = V_s V_t + D U_s U_t
        V_t^2 - D U_t^2 = 4 Q^t                U_{2t} = U_t V_t
        V_{2t} = V_t^2 - 2 Q^t                 2 Q^t U_{s-t} = U_s V_t - U_t V_s

    Requires s >= t >= 0.
    """
    if t < 0 or s < t:
        raise ValueError("need s >= t >= 0")
    us, vs = uv_sequence(params, s + t)
    D, qt = params.D, params.Q**t
    a, b = us[s] * vs[t], us[t] * vs[s]
    return (
        2 * us[s + t] == a + b
        and 2 * vs[s + t] == vs[s] * vs[t] + D * us[s] * us[t]
        and vs[t] ** 2 - D * us[t] ** 2 == 4 * qt
        and us[2 * t] == us[t] * vs[t]
        and vs[2 * t] == vs[t] ** 2 - 2 * qt
        and 2 * qt * us[s - t] == a - b
    )


def check_identities_upto(params: LucasParams, s_max: int) -> bool:
    """Batched check_identities over all 0 <= t <= s <= s_max."""
    us, vs = uv_sequence(params, 2 * s_max)
    D, Q = params.D, params.Q
    qpow = [1]
    for _ in range(s_max):
        qpow.append(qpow[-1] * Q)
    for t in range(s_max + 1):
        qt = qpow[t]
        if vs[t] ** 2 - D * us[t] ** 2 != 4 * qt:
            return False
        if us[2 * t] != us[t] * vs[t] or vs[2 * t] != vs[t] ** 2 - 2 * qt:
            return False
        ut, vt = us[t], vs[t]
        for s in range(t, s_max + 1):
            a, b = us[s] * vt, ut * vs[s]
            if 2 * us[s + t] != a + b:
                return False
            if 2 * vs[s + t] != vs[s] * vt + D * us[s] * ut:
                return False
            if 2 * qt * us[s - t] != a - b:
                return False
    return True
