"""Verifiers for the Wolstenholme-type Lucanomial congruences mod p^3, p^5, p^6.

Every verifier targets an odd prime p of maximal rank rho = p - epsilon in
U(P, Q) and returns a CongruenceReport with both sides normalized mod p^j.
Wire identifiers: "N" (the mod-p^3 congruence for binom((k+1)rho-1, rho-1)),
"LjWe" (the mod-p^3 block congruence for binom(k rho, l rho)), "P5_1".."P5_4"
(the four mod-p^5 forms for binom(2 rho - 1, rho - 1), the family "P5") and
"P6" (mod p^6).  One private registry holds each id's least prime, modulus
exponent, sweep cases and check; THEOREM_IDS, the verifiers, `sweep` and the
command line's `--theorem` choices all read it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence

from .binomial import Cell, generalized_binomial, lucanomial_residue, zero_cancellations
from .lucas import LucasParams, lucas_term, u_walk
from .ranks import NonMaximalRankError, RankInfo, maximal_ranks, rank_of_appearance
from .reports import CongruenceReport
from .sums import SumsTable, compute_sums

__all__ = [
    "THEOREM_IDS",
    "verify_wolstenholme",
    "verify_ljunggren",
    "verify_fifth_power",
    "verify_sixth_power",
    "sweep",
]


class _once(cached_property):
    """A part of a _Context, built on first use and kept, as cached_property
    does; but a build that raises is kept too, in the context's `failed`, and
    raised again, so a part that cannot be built is attempted once per cell,
    not once per case."""

    def __get__(self, context: _Context, owner: type | None = None):
        if self.attrname not in context.failed:
            try:
                return super().__get__(context, owner)
            except Exception as exc:
                context.failed[self.attrname] = exc
        raise context.failed[self.attrname]


class _Context:
    """What the cases of one cell (params, p) share, each part built on first
    use inside the case that needs it, so a failure lands in that case's
    report.  Every part reaches the case multiplier `kmax` at `exponent`, the
    largest modulus exponent among the theorems checked at p.  `rank` must be
    that of p in U(params)."""

    def __init__(self, params: LucasParams, rank: RankInfo, kmax: int, exponent: int) -> None:
        self.params, self.rank, self.kmax, self.exponent = params, rank, kmax, exponent
        self.failed: dict[str, Exception] = {}

    @_once
    def cell(self) -> Cell:
        """One residue context for every case."""
        # N reaches m = (k+1) rho - 1 and its base case 2 rho - 1; LjWe m = k rho.
        m_max = (max(self.kmax, 1) + 1) * self.rank.rho - 1
        return Cell(self.params, self.rank.p, m_max, self.exponent)

    @_once
    def central(self) -> int:
        """binom(2 rho - 1, rho - 1)_U mod p^exponent: N's base case and the
        left side of P5 and P6, each of which reduces it to its own modulus.
        Where p | D the exact path forms it too, as a witness of the rank
        path there, and a disagreement raises."""
        params, p, rho, j = self.params, self.rank.p, self.rank.rho, self.exponent
        m, n = 2 * rho - 1, rho - 1
        value = lucanomial_residue(params, m, n, p, j, cell=self.cell)
        if self.rank.epsilon == 0 and value != lucanomial_residue(params, m, n, p, j, "exact"):
            raise ArithmeticError(f"rank and exact paths disagree on binom({m}, {n})_U")
        return value.residue()

    @_once
    def blocks(self) -> list[int]:
        return _block_terms(self.params, self.rank.rho, self.kmax)

    @_once
    def table(self) -> SumsTable:
        return compute_sums(self.params, self.rank, self.exponent)

    @_once
    def twist(self) -> int:
        """(-1)^(rho-1) Q^(rho(rho-1)/2) mod p^exponent, N's right side at
        k = 1: its powers are the sign and Q-power of N and LjWe, and it is
        the prefactor of P5_2..P5_4 and P6."""
        rho, modulus = self.rank.rho, self.rank.p**self.exponent
        sign = 1 if rho % 2 else modulus - 1
        return sign * pow(self.params.Q, rho * (rho - 1) // 2, modulus) % modulus


class _Theorem(NamedTuple):
    min_p: int
    exponent: int
    # The cases a sweep checks, from its k list.
    cases: Callable[[Sequence[int]], list[dict[str, int]]]
    # One case checked in a cell.  It must look its verifier up by the
    # module-level name at each call: tracers patch those names.
    check: Callable[[_Context, dict[str, int]], CongruenceReport]


def _fifth_power(variant: int) -> _Theorem:
    return _Theorem(
        7, 5, lambda ks: [{"k": variant}],
        lambda c, case: verify_fifth_power(c.params, c.rank.p, variant, c),
    )


_THEOREMS: dict[str, _Theorem] = {
    "N": _Theorem(
        5, 3, lambda ks: [{"k": k} for k in ks],
        lambda c, case: verify_wolstenholme(c.params, c.rank.p, case["k"], c),
    ),
    "LjWe": _Theorem(
        5, 3, lambda ks: [{"k": k, "l": l} for k in ks for l in ks if l <= k],
        lambda c, case: verify_ljunggren(c.params, c.rank.p, case["k"], case["l"], c),
    ),
    **{f"P5_{variant}": _fifth_power(variant) for variant in (1, 2, 3, 4)},
    "P6": _Theorem(
        7, 6, lambda ks: [{}],
        lambda c, case: verify_sixth_power(c.params, c.rank.p, c),
    ),
}
THEOREM_IDS = tuple(_THEOREMS)


def _context(
    params: LucasParams, p: int, tid: str, context: _Context | None, k: int = 0
) -> tuple[_Context, int]:
    """Theorem `tid`'s modulus exponent and the context its case at
    multiplier k is checked in: the given one, or else a new one for this
    case alone.  p must be a prime at or above tid's least prime, of maximal
    rank; a given context must be of (params, p) and reach k at tid's
    exponent, so one built for another cell cannot answer this case."""
    theorem = _THEOREMS[tid]
    if p < theorem.min_p:
        raise ValueError(f"requires a prime p >= {theorem.min_p}")
    if context is None:  # rank_of_appearance raises for p not prime
        context = _Context(params, rank_of_appearance(params, p), k, theorem.exponent)
    elif context.params != params or context.rank.p != p:
        raise ValueError(f"context belongs to another cell than ({params.P}, {params.Q}, {p})")
    elif context.exponent < theorem.exponent or context.kmax < k:
        raise ValueError(f"context reaches k <= {context.kmax} mod p^{context.exponent} only")
    rank = context.rank
    if not rank.maximal:
        raise NonMaximalRankError(f"rank of {p} is {rank.rho}, not {p - rank.epsilon}")
    return context, theorem.exponent


def verify_wolstenholme(
    params: LucasParams, p: int, k: int, context: _Context | None = None
) -> CongruenceReport:
    """Check binom((k+1)rho - 1, rho - 1)_U = (-1)^(k eps) * Q^(k rho (rho-1)/2) mod p^3.

    Needs p >= 5 of maximal rank, p not dividing Q, k >= 0.  Also requires
    the left side to equal the k-th power of the k = 1 left side mod p^3,
    which ties the whole family to its base case.  A `context`, the per-cell
    one `sweep` builds, supplies the rank, the residue cell for the left side
    and the central Lucanomial for the base case; one not of (params, p), or
    not reaching k mod p^3, is refused with ValueError.  Without one, the
    verifier builds one for this case alone.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    context, j = _context(params, p, "N", context, k)
    rank, rho = context.rank, context.rank.rho
    modulus = p**j
    m, n = (k + 1) * rho - 1, rho - 1
    lhs = lucanomial_residue(params, m, n, p, j, cell=context.cell).residue()
    rhs = pow(context.twist, k, modulus)
    base = context.central % modulus
    error = None if pow(base, k, modulus) == lhs else "k-th power of the base case disagrees"
    return CongruenceReport.of(
        "N", params, rank, {"k": k}, j, lhs, rhs, error, zero_cancellations(params, m, n)
    )


def _block_terms(params: LucasParams, rho: int, upto: int) -> list[int]:
    """U_0, U_rho, ..., U_{upto rho}: the subsequence of U at multiples of rho,
    built as U_rho times the terms of U(V_rho, Q^rho).  Where U_rho = 0 every
    term is 0."""
    term = lucas_term(params, rho)
    seq = islice(u_walk(term.V, params.Q**rho), max(upto, 1) + 1)
    return [term.U * x for x in seq]


def verify_ljunggren(
    params: LucasParams, p: int, k: int, l: int, context: _Context | None = None
) -> CongruenceReport:
    """Check the block congruence mod p^3 for binom(k rho, l rho)_U:

        binom(k rho, l rho)_U
            = binom(k, l)_U' * (-1)^(l(k-l) eps) * Q^(l(k-l) rho (rho-1)/2),

    with U' the sequence of U-terms at multiples of rho, U'_t = U_{t rho},
    built as U_rho * U(V_rho, Q^rho).  Needs p >= 5 of maximal rank and
    k >= l >= 0.  A `context`, the per-cell one `sweep` builds, supplies the
    rank, the residue cell for the left side and the terms of U' for the
    right; one not of (params, p), or not reaching k mod p^3, is refused
    with ValueError.  Without one, the verifier builds one for this case
    alone.
    """
    if l < 0 or k < l:
        raise ValueError("need k >= l >= 0")
    context, j = _context(params, p, "LjWe", context, k)
    rank, rho = context.rank, context.rank.rho
    m, n = k * rho, l * rho
    lhs = lucanomial_residue(params, m, n, p, j, cell=context.cell).residue()
    block = generalized_binomial(context.blocks, k, l)
    rhs = block * pow(context.twist, l * (k - l), p**j)
    return CongruenceReport.of(
        "LjWe", params, rank, {"k": k, "l": l}, j, lhs, rhs, None, zero_cancellations(params, m, n)
    )


def verify_fifth_power(
    params: LucasParams, p: int, variant: int, context: _Context | None = None
) -> CongruenceReport:
    """Check one of the four mod-p^5 expansions of binom(2 rho - 1, rho - 1)_U.

    Variant 1:  (V_rho/2)^(rho-1) * [1 + (U/V) s1 + (U/V)^2 s11 + R] with
                R = D^2 (U/V)^4 when epsilon = 1, else 0.
    Variant 2:  (-1)^eps Q^(rho(rho-1)/2) * [1 + 2 (U/V) s1].
    Variant 3:  (-1)^eps Q^(rho(rho-1)/2) * [1 - 4 (U/V)^2 sum Q^t/U_t^2].
    Variant 4:  (-1)^eps Q^(rho(rho-1)/2) * [1 + (U/V) s1 + (U/V)^2 s11
                + D (U/V)^2 (rho-1)/2].

    Here U/V is U_rho/V_rho, s1 and s11 the tabulated sums.  Needs a prime
    p >= 7 of maximal rank.  A `context`, the per-cell one `sweep` builds,
    supplies the rank, the central Lucanomial for the left side and the sums
    table for the right; one not of (params, p), or built below p^5, is refused
    with ValueError.  Without one, the verifier builds one for this case
    alone.
    """
    if variant not in (1, 2, 3, 4):
        raise ValueError("variant must be 1, 2, 3 or 4")
    return _central_expansion(params, p, f"P5_{variant}", {"k": variant}, context)


def verify_sixth_power(
    params: LucasParams, p: int, context: _Context | None = None
) -> CongruenceReport:
    """Check the mod-p^6 expansion of binom(2 rho - 1, rho - 1)_U:

        (-1)^(rho-1) Q^(rho(rho-1)/2) * [1 + 2 (U/V) s1 + (2/3) (U/V)^3 s3].

    Needs a prime p >= 7 of maximal rank (3 is then invertible mod p^6).
    A `context`, the per-cell one `sweep` builds, supplies the rank, the
    central Lucanomial for the left side and the sums table for the right; one
    not of (params, p), or built below p^6, is refused with ValueError.
    Without one, the verifier builds one for this case alone.
    """
    return _central_expansion(params, p, "P6", {}, context)


def _central_expansion(
    params: LucasParams, p: int, tid: str, inputs: dict[str, int], context: _Context | None
) -> CongruenceReport:
    """Check `tid`, one of P5_1..P5_4 and P6: the central Lucanomial against a
    prefactor times a bracket in U/V = U_rho/V_rho and the tabulated sums."""
    context, j = _context(params, p, tid, context)
    rank, table = context.rank, context.table
    rho, modulus = rank.rho, p**j
    lhs = context.central % modulus
    v_r, uv = table.v_rho % modulus, table.ratio % modulus
    s1 = table.sigma(1) % modulus
    uv2 = uv * uv % modulus
    inv2 = pow(2, -1, modulus)
    prefactor = context.twist
    if tid == "P5_1":
        prefactor = pow(v_r * inv2 % modulus, rho - 1, modulus)
        bracket = 1 + uv * s1 + uv2 * table.sigma(1, 1)
        if rank.epsilon == 1:
            bracket += params.D * params.D % modulus * pow(uv, 4, modulus)
    elif tid == "P5_2":
        bracket = 1 + 2 * uv * s1
    elif tid == "P5_3":
        bracket = 1 - uv2 * table.weighted[0]
    elif tid == "P5_4":
        half_term = params.D * inv2 % modulus * (rho - 1) % modulus
        bracket = 1 + uv * s1 + uv2 * ((table.sigma(1, 1) + half_term) % modulus)
    else:
        bracket = 1 + 2 * uv * s1 + 2 * pow(3, -1, modulus) * uv2 * uv % modulus * table.sigma(3)
    rhs = prefactor * (bracket % modulus)
    zeros = zero_cancellations(params, 2 * rho - 1, rho - 1)
    return CongruenceReport.of(tid, params, rank, inputs, j, lhs, rhs, None, zeros)


def sweep(
    params_grid: Iterable[LucasParams],
    p_range: tuple[int, int],
    theorem_set: Sequence[str] = THEOREM_IDS,
    k_range: Iterable[int] | None = None,
) -> list[CongruenceReport]:
    """Cartesian sweep over the grid, restricted to maximal-rank primes that
    meet each theorem's preconditions; deterministic (params, p, theorem, k, l)
    order.  Unexpected per-case failures land in error reports rather than
    propagating, so a sweep always returns one report per attempted case.
    """
    for tid in theorem_set:
        if tid not in _THEOREMS:
            raise ValueError(f"unknown theorem id {tid!r}")
    ks = list(k_range) if k_range is not None else list(range(6))
    kmax = max(ks, default=0)
    selected = [(tid, _THEOREMS[tid]) for tid in theorem_set]
    reports: list[CongruenceReport] = []
    for params in params_grid:
        for rank in maximal_ranks(params, *p_range):
            here = [(tid, theorem) for tid, theorem in selected if rank.p >= theorem.min_p]
            if not here:
                continue
            context = _Context(params, rank, kmax, max(theorem.exponent for _, theorem in here))
            for tid, theorem in here:
                for case in theorem.cases(ks):
                    try:
                        reports.append(theorem.check(context, case))
                    except Exception as exc:  # recorded, not raised: sweeps must finish
                        reports.append(
                            CongruenceReport.of(tid, params, rank, case, 0, 0, 0, repr(exc))
                        )
    return reports
