"""Growth-rate scan of single layers over the prime size.

Times rank_ladder, the rank-path lucanomial_residue at m = 2 rho - 1 and at
m = 6 rho - 1, compute_sums and lucas_uv_mod for the Fibonacci pair
(P, Q) = (1, -1) at the first maximal-rank prime at or above 250, 1000 and
2000, and fits time ~ p^exponent by least squares in log-log space.  Prints
one JSON object: {"primes": [...], "seconds": {layer: [...]},
"exponents": {layer: ...}}.

    PYTHONPATH=src python3 bench/scaling.py
"""

from __future__ import annotations

import json
import math
import statistics
import time

from lucanomial.binomial import lucanomial_residue
from lucanomial.lucas import LucasParams, lucas_uv_mod
from lucanomial.ranks import primes_in_range, rank_ladder, rank_of_appearance
from lucanomial.sums import compute_sums

PARAMS = LucasParams(1, -1)
TARGETS = (250, 1000, 2000)
REPEATS = 5
MIN_SAMPLE_S = 0.02


def _maximal_prime(target: int) -> int:
    for p in primes_in_range(target, 2 * target):
        if (2 * PARAMS.Q * PARAMS.D) % p and rank_of_appearance(PARAMS, p).maximal:
            return p
    raise ValueError(f"no maximal-rank prime in [{target}, {2 * target}]")


def _seconds_per_call(fn) -> float:
    """Median over REPEATS samples, each looping fn long enough to time it."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_SAMPLE_S:
            break
        loops *= 2
    samples = [elapsed / loops]
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    return statistics.median(samples)


def _layers(p: int) -> dict:
    rank = rank_of_appearance(PARAMS, p)
    rho = rank.rho
    return {
        "rank_ladder": lambda: rank_ladder(PARAMS, p, 6 * rho - 1),
        "residue_2rho": lambda: lucanomial_residue(PARAMS, 2 * rho - 1, rho - 1, p, 5, "rank"),
        "residue_6rho": lambda: lucanomial_residue(PARAMS, 6 * rho - 1, rho - 1, p, 3, "rank"),
        "compute_sums": lambda: compute_sums(PARAMS, rank, 6),
        "uv_mod": lambda: lucas_uv_mod(PARAMS, p * rho, p * p),
    }


def _slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def scan() -> dict:
    primes = [_maximal_prime(t) for t in TARGETS]
    seconds: dict[str, list[float]] = {}
    for p in primes:
        for layer, fn in _layers(p).items():
            seconds.setdefault(layer, []).append(_seconds_per_call(fn))
    logp = [math.log(p) for p in primes]
    exponents = {
        layer: _slope(logp, [math.log(t) for t in ts]) for layer, ts in seconds.items()
    }
    return {"pair": [PARAMS.P, PARAMS.Q], "primes": primes, "seconds": seconds, "exponents": exponents}


if __name__ == "__main__":
    print(json.dumps(scan()))
