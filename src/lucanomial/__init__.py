"""Exact Lucas sequences, Lucanomial coefficients, and machine verification of
Wolstenholme-type congruences modulo p^3, p^5 and p^6 for arbitrary (P, Q).

Each module's `__all__` is its share of the public API; the package exports
their union."""

from . import binomial, lucas, ranks, reports, sums, theorems
from .binomial import *
from .lucas import *
from .ranks import *
from .reports import *
from .sums import *
from .theorems import *

__version__ = "0.1.0"

__all__ = sorted(n for m in (binomial, lucas, ranks, reports, sums, theorems) for n in m.__all__)
