"""Exponential and Erlang delay arithmetic plus seeded sampling streams.

A transmission delay is a constant offset plus independent Erlang terms
(each the sum of iid exponential draws at one rate).  Sums are kept in a
canonical form: terms with equal rates are merged and the term list is
sorted by rate, so equal distributions compare equal and sampling order
is reproducible.  The package builds every delay from a checked
scenario's shapes and rates, so these types do not check them again.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ErlangDelay:
    """Sum of ``shape`` iid exponential delays at ``rate``."""

    shape: int
    rate: float

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class DelaySum:
    """Constant offset plus independent Erlang terms (canonical form)."""

    constant: float = 0.0
    terms: tuple = ()


def delay_sum(constant: float = 0.0, terms=()) -> DelaySum:
    """Build a canonical DelaySum: equal rates merged, terms sorted by rate."""
    by_rate = {}
    for t in terms:
        by_rate[t.rate] = by_rate.get(t.rate, 0) + t.shape
    merged = tuple(ErlangDelay(by_rate[r], r) for r in sorted(by_rate))
    return DelaySum(float(constant), merged)


def added_in_order(values) -> float:
    """Left-to-right float sum.  From Python 3.12 on the builtin ``sum()``
    compensates float rounding, which would change report bytes."""
    total = 0.0
    for value in values:
        total += value
    return total


def delay_mean(d: DelaySum) -> float:
    return d.constant + added_in_order(t.mean for t in d.terms)


def sample_delay(d: DelaySum, rng: np.random.Generator) -> float:
    """One draw from the delay distribution using the caller's generator.

    Each Erlang term consumes exactly ``shape`` exponential draws in
    canonical term order, so identical generator states yield identical
    samples.
    """
    total = d.constant
    for t in d.terms:
        total += float(rng.exponential(1.0 / t.rate, t.shape).sum())
    return total


def _entropy_int(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key) & 0x7FFFFFFFFFFFFFFF


def substream(seed, *keys) -> np.random.Generator:
    """Deterministic child generator for (seed, keys).

    Sampling paths are pure functions of the seed and the key tuple; no
    global generator state is involved.  String keys are hashed stably.
    """
    entropy = [_entropy_int(seed)] + [_entropy_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))
