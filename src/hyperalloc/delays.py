"""Exponential and Erlang delay arithmetic plus seeded sampling streams.

A transmission delay is a constant offset plus independent Erlang terms
(each the sum of iid exponential draws at one rate).  Sums are kept in a
canonical form: terms with equal rates are merged and the term list is
sorted by rate, so equal distributions compare equal and sampling order
is reproducible.  The package builds every delay from a checked
scenario's shapes and rates, so these types do not check them again.

Sample mode draws each (arrival, candidate) communication score from the
PCG64 stream of ``SeedSequence([seed, 1, arrival index, node index])``.
:func:`substream` builds that generator for scalar keys; for array keys
it returns the streams' seed words from one vectorised pass of
``SeedSequence``'s hash, and :func:`seat` puts a reused generator in the
state a row of them gives, with identical draws.
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


# numpy's .sum() adds fewer values than this left to right, more in pairwise blocks
_PAIRWISE = 8


def sample_delay(d: DelaySum, rng: np.random.Generator) -> float:
    """One draw from the delay distribution using the caller's generator.

    Each Erlang term consumes exactly ``shape`` exponential draws in
    canonical term order, so identical generator states yield identical
    samples.  One call draws them all; a term is ``1 / rate`` times its
    slice, summed as ``rng.exponential(1 / rate, shape).sum()`` sums it.
    """
    draws = rng.standard_exponential(sum(t.shape for t in d.terms))
    values = draws.tolist()
    total = d.constant
    at = 0
    for t in d.terms:
        scale, stop = 1.0 / t.rate, at + t.shape
        if t.shape < _PAIRWISE:
            total += added_in_order([x * scale for x in values[at:stop]])
        else:
            total += float((draws[at:stop] * scale).sum())
        at = stop
    return total


# SeedSequence's hash, all arithmetic mod 2**32; every operand stays uint64
# and is masked to 32 bits before a multiply, so no product overflows
_TWO32 = np.uint64(1 << 32)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK63 = np.uint64(0x7FFFFFFFFFFFFFFF)
_SHIFT32 = np.uint64(32)
_XSHIFT = np.uint64(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R_NEG = np.uint64((1 << 32) - 0x4973F715)  # -MIX_MULT_R mod 2**32
_POOL_SIZE = 4


def _hash_constants(init, mult):
    """The (xor, multiplier) pair of each successive hash step."""
    const = init
    while True:
        following = const * mult & 0xFFFFFFFF
        yield np.uint64(const), np.uint64(following)
        const = following


def _hashmix(value, constants):
    xor, mult = next(constants)
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = (x * _MIX_MULT_L & _MASK32) + (y * _MIX_MULT_R_NEG & _MASK32) & _MASK32
    return result ^ result >> _XSHIFT


def _mix_entropy(entropy):
    """The pool of ``SeedSequence.mix_entropy``, one array per pool word,
    from its entropy words (one array per word position)."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, constants) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    return pool


def _generate_state(pool):
    """The eight 32-bit words of ``generate_state(4, np.uint64)``."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    return [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(8)]


def _entropy_int(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key) & 0x7FFFFFFFFFFFFFFF


def substream(seed, *keys):
    """Deterministic child generator for (seed, keys).

    Sampling paths are pure functions of the seed and the key tuple; no
    global generator state is involved.  String keys are hashed stably.

    When a key is an integer array, the keys broadcast together and the
    result is instead their ``(n, 4)`` uint64 seed words, row i equal to
    ``SeedSequence(entropy of key i).generate_state(4, np.uint64)``:
    :func:`seat` turns a row into that key's generator state.
    """
    if not any(isinstance(k, np.ndarray) for k in keys):
        entropy = [_entropy_int(seed)] + [_entropy_int(k) for k in keys]
        return np.random.default_rng(np.random.SeedSequence(entropy))
    columns = np.broadcast_arrays(
        np.uint64(_entropy_int(seed)),
        *(k.astype(np.uint64) & _MASK63 if isinstance(k, np.ndarray) else np.uint64(_entropy_int(k)) for k in keys),
    )
    columns = [c.ravel() for c in columns]
    # SeedSequence splits each int into 32-bit words, low word first, so a
    # key's width depends on which of its values reach 2**32
    wide = [c >= _TWO32 for c in columns]
    layout = sum(w.astype(np.int64) << i for i, w in enumerate(wide))
    words = np.empty((len(columns[0]), 4), dtype=np.uint64)
    for code in np.flatnonzero(np.bincount(layout)).tolist():  # np.unique would import numpy.ma
        rows = layout == code
        entropy = []
        for i, column in enumerate(columns):
            entropy.append(column[rows] & _MASK32)
            if code >> i & 1:
                entropy.append(column[rows] >> _SHIFT32)
        state = _generate_state(_mix_entropy(entropy))
        words[rows] = np.stack([state[2 * w] | state[2 * w + 1] << _SHIFT32 for w in range(4)], axis=1)
    return words


# PCG64's set_seed step (M. E. O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905): state = ((inc + seed) * M + inc) mod 2**128
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def seat(rng: np.random.Generator, words) -> np.random.Generator:
    """Put ``rng``'s PCG64 in the state that ``PCG64`` seeded from four
    seed words (one row of :func:`substream`'s array result, as ints)
    starts in, and return it: the draws equal the scalar substream's."""
    w0, w1, w2, w3 = words
    seed = w0 << 64 | w1
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((inc + seed) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
