import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperalloc.delays import (
    DelaySum,
    ErlangDelay,
    delay_mean,
    delay_sum,
    sample_delay,
    seat,
    substream,
)

from _oracles import delay_variance, variance


def test_exponential_moments():
    # one exponential delay is the Erlang term of shape 1
    d = ErlangDelay(1, 4.0)
    assert d.mean == 0.25
    assert variance(d) == 0.0625


def test_erlang_moments():
    d = ErlangDelay(7, 8.0)
    assert d.mean == 7 / 8
    assert variance(d) == 7 / 64


def test_exp_to_erlang_sum():
    # n iid Exponential(rate) delays sum to Erlang(n, rate): moments add
    exp, erlang = ErlangDelay(1, 2.0), ErlangDelay(3, 2.0)
    assert erlang.mean == 3 * exp.mean
    assert variance(erlang) == 3 * variance(exp)


def test_delay_sum_canonical_form():
    # equal rates merge, terms sort by rate
    s = delay_sum(1.0, [ErlangDelay(2, 4.0), ErlangDelay(1, 2.0), ErlangDelay(3, 4.0)])
    assert s.constant == 1.0
    assert s.terms == (ErlangDelay(1, 2.0), ErlangDelay(5, 4.0))
    assert delay_sum() == DelaySum(0.0, ())


def test_combine_delay_sums():
    a = delay_sum(1.0, [ErlangDelay(2, 4.0)])
    b = delay_sum(0.5, [ErlangDelay(1, 4.0), ErlangDelay(1, 8.0)])
    c = delay_sum(a.constant + b.constant, a.terms + b.terms)
    assert c.constant == 1.5
    assert c.terms == (ErlangDelay(3, 4.0), ErlangDelay(1, 8.0))


def test_mean_and_variance_add():
    s = delay_sum(2.0, [ErlangDelay(2, 4.0), ErlangDelay(1, 2.0)])
    assert delay_mean(s) == 2.0 + 2 / 4 + 1 / 2
    assert delay_variance(s) == 2 / 16 + 1 / 4


def test_sampling_is_reproducible():
    s = delay_sum(1.0, [ErlangDelay(4, 2.0), ErlangDelay(2, 8.0)])
    a = [sample_delay(s, substream(123, "x")) for _ in range(3)]
    b = [sample_delay(s, substream(123, "x")) for _ in range(3)]
    assert a == b
    assert a[0] != sample_delay(s, substream(123, "y"))
    assert a[0] != sample_delay(s, substream(124, "x"))
    assert all(v > 1.0 for v in a)  # constant is a hard floor


def test_substream_key_kinds():
    assert substream(5, 1, 2).random() == substream(5, 1, 2).random()
    assert substream(5, "a", 0).random() == substream(5, "a", 0).random()
    assert substream(5, 1, 2).random() != substream(5, 2, 1).random()


def test_sample_mean_tracks_distribution():
    s = delay_sum(0.5, [ErlangDelay(6, 3.0)])
    rng = substream(99, "mean-check")
    draws = np.array([sample_delay(s, rng) for _ in range(4000)])
    se = math.sqrt(delay_variance(s) / len(draws))
    assert abs(draws.mean() - delay_mean(s)) < 5 * se


# seeds and indices on both sides of 2**32, where an entropy int takes a second word
_seeds = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]), st.integers(0, 2**63 - 1))
_indices = st.one_of(st.integers(0, 2**16), st.integers(2**32 - 2, 2**32 + 2), st.integers(0, 2**63 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=_seeds, keys=st.lists(st.tuples(_indices, _indices), max_size=12))
@example(seed=0, keys=[(0, 0)])
@example(seed=3, keys=[])
@example(seed=2**32 - 1, keys=[(0, 1), (2**32, 3), (5, 2**32 - 1), (2**32 - 1, 2**32), (2**40, 2**33)])
@example(seed=2**32, keys=[(1499, 4), (2**32 + 7, 2**32 + 9)])
@example(seed=2**63 - 1, keys=[(2**63 - 1, 2**63 - 1), (0, 0)])
def test_block_seed_words_match_seed_sequence(seed, keys):
    """One array call, whose keys may mix word widths, gives every key
    SeedSequence's seed words, and a generator seated on a row draws what
    the scalar substream draws."""
    arrivals = np.array([a for a, _ in keys], dtype=np.int64)
    nodes = np.array([n for _, n in keys], dtype=np.int64)
    words = substream(seed, 1, arrivals, nodes)
    assert words.dtype == np.uint64 and words.shape == (len(keys), 4)
    rng = np.random.Generator(np.random.PCG64(0))
    for (arrival, node), row in zip(keys, words):
        entropy = [seed, 1, arrival, node]
        assert row.tolist() == np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
        ref = substream(seed, 1, arrival, node)
        seat(rng, row.tolist())
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_exponential(5).tolist() == ref.standard_exponential(5).tolist()
        assert rng.random() == ref.random()
