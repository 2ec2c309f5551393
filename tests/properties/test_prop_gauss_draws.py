"""The one-pass Gaussian noise of traces equals ``random.Random.gauss`` bit for bit.

``_gauss_draws`` replays ``rng.gauss(0.0, sigma)`` per sigma without a
method call per value.  Each test drives it and a plain run of ``gauss``
calls from generators in the same state, and demands the same values and
the same generator state (``getstate()`` and the parked Box-Muller spare
``gauss_next``) after every value: over odd and even lengths, fixed and
per-sample sigmas, a spare already parked before the run, and the
``random()``/``uniform()`` draws the flash-crowd and noisy-neighbor shapes
interleave with their noise.
"""

import random
from itertools import repeat

from hypothesis import given, settings, strategies as st

from repro.workloads.trace import _gauss_draws

seeds = st.integers(min_value=0, max_value=2**64 - 1)
sigma_values = st.floats(min_value=0.0, max_value=100.0)


def same_state(a: random.Random, b: random.Random) -> bool:
    return a.getstate() == b.getstate() and a.gauss_next == b.gauss_next


def primed(seed: int, parked: bool) -> tuple[random.Random, random.Random]:
    """Two generators in one state; with *parked*, a spare waits in both."""
    pair = random.Random(seed), random.Random(seed)
    if parked:
        for rng in pair:
            rng.gauss(0.0, 1.0)
    return pair


@given(
    seed=seeds,
    parked=st.booleans(),
    count=st.integers(min_value=0, max_value=41),
    sigma=sigma_values,
)
@settings(max_examples=200, deadline=None)
def test_fixed_sigma_matches_gauss_after_every_value(seed, parked, count, sigma):
    ours, theirs = primed(seed, parked)
    values = []
    for value in _gauss_draws(ours, repeat(sigma, count)):
        values.append(value)
        assert value == theirs.gauss(0.0, sigma)
        assert same_state(ours, theirs)
    assert len(values) == count
    assert same_state(ours, theirs)


@given(
    seed=seeds,
    parked=st.booleans(),
    sigmas=st.lists(sigma_values, max_size=41),
)
@settings(max_examples=200, deadline=None)
def test_per_sample_sigma_matches_gauss(seed, parked, sigmas):
    ours, theirs = primed(seed, parked)
    values = list(_gauss_draws(ours, sigmas))
    assert values == [theirs.gauss(0.0, sigma) for sigma in sigmas]
    assert same_state(ours, theirs)


@given(seed=seeds, parked=st.booleans(), count=st.integers(min_value=0, max_value=41))
@settings(max_examples=200, deadline=None)
def test_interleaved_draws_keep_the_call_order(seed, parked, count):
    # The noisy-neighbor pattern: per sample, the noise, then a burst test
    # and (sometimes) a burst height.
    ours, theirs = primed(seed, parked)
    mine, reference = [], []
    for epsilon in _gauss_draws(ours, repeat(3.0, count)):
        burst = ours.uniform(15.0, 40.0) if ours.random() < 0.5 else 0.0
        mine.append(epsilon + burst)
    for _ in range(count):
        epsilon = theirs.gauss(0.0, 3.0)
        burst = theirs.uniform(15.0, 40.0) if theirs.random() < 0.5 else 0.0
        reference.append(epsilon + burst)
    assert mine == reference
    assert same_state(ours, theirs)


@given(seed=seeds, count=st.integers(min_value=0, max_value=41))
@settings(max_examples=100, deadline=None)
def test_a_leading_uniform_then_noise(seed, count):
    # The flash-crowd pattern: one onset draw, then a day of noise.
    ours, theirs = primed(seed, False)
    assert ours.uniform(0.25, 0.65) == theirs.uniform(0.25, 0.65)
    assert list(_gauss_draws(ours, repeat(2.0, count))) == [
        theirs.gauss(0.0, 2.0) for _ in range(count)
    ]
    assert same_state(ours, theirs)


@given(
    seed=seeds,
    parked=st.booleans(),
    count=st.integers(min_value=1, max_value=41),
    taken=st.integers(min_value=0, max_value=41),
)
@settings(max_examples=100, deadline=None)
def test_stopping_early_leaves_the_state_of_the_values_taken(seed, parked, count, taken):
    ours, theirs = primed(seed, parked)
    draws = _gauss_draws(ours, repeat(1.5, count))
    taken = min(taken, count)
    values = [next(draws) for _ in range(taken)]
    del draws
    assert values == [theirs.gauss(0.0, 1.5) for _ in range(taken)]
    assert same_state(ours, theirs)
    assert ours.gauss(0.0, 1.0) == theirs.gauss(0.0, 1.0)
    assert same_state(ours, theirs)


def test_fifty_consecutive_days_leave_the_same_generator():
    ours, theirs = random.Random(2024), random.Random(2024)
    for day in range(50):
        count = 40 + day % 3
        assert list(_gauss_draws(ours, repeat(1.5, count))) == [
            theirs.gauss(0.0, 1.5) for _ in range(count)
        ]
    assert same_state(ours, theirs)
