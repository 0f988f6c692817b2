"""Tests for the deterministic RNG registry."""

import numpy as np
from hypothesis import given, strategies as st

from repro.rng import RngRegistry, derive_seed


def test_same_seed_same_stream():
    a = RngRegistry(1).stream("x").integers(0, 1_000_000)
    b = RngRegistry(1).stream("x").integers(0, 1_000_000)
    assert int(a) == int(b)


def test_different_names_are_independent():
    registry = RngRegistry(1)
    a = registry.stream("a").integers(0, 10**9, size=16)
    b = registry.stream("b").integers(0, 10**9, size=16)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_advances():
    registry = RngRegistry(3)
    first = registry.stream("s").integers(0, 10**9)
    second = registry.stream("s").integers(0, 10**9)
    # Same object: the second draw continues the stream.
    assert registry.stream("s") is registry.stream("s")
    # Overwhelmingly likely to differ; equal would mean a reset.
    assert (int(first), int(second)) != (int(second), int(first)) or first != second


def test_fresh_restarts_the_stream():
    registry = RngRegistry(5)
    first = registry.stream("s").integers(0, 10**9)
    restarted = registry.fresh("s").integers(0, 10**9)
    assert int(first) == int(restarted)


def test_spawn_is_deterministic_and_independent():
    child_a = RngRegistry(9).spawn("child")
    child_b = RngRegistry(9).spawn("child")
    assert child_a.master_seed == child_b.master_seed
    assert child_a.master_seed != 9


def test_adding_a_stream_does_not_perturb_others():
    registry_one = RngRegistry(11)
    value_before = registry_one.stream("keep").integers(0, 10**9)

    registry_two = RngRegistry(11)
    registry_two.stream("new-subsystem").integers(0, 10**9)  # extra draw
    value_after = registry_two.stream("keep").integers(0, 10**9)
    assert int(value_before) == int(value_after)


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=30))
def test_derive_seed_is_stable_and_in_range(seed, name):
    value = derive_seed(seed, name)
    assert value == derive_seed(seed, name)
    assert 0 <= value < 2**64


@given(st.integers(min_value=0, max_value=1000))
def test_derive_seed_differs_across_names(seed):
    assert derive_seed(seed, "a") != derive_seed(seed, "b")


# -- exact-stream batching -----------------------------------------------
#
# The simulation's fast paths replace a run of consecutive scalar
# ``integers(lo, hi)`` calls on one stream by one broadcast call
# ``integers(lows, highs)``.  That is only sound while numpy's bounded
# integer sampler draws the same words in the same order either way;
# a numpy release that changes this must fail here, not silently
# change every simulated world.

_BOUNDS = st.lists(
    st.tuples(
        st.integers(min_value=-(10**6), max_value=10**6),
        st.sampled_from([1, 2, 3, 10, 30, 270, 500, 2**31, 10**12, 2**62]),
    ),
    min_size=1,
    max_size=60,
)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), bounds=_BOUNDS)
def test_broadcast_integers_replay_scalar_calls(seed, bounds):
    lows = [low for low, _span in bounds]
    highs = [low + span for low, span in bounds]
    scalar = np.random.default_rng(seed)
    expected = [int(scalar.integers(lo, hi)) for lo, hi in zip(lows, highs)]
    batched = np.random.default_rng(seed)
    got = batched.integers(lows, highs)
    assert got.tolist() == expected
    # the generator is left in the same state: the next draw agrees
    assert batched.random() == scalar.random()
    assert int(batched.integers(0, 7)) == int(scalar.integers(0, 7))


def test_broadcast_integers_replay_interleaved_small_bounds():
    """The exact shape the profile-feed and name batches use."""
    for seed in range(50):
        scalar = np.random.default_rng(seed)
        expected = []
        for _ in range(40):
            expected.append(int(scalar.integers(0, 270)))
            expected.append(int(scalar.integers(0, 9_000)))
        batched = np.random.default_rng(seed)
        got = batched.integers(np.tile([0, 0], 40), np.tile([270, 9_000], 40))
        assert got.tolist() == expected
        assert batched.random() == scalar.random()
