"""``_below`` draws what ``random.Random._randbelow`` draws."""

import random

import pytest

from repro.traffic.rng import _below

#: Every bound the seeded builders draw below, and their edges.
BOUNDS = (1, 2, 3, 5, 7, 10, 16, 5001, 60001, 64512, 2 ** 24)


@pytest.mark.parametrize("seed", [0, 1, 11, 10000])
def test_draws_equal_randbelow(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(50):
        for n in BOUNDS:
            assert _below(ours.getrandbits, n) == theirs._randbelow(n)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_empty_range_raises(n):
    with pytest.raises(ValueError):
        _below(random.Random(0).getrandbits, n)
