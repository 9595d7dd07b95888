"""Determinism and distribution checks for the pinned generator."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freb.rng import Rng, derive_rng, derive_seed


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = Rng(0)
    b = Rng(1)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_golden_values_pinned():
    # These values lock the algorithm; if they move, previously recorded
    # perturbation seeds no longer replay.
    r = Rng(42)
    assert [r.next_u64() for _ in range(3)] == [
        3580622183945639842,
        10378725325292465923,
        8967075514996744559,
    ]
    assert derive_seed(7, "inst-1", "SHUFFLE_ROWS") == 2146136895416553053


def test_zero_seed_is_usable():
    r = Rng(0)
    values = [r.next_u64() for _ in range(5)]
    assert all(v != 0 for v in values)
    assert len(set(values)) == 5


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 97))
def test_randrange_bounds(seed, n):
    r = Rng(seed)
    for _ in range(20):
        assert 0 <= r.randrange(n) < n


@given(st.integers(min_value=0, max_value=2**63), st.integers(-50, 50), st.integers(0, 30))
def test_randint_inclusive(seed, a, width):
    r = Rng(seed)
    b = a + width
    for _ in range(10):
        assert a <= r.randint(a, b) <= b


def test_randrange_empty_range_raises():
    r = Rng(5)
    with pytest.raises(ValueError):
        r.randrange(3, 3)
    with pytest.raises(ValueError):
        r.randrange(0)


def test_random_unit_interval():
    r = Rng(99)
    for _ in range(200):
        x = r.random()
        assert 0.0 <= x < 1.0


@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(st.integers(), max_size=30))
def test_shuffle_preserves_multiset(seed, items):
    r = Rng(seed)
    shuffled = list(items)
    r.shuffle(shuffled)
    assert Counter(shuffled) == Counter(items)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 25))
def test_shuffle_permutation_replays(seed, n):
    items = [f"v{i}" for i in range(n)]
    shuffled = list(items)
    perm = Rng(seed).shuffle(shuffled)
    assert sorted(perm) == list(range(n))
    assert [items[perm[i]] for i in range(n)] == shuffled


def test_shuffle_is_roughly_uniform():
    # All 6 permutations of a 3-element list should appear with equal
    # frequency; a fair shuffle at n=6000 keeps each bucket well away
    # from the +/-40% band checked here.
    counts = Counter()
    for seed in range(6000):
        items = [0, 1, 2]
        Rng(seed).shuffle(items)
        counts[tuple(items)] += 1
    assert len(counts) == 6
    for c in counts.values():
        assert 600 < c < 1400


def test_choice_returns_member():
    r = Rng(11)
    pool = ["a", "b", "c", "d"]
    for _ in range(40):
        assert r.choice(pool) in pool


def test_derive_seed_sensitive_to_each_field():
    base = derive_seed(1, "x", "K")
    assert derive_seed(2, "x", "K") != base
    assert derive_seed(1, "y", "K") != base
    assert derive_seed(1, "x", "L") != base


def test_derive_rng_matches_manual_seeding():
    a = derive_rng(3, "id-9", "TRANSPOSE")
    b = Rng(derive_seed(3, "id-9", "TRANSPOSE"))
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
