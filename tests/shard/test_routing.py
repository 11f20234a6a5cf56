"""RoutingTable: versioned boundary maps over a static partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import RoutingTable, make_partitioner
from repro.shard.partition import RangePartitioner

KEY_RANGE = 4_096


def _table(n_shards=4, kind="range"):
    return RoutingTable(make_partitioner(kind, n_shards, KEY_RANGE))


def test_generation_zero_delegates_to_the_partitioner():
    for kind in ("range", "hash"):
        rt = _table(kind=kind)
        keys = np.arange(1, KEY_RANGE + 1, dtype=np.int64)
        assert rt.generation == 0
        np.testing.assert_array_equal(
            rt.shard_of_array(keys), rt.partitioner.shard_of_array(keys))
        for k in (1, 17, KEY_RANGE):
            assert rt.shard_of(k) == rt.partitioner.shard_of(k)


def test_publish_move_rewrites_owners_inside_the_range_only():
    rt = _table()
    keys = np.arange(1, KEY_RANGE + 1, dtype=np.int64)
    before = rt.partitioner.shard_of_array(keys)
    lo, hi = 100, 300
    gen = rt.publish_move(lo, hi, dst=3, step=42)
    assert gen == rt.generation == 1
    after = rt.shard_of_array(keys)
    inside = (keys >= lo) & (keys <= hi)
    assert (after[inside] == 3).all()
    np.testing.assert_array_equal(after[~inside], before[~inside])
    # The old plan is still queryable by generation.
    np.testing.assert_array_equal(rt.shard_of_array(keys, 0), before)
    assert rt.history == [{"generation": 1, "lo": 100, "hi": 300,
                           "dst": 3, "src": [0], "step": 42}]


def test_moves_compose_and_scalar_matches_vector():
    rt = _table()
    rng = np.random.default_rng(7)
    for _ in range(6):
        lo = int(rng.integers(1, KEY_RANGE - 10))
        hi = int(rng.integers(lo, KEY_RANGE))
        rt.publish_move(lo, hi, dst=int(rng.integers(0, 4)))
    keys = np.arange(1, KEY_RANGE + 1, dtype=np.int64)
    vec = rt.shard_of_array(keys)
    sample = rng.choice(keys, size=64, replace=False)
    for k in sample:
        assert rt.shard_of(int(k)) == vec[int(k) - 1]


def test_segments_cover_the_key_space_and_coalesce():
    rt = _table()
    rt.publish_move(100, 300, dst=3)
    segs = rt.segments()
    # Contiguous cover starting at key 1, no equal-owner neighbours.
    assert segs[0][0] == 1
    for (lo_a, hi_a, own_a), (lo_b, _hi_b, own_b) in zip(segs, segs[1:]):
        assert lo_b == hi_a + 1
        assert own_a != own_b
    # Donating the range back to its original owner coalesces fully.
    rt.publish_move(100, 300, dst=0)
    assert rt.segments() == rt.segments(generation=0)
    assert rt.segments(sid=2) == [
        (lo, hi, own) for lo, hi, own in rt.segments() if own == 2]


def test_hash_partitioner_cannot_migrate_but_still_routes():
    rt = _table(kind="hash")
    with pytest.raises(ValueError, match="range-expressible"):
        rt.publish_move(10, 20, dst=1)
    assert rt.generation == 0
    assert rt.shard_of(55) == rt.partitioner.shard_of(55)


def test_publish_move_validates_inputs():
    rt = _table()
    with pytest.raises(ValueError, match="out of range"):
        rt.publish_move(1, 2, dst=4)
    with pytest.raises(ValueError, match="empty"):
        rt.publish_move(20, 10, dst=1)


_MOVES = st.lists(
    st.tuples(st.integers(1, KEY_RANGE), st.integers(0, 200),
              st.integers(0, 3)),
    max_size=6)
# Keys below 1 and above the key range clamp into the end shards.
_KEYS = st.lists(st.integers(-50, KEY_RANGE + 200) | st.just(2**32),
                 min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(moves=_MOVES, keys=_KEYS,
       sample=st.lists(st.integers(1, KEY_RANGE), max_size=30))
def test_scalar_lookup_matches_the_array_lookup_on_every_generation(
        moves, keys, sample):
    parts = [make_partitioner("range", 4, KEY_RANGE),
             RangePartitioner.from_sample(4, KEY_RANGE, sample)]
    for part in parts:
        rt = RoutingTable(part)
        for lo, span, dst in moves:
            rt.publish_move(lo, lo + span, dst=dst)
        arr = np.asarray(keys, dtype=np.int64)
        assert [part.shard_of(k) for k in keys] \
            == part.shard_of_array(arr).tolist()
        for gen in range(rt.generation + 1):
            assert [rt.shard_of(k, gen) for k in keys] \
                == rt.shard_of_array(arr, gen).tolist()
