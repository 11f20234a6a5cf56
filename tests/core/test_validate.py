"""The validators must actually catch corruption — seed defects into a
healthy structure and check each invariant fires."""

import pytest

from repro.core import (GFSL, InvariantViolation, bulk_build_into,
                        validate_structure)
from repro.core import constants as C
from repro.core.chunk import pack_next
from repro.core.validate import (bottom_items, count_zombies, head_ptr_host,
                                 level_chain, level_items, structure_height)


def healthy():
    sl = GFSL(capacity_chunks=512, team_size=16, seed=1)
    bulk_build_into(sl, [(k, k % 7) for k in range(10, 2000, 10)])
    return sl


def first_data_chunk(sl, level=0):
    chain = [p for p, _ in level_chain(sl, level)]
    return chain[1]  # chain[0] is the initial −∞ chunk


def test_healthy_structure_passes():
    sl = healthy()
    stats = validate_structure(sl)
    assert stats["zombies"] == 0
    assert stats["height"] >= 1


def test_detects_unsorted_chunk():
    sl = healthy()
    ptr = first_data_chunk(sl)
    a = sl.layout.entry_addr(ptr, 0)
    b = sl.layout.entry_addr(ptr, 1)
    va, vb = sl.ctx.mem.read_word(a), sl.ctx.mem.read_word(b)
    sl.ctx.mem.write_word(a, vb)
    sl.ctx.mem.write_word(b, va)
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_key_above_max_field():
    sl = healthy()
    ptr = first_data_chunk(sl)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    sl.ctx.mem.write_word(
        sl.layout.entry_addr(ptr, sl.geo.next_idx),
        pack_next(1, int(kvs[sl.geo.next_idx]) >> 32))  # max ← 1
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_hole_in_data_array():
    sl = healthy()
    ptr = first_data_chunk(sl)
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 1), C.EMPTY_KV)
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_left_locked_chunk():
    sl = healthy()
    ptr = first_data_chunk(sl)
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, sl.geo.lock_idx),
                          C.LOCKED)
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_subset_violation():
    sl = healthy()
    assert structure_height(sl) >= 1
    # Plant a key at level 1 that does not exist at level 0.
    ptr = first_data_chunk(sl, level=1)
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 0),
                          C.pack_kv(3, 0))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_missing_neg_inf():
    sl = healthy()
    first = head_ptr_host(sl, 0)
    # Overwrite the −∞ entry with a user key.
    sl.ctx.mem.write_word(sl.layout.entry_addr(first, 0), C.pack_kv(4, 0))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_cycle():
    sl = healthy()
    ptr = first_data_chunk(sl)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    max_f = int(kvs[sl.geo.next_idx]) & C.MASK32
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, sl.geo.next_idx),
                          pack_next(max_f, ptr))  # self-loop
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_overlapping_chunks():
    sl = healthy()
    chain = [p for p, _ in level_chain(sl, 0)]
    second = chain[2]
    # Shrink the first data chunk's max below its successor's min is
    # fine; instead raise a key in the second chunk below the first's
    # max to create an overlap.
    first = chain[1]
    fk = sl.ctx.mem.read_range(sl.layout.chunk_addr(first), sl.geo.n)
    small_key = int(fk[0]) & C.MASK32
    sl.ctx.mem.write_word(sl.layout.entry_addr(second, 0),
                          C.pack_kv(small_key, 0))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_detects_dangling_down_pointer():
    sl = healthy()
    ptr = first_data_chunk(sl, level=1)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    key0 = int(kvs[0]) & C.MASK32
    # Point the key at the last chunk in the bottom level — its
    # enclosing chunk is not laterally reachable from there.
    last_bottom = [p for p, _ in level_chain(sl, 0)][-1]
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 0),
                          C.pack_kv(key0, last_bottom))
    with pytest.raises(InvariantViolation):
        validate_structure(sl)


def test_helpers():
    sl = healthy()
    assert bottom_items(sl) == sl.items()
    assert count_zombies(sl) == 0
    assert len(level_items(sl, 0)) == len(sl.keys())
    assert structure_height(sl) == validate_structure(sl)["height"]


def test_reports_next_pointer_outside_pool():
    sl = healthy()
    ptr = first_data_chunk(sl)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    max_f = int(kvs[sl.geo.next_idx]) & C.MASK32
    bad = sl.layout.capacity_chunks + 5
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, sl.geo.next_idx),
                          pack_next(max_f, bad))
    with pytest.raises(InvariantViolation,
                       match=f"level 0 chunk {ptr}: next pointer {bad} is "
                             f"outside the pool"):
        validate_structure(sl)
    with pytest.raises(InvariantViolation, match="outside the pool"):
        sl.items()


def test_reports_down_pointer_outside_pool():
    sl = healthy()
    ptr = first_data_chunk(sl, level=1)
    kvs = sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)
    key0 = int(kvs[0]) & C.MASK32
    bad = sl.layout.capacity_chunks
    sl.ctx.mem.write_word(sl.layout.entry_addr(ptr, 0),
                          C.pack_kv(key0, bad))
    with pytest.raises(InvariantViolation,
                       match=f"level 1 chunk {ptr}: down pointer {bad} of "
                             f"key {key0} is outside the pool"):
        validate_structure(sl)
