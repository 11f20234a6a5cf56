"""Differential test: the array-at-a-time validator and chain walkers
against the per-chunk reference they replaced.

The reference below is the scalar implementation kept verbatim (one
chunk read and one Python check at a time, a second level walk per
level, one lateral walk per down pointer).  On every structure, healthy
or carrying one corrupted word, both sides must give the same verdict:
the same stats, or the same exception type and message.  The one
intended difference: the reference let a pointer outside the pool
escape as ``IndexError``; the array version reports it as an
``InvariantViolation`` naming the same pointer.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GFSL, InvariantViolation, bulk_build_into
from repro.core import constants as C
from repro.core import validate as fast
from repro.core.chunk import keys_vec, vals_vec
from repro.engine import OpBatch, make_structure
from repro.engine.backends import InterleavedBackend
from repro.workloads import Mixture, generate


# ---------------------------------------------------------------------------
# Reference: the scalar validator and walkers, verbatim.
# ---------------------------------------------------------------------------

def read_chunk_host(sl, ptr: int) -> np.ndarray:
    return sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)


def head_ptr_host(sl, level: int) -> int:
    return sl.ctx.mem.read_word(sl.layout.head_addr(level)) >> 32


def head_count_host(sl, level: int) -> int:
    return sl.ctx.mem.read_word(sl.layout.head_addr(level)) & C.MASK32


def level_chain(sl, level: int, include_zombies: bool = True):
    """Yield ``(ptr, kvs)`` along a level, following next pointers from
    the head.  Zombie unlinking is lazy, so zombies may appear."""
    ptr = head_ptr_host(sl, level)
    seen = set()
    while ptr != C.NULL_PTR:
        if ptr in seen:
            raise InvariantViolation(f"cycle at level {level} via chunk {ptr}")
        seen.add(ptr)
        kvs = read_chunk_host(sl, ptr)
        zombie = int(kvs[sl.geo.lock_idx]) == C.ZOMBIE
        if include_zombies or not zombie:
            yield ptr, kvs
        nxt = int(kvs[sl.geo.next_idx]) >> 32
        ptr = nxt


def level_items(sl, level: int) -> list[tuple[int, int]]:
    """Live (key, value) pairs at a level, in chain order, −∞ excluded."""
    out: list[tuple[int, int]] = []
    for _ptr, kvs in level_chain(sl, level):
        if int(kvs[sl.geo.lock_idx]) == C.ZOMBIE:
            continue
        keys = keys_vec(kvs)[: sl.geo.dsize]
        vals = vals_vec(kvs)[: sl.geo.dsize]
        mask = (keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)
        out.extend((int(k), int(v)) for k, v in zip(keys[mask], vals[mask]))
    return out


def count_zombies(sl) -> int:
    n = 0
    allocated = sl.pool.allocated(sl.ctx.mem)
    for ptr in range(allocated):
        if sl.ctx.mem.read_word(
                sl.layout.entry_addr(ptr, sl.geo.lock_idx)) == C.ZOMBIE:
            n += 1
    return n


def structure_height(sl) -> int:
    h = 0
    for level in range(sl.layout.max_level):
        if head_count_host(sl, level) > 0:
            h = level
    return h


def _check_chunk(sl, ptr: int, kvs: np.ndarray, level: int) -> None:
    geo = sl.geo
    keys = keys_vec(kvs)[: geo.dsize]
    live_mask = keys != C.EMPTY_KEY
    live = keys[live_mask]
    # Live entries must be contiguous from index 0.
    n_live = int(np.count_nonzero(live_mask))
    if n_live and not live_mask[:n_live].all():
        raise InvariantViolation(
            f"level {level} chunk {ptr}: live entries not contiguous: {keys}")
    # Sorted strictly increasing.
    if live.size > 1 and not (np.diff(live) > 0).all():
        raise InvariantViolation(
            f"level {level} chunk {ptr}: data not strictly sorted: {live}")
    max_f = int(keys_vec(kvs)[geo.next_idx])
    if live.size and max_f != C.EMPTY_KEY and int(live.max()) > max_f:
        raise InvariantViolation(
            f"level {level} chunk {ptr}: key {int(live.max())} exceeds "
            f"max field {max_f}")


def validate_structure(sl, check_subsets: bool = True,
                       check_down_ptrs: bool = True) -> dict:
    """Run every quiescent-state invariant; returns summary stats."""
    geo = sl.geo
    height = structure_height(sl)
    per_level: list[list[int]] = []
    stats = {"height": height, "chunks": 0, "zombies": 0}

    for level in range(height + 1):
        prev_max = None
        keys_here: list[int] = []
        first = True
        last_seen_zombie = False
        for ptr, kvs in level_chain(sl, level):
            stats["chunks"] += 1
            zombie = int(kvs[geo.lock_idx]) == C.ZOMBIE
            lock = int(kvs[geo.lock_idx])
            if lock not in (C.UNLOCKED, C.ZOMBIE):
                raise InvariantViolation(
                    f"level {level} chunk {ptr} left locked ({lock})")
            last_seen_zombie = zombie
            if zombie:
                stats["zombies"] += 1
                continue
            _check_chunk(sl, ptr, kvs, level)
            keys = keys_vec(kvs)[: geo.dsize]
            live = keys[keys != C.EMPTY_KEY]
            if first:
                if live.size == 0 or int(live[0]) != C.NEG_INF_KEY:
                    raise InvariantViolation(
                        f"level {level}: first live chunk {ptr} lacks -inf")
                first = False
            if prev_max is not None and live.size:
                if int(live.min()) <= prev_max:
                    raise InvariantViolation(
                        f"level {level} chunk {ptr}: min {int(live.min())} "
                        f"<= previous chunk max {prev_max}")
            max_f = int(keys_vec(kvs)[geo.next_idx])
            if live.size and max_f != C.EMPTY_KEY:
                prev_max = max_f
            elif live.size:
                prev_max = int(live.max())
        if last_seen_zombie:
            raise InvariantViolation(
                f"level {level}: last chunk in chain is a zombie")
        keys_here = [k for k, _ in level_items(sl, level)]
        if sorted(keys_here) != keys_here or len(set(keys_here)) != len(keys_here):
            raise InvariantViolation(
                f"level {level}: keys not globally sorted/unique")
        per_level.append(keys_here)

    if check_subsets:
        for level in range(1, height + 1):
            below = set(per_level[level - 1])
            for k in per_level[level]:
                if k not in below:
                    raise InvariantViolation(
                        f"key {k} at level {level} missing from level "
                        f"{level - 1}")

    if check_down_ptrs:
        for level in range(1, height + 1):
            for _ptr, kvs in level_chain(sl, level, include_zombies=False):
                keys = keys_vec(kvs)[: geo.dsize]
                vals = vals_vec(kvs)[: geo.dsize]
                for i in range(geo.dsize):
                    k = int(keys[i])
                    if k == C.EMPTY_KEY:
                        continue
                    if not _reachable_below(sl, level - 1, int(vals[i]), k):
                        raise InvariantViolation(
                            f"down pointer of key {k} at level {level} "
                            f"cannot reach its enclosing chunk below")
    return stats


def _reachable_below(sl, level_below: int, ptr: int, k: int) -> bool:
    """Walk laterally from ``ptr`` at ``level_below``; succeed if we meet
    a live chunk containing ``k`` (−∞ trivially found in first chunk)."""
    geo = sl.geo
    hops = 0
    while ptr != C.NULL_PTR and hops < 1_000_000:
        hops += 1
        kvs = read_chunk_host(sl, ptr)
        zombie = int(kvs[geo.lock_idx]) == C.ZOMBIE
        keys = keys_vec(kvs)[: geo.dsize]
        if not zombie:
            if (keys == k).any():
                return True
            max_f = int(keys_vec(kvs)[geo.next_idx])
            if max_f != C.EMPTY_KEY and max_f >= k:
                return False  # enclosing chunk reached but key absent
            if max_f == C.EMPTY_KEY:
                return bool((keys == k).any())
        ptr = int(kvs[geo.next_idx]) >> 32
    return False


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def outcome(validate, sl, **kwargs):
    try:
        return "ok", validate(sl, **kwargs)
    except (InvariantViolation, IndexError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_verdict(sl, **kwargs):
    ref = outcome(validate_structure, sl, **kwargs)
    got = outcome(fast.validate_structure, sl, **kwargs)
    if ref[0] == "IndexError":
        ptr = re.fullmatch(r"chunk pointer (\d+) out of pool range", ref[1])
        assert got[0] == "InvariantViolation", (ref, got)
        assert f"pointer {ptr.group(1)}" in got[1], (ref, got)
        assert got[1].endswith("is outside the pool"), (ref, got)
    else:
        assert got == ref
    return got


@pytest.fixture
def fallback_calls(monkeypatch):
    """Count the validator's scalar down-pointer walks."""
    calls = []
    walk = fast._reachable_below

    def counted(*args):
        calls.append(args)
        return walk(*args)
    monkeypatch.setattr(fast, "_reachable_below", counted)
    return calls


def churn(team_size: int, seed: int, ops: list) -> GFSL:
    """A prefilled structure after a sequence of (insert?, key) ops."""
    key_range = 12 * team_size
    sl = GFSL(capacity_chunks=1024, team_size=team_size, seed=seed)
    rng = random.Random(seed)
    prefill = sorted(rng.sample(range(1, key_range), key_range // 2))
    bulk_build_into(sl, [(k, k) for k in prefill], rng=sl.rng)
    for insert, k in ops:
        key = 1 + k % (key_range - 1)
        sl.insert(key, key) if insert else sl.delete(key)
    return sl


def chain_ptrs(sl, level):
    return [p for p, _ in level_chain(sl, level)]


def assert_walkers_agree(sl):
    for level in range(structure_height(sl) + 1):
        ref = [(p, kvs.tolist()) for p, kvs in level_chain(sl, level)]
        got = [(p, kvs.tolist()) for p, kvs in fast.level_chain(sl, level)]
        assert got == ref
        live = [(p, kvs.tolist()) for p, kvs in
                fast.level_chain(sl, level, include_zombies=False)]
        assert live == [(p, kvs) for p, kvs in ref
                        if kvs[sl.geo.lock_idx] != C.ZOMBIE]
        assert fast.level_items(sl, level) == level_items(sl, level)
    assert fast.bottom_items(sl) == level_items(sl, 0)
    assert fast.count_zombies(sl) == count_zombies(sl)
    assert fast.structure_height(sl) == structure_height(sl)
    assert sl.items() == level_items(sl, 0)
    assert sl.keys() == [k for k, _ in level_items(sl, 0)]
    assert len(sl) == len(level_items(sl, 0))
    assert sl.zombie_count() == count_zombies(sl)


OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)),
               max_size=160)


# ---------------------------------------------------------------------------
# Healthy structures
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(team_size=st.sampled_from([8, 16, 32]), seed=st.integers(0, 99),
       ops=OPS)
def test_healthy_structures_agree(fallback_calls, team_size, seed, ops):
    sl = churn(team_size, seed, ops)
    verdict, stats = assert_same_verdict(sl)
    assert verdict == "ok"
    assert_walkers_agree(sl)
    assert fallback_calls == []


def _backend_structures():
    """Structures with zombies, built by the interleaved backend and by
    delete-heavy churn mixes, single-instance and sharded."""
    out = []
    for kind, mix, key_range in (("gfsl", (50, 50, 0), 400),
                                 ("gfsl", (20, 60, 20), 600),
                                 ("gfsl@4", (50, 50, 0), 800)):
        w = generate(Mixture(*mix), key_range=key_range, n_ops=600, seed=3)
        sm = make_structure(kind, w, team_size=8, seed=0)
        InterleavedBackend(concurrency=16, seed=5).execute(
            sm, OpBatch.from_workload(w))
        out.append(sm)
    return out


def test_walkers_on_backend_built_structures(fallback_calls):
    structures = _backend_structures()
    zombies = 0
    for sm in structures:
        shards = getattr(sm, "shards", [sm])
        for sl in shards:
            assert_same_verdict(sl)
            assert_walkers_agree(sl)
            zombies += count_zombies(sl)
        ref_items = sorted(kv for sl in shards for kv in level_items(sl, 0))
        assert sm.items() == ref_items
        assert sm.keys() == [k for k, _ in ref_items]
    assert zombies > 0
    assert fallback_calls == []


# ---------------------------------------------------------------------------
# Single-word corruptions
# ---------------------------------------------------------------------------

def zombie_rich(team_size: int = 8) -> GFSL:
    """A bulk-built structure after deleting most of a key band: merges
    leave zombies both still linked and already unlinked."""
    sl = GFSL(capacity_chunks=1024, team_size=team_size, seed=3)
    n = 60 * team_size
    bulk_build_into(sl, [(k, k) for k in range(1, n)], rng=sl.rng)
    for k in range(n // 6, n // 2):
        if k % 5:
            sl.delete(k)
    return sl


@pytest.fixture(scope="module")
def pool():
    return {ts: zombie_rich(ts) for ts in (8, 16, 32)}


def pointers(sl, level, old):
    """Pointer values near the structure's own: the old one, chunks on
    this level and the one below, any allocated chunk (zombies too),
    NULL, just outside the pool, and arbitrary."""
    cap = sl.layout.capacity_chunks
    near = [p for lv in {max(level - 1, 0), level} for p in chain_ptrs(sl, lv)]
    return st.one_of(
        st.just(old),
        st.sampled_from(near + [C.NULL_PTR, cap, cap + 1]),
        st.integers(0, sl.pool.allocated(sl.ctx.mem) - 1),
        st.integers(0, C.MASK32))


def keys_near(old):
    return st.one_of(
        st.just(old),
        st.sampled_from([C.NEG_INF_KEY, C.EMPTY_KEY, C.MAX_USER_KEY]),
        st.integers(-3, 3).map(lambda d: max(0, old + d)),
        st.integers(0, C.MASK32))


@st.composite
def corruption(draw, sl):
    """``(address, word)``: one word of a chain chunk replaced.  Either
    any word (data, max/next or lock), or the down pointer of a live
    upper-level entry with its key kept."""
    geo, height = sl.geo, structure_height(sl)
    down = height > 0 and draw(st.booleans())
    level = draw(st.integers(1 if down else 0, height))
    ptr = draw(st.sampled_from(chain_ptrs(sl, level)))
    kvs = read_chunk_host(sl, ptr)
    if down:
        n_live = int(np.count_nonzero(keys_vec(kvs)[: geo.dsize]
                                      != C.EMPTY_KEY))
        entry = draw(st.integers(0, max(n_live - 1, 0)))
    else:
        entry = draw(st.integers(0, geo.n - 1))
    addr = sl.layout.entry_addr(ptr, entry)
    if entry == geo.lock_idx:
        return addr, draw(st.sampled_from([C.UNLOCKED, C.LOCKED, C.ZOMBIE, 7]))
    old = int(kvs[entry])
    key = old & C.MASK32 if down else draw(keys_near(old & C.MASK32))
    return addr, C.pack_kv(key, draw(pointers(sl, level, old >> 32)))


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(team_size=st.sampled_from([8, 16, 32]), data=st.data())
def test_single_word_corruptions_agree(pool, team_size, data):
    sl = pool[team_size]
    words = sl.ctx.mem.raw()
    saved = words.copy()
    try:
        addr, word = data.draw(corruption(sl))
        words[addr] = np.uint64(word)
        assert_same_verdict(sl, check_subsets=data.draw(st.booleans()))
    finally:
        words[:] = saved


# ---------------------------------------------------------------------------
# Explicit cases
# ---------------------------------------------------------------------------

def write(sl, ptr, entry, word):
    sl.ctx.mem.raw()[sl.layout.entry_addr(ptr, entry)] = np.uint64(word)


def test_zombie_as_last_chunk():
    sl = zombie_rich()
    stats = validate_structure(sl)
    assert count_zombies(sl) > stats["zombies"] > 0 and stats["height"] > 1
    last = chain_ptrs(sl, 0)[-1]
    write(sl, last, sl.geo.lock_idx, C.ZOMBIE)
    verdict, msg = assert_same_verdict(sl)
    assert msg == "level 0: last chunk in chain is a zombie"


def test_empty_live_chunk_mid_level(fallback_calls):
    """An emptied mid-level chunk is skipped by the lateral order check;
    a down pointer whose walk crosses it takes the scalar fallback."""
    # p_chunk < 1 leaves most bottom chunks without a key above.
    sl = GFSL(capacity_chunks=1024, team_size=8, p_chunk=0.3, seed=1)
    keys = list(range(1, 400))
    random.Random(0).shuffle(keys)
    for k in keys:
        sl.insert(k, k)
    upper = {k for k, _ in level_items(sl, 1)}
    live0 = [(p, kvs) for p, kvs in level_chain(sl, 0, include_zombies=False)]
    # A mid-level chunk none of whose keys are indexed above.
    victim = next(p for p, kvs in live0[1:-1]
                  if not upper & set(keys_vec(kvs)[: sl.geo.dsize].tolist()))
    for i in range(sl.geo.dsize):
        write(sl, victim, i, C.EMPTY_KV)
    # Re-point a level-1 key past the victim back to the level-0 head.
    after = [p for p, _ in live0][[p for p, _ in live0].index(victim) + 1:]
    keys_after = {k for p, kvs in live0 if p in after
                  for k in keys_vec(kvs)[: sl.geo.dsize].tolist()}
    up_ptr, idx, key = next(
        (p, i, int(k)) for p, kvs in level_chain(sl, 1, include_zombies=False)
        for i, k in enumerate(keys_vec(kvs)[: sl.geo.dsize]) if k in keys_after)
    write(sl, up_ptr, idx, C.pack_kv(key, head_ptr_host(sl, 0)))
    assert assert_same_verdict(sl) == ("ok", validate_structure(sl))
    assert fallback_calls


def test_down_pointer_from_unlinked_zombie(fallback_calls):
    sl = zombie_rich()
    on_chain = set(chain_ptrs(sl, 0))
    zombie = next(p for p in range(sl.pool.allocated(sl.ctx.mem))
                  if p not in on_chain
                  and int(read_chunk_host(sl, p)[sl.geo.lock_idx]) == C.ZOMBIE)
    up_ptr = chain_ptrs(sl, 1)[-1]
    kvs = read_chunk_host(sl, up_ptr)
    key = int(kvs[0]) & C.MASK32
    write(sl, up_ptr, 0, C.pack_kv(key, zombie))
    assert_same_verdict(sl)
    assert fallback_calls


def test_absent_key_below_without_subset_check():
    sl = zombie_rich()
    below = {k for k, _ in level_items(sl, 0)}
    for ptr, kvs in level_chain(sl, 1, include_zombies=False):
        keys = keys_vec(kvs)[: sl.geo.dsize].tolist()
        for i, k in enumerate(keys):
            nxt = keys[i + 1] if i + 1 < len(keys) else C.EMPTY_KEY
            if 0 < k and k + 1 < nxt != C.EMPTY_KEY and k + 1 not in below:
                write(sl, ptr, i, C.pack_kv(k + 1, int(kvs[i]) >> 32))
                verdict, msg = assert_same_verdict(sl, check_subsets=False)
                assert msg == (f"down pointer of key {k + 1} at level 1 "
                               f"cannot reach its enclosing chunk below")
                return
    pytest.fail("no key at level 1 has a free successor below")


def test_infinite_max_field_mid_level(fallback_calls):
    """A mid-level chunk whose max field reads ∞ passes the level checks
    but stops the lateral walk of a down pointer that must cross it."""
    sl = zombie_rich()
    live0 = [p for p, _ in level_chain(sl, 0, include_zombies=False)]
    mid = live0[len(live0) // 2]
    kvs = read_chunk_host(sl, mid)
    write(sl, mid, sl.geo.next_idx,
          C.pack_kv(C.EMPTY_KEY, int(kvs[sl.geo.next_idx]) >> 32))
    up_ptr = chain_ptrs(sl, 1)[-1]
    key = int(read_chunk_host(sl, up_ptr)[0]) & C.MASK32
    write(sl, up_ptr, 0, C.pack_kv(key, head_ptr_host(sl, 0)))
    verdict, msg = assert_same_verdict(sl)
    assert msg == (f"down pointer of key {key} at level 1 cannot reach "
                   f"its enclosing chunk below")
    assert fallback_calls
