"""Host-side structure walkers and invariant validators.

These inspect the simulated device memory directly (no events, no cost)
and are meant for tests and quiescent-state assertions.  A level's chain
is walked once over the pool's next-pointer column and its chunks are
gathered into one ``L×n`` matrix, so each invariant (the ones Section
4.3 argues for) is an array test per level (DESIGN.md §17):

* per-chunk sortedness and live-entry contiguity,
* the max field bounds every data key,
* lateral ordering between live chunks in a level,
* each level is a subset of the level below,
* every down pointer reaches a chunk from which its key's enclosing
  chunk is laterally reachable,
* zombies are frozen and never the last chunk of a level,
* every head, next and down pointer is NULL or inside the pool.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import constants as C
from .chunk import keys_vec, vals_vec


class InvariantViolation(AssertionError):
    pass


def read_chunk_host(sl, ptr: int) -> np.ndarray:
    return sl.ctx.mem.read_range(sl.layout.chunk_addr(ptr), sl.geo.n)


def head_ptr_host(sl, level: int) -> int:
    return sl.ctx.mem.read_word(sl.layout.head_addr(level)) >> 32


def _outside(level: int, src, what: str) -> InvariantViolation:
    at = f"level {level}" + ("" if src is None else f" chunk {src}")
    return InvariantViolation(f"{at}: {what} is outside the pool")


def _chain(sl, level: int, nexts: list | None = None):
    """Walk ``level`` from its head.  Returns the chunk pointers in chain
    order, their gathered ``L×n`` words, and the violation that cut the
    walk short (a cycle or a pointer outside the pool), or None."""
    rows = sl.layout.chunk_rows(sl.ctx.mem)
    if nexts is None:
        nexts = vals_vec(rows[:, sl.geo.next_idx]).tolist()
    chain: list[int] = []
    ptr, cut = head_ptr_host(sl, level), None
    try:
        for _ in range(len(nexts) + 1):
            if ptr == C.NULL_PTR:
                break
            nxt = nexts[ptr]
            chain.append(ptr)
            ptr = nxt
        else:   # longer than the pool: the first repeat ends the distinct run
            i = len(set(chain))
            cut = InvariantViolation(f"cycle at level {level} via chunk "
                                     f"{chain[i]}")
            chain = chain[:i]
    except IndexError:
        cut = _outside(level, chain[-1] if chain else None,
                       f"{'next' if chain else 'head'} pointer {ptr}")
    return chain, rows[chain], cut


def level_chain(sl, level: int, include_zombies: bool = True):
    """Yield ``(ptr, kvs)`` along a level, following next pointers from
    the head.  Zombie unlinking is lazy, so zombies may appear."""
    chain, m, cut = _chain(sl, level)
    for ptr, kvs in zip(chain, m):
        if include_zombies or kvs[sl.geo.lock_idx] != C.ZOMBIE:
            yield ptr, kvs
    if cut is not None:
        raise cut


def level_items(sl, level: int) -> list[tuple[int, int]]:
    """Live (key, value) pairs at a level, in chain order, −∞ excluded."""
    _, m, cut = _chain(sl, level)
    if cut is not None:
        raise cut
    data = m[m[:, sl.geo.lock_idx] != C.ZOMBIE, : sl.geo.dsize]
    keys = keys_vec(data)
    mask = (keys != C.EMPTY_KEY) & (keys != C.NEG_INF_KEY)
    return list(zip(keys[mask].tolist(), vals_vec(data[mask]).tolist()))


def bottom_items(sl) -> list[tuple[int, int]]:
    return level_items(sl, 0)


def count_zombies(sl) -> int:
    """Zombie chunks among every chunk the pool has handed out."""
    allocated = min(sl.pool.allocated(sl.ctx.mem), sl.layout.capacity_chunks)
    locks = sl.layout.chunk_rows(sl.ctx.mem)[:allocated, sl.geo.lock_idx]
    return int(np.count_nonzero(locks == C.ZOMBIE))


def structure_height(sl) -> int:
    """The highest level whose head counter is non-zero (0 if none)."""
    lay = sl.layout
    heads = sl.ctx.mem.raw()[lay.head_base: lay.head_base + lay.max_level]
    return int(np.flatnonzero(keys_vec(heads)).max(initial=0))


class _Level(NamedTuple):
    chain: list          # chunk pointers in chain order
    keys: np.ndarray     # live keys, −∞ included, strictly increasing
    at: np.ndarray       # chain position of each key's chunk
    vals: np.ndarray     # each key's value field (its down pointer)
    blockers: np.ndarray  # per position: live, and empty or max field ∞
    zombies: int


def _check_level(sl, level: int, nexts: list) -> _Level:
    """Check one level's chain; raise its first violation in chain order."""
    geo = sl.geo
    chain, m, cut = _chain(sl, level, nexts)
    keys = keys_vec(m[:, : geo.dsize])
    max_f = keys_vec(m[:, geo.next_idx])
    lock = m[:, geo.lock_idx]
    live = lock != C.ZOMBIE
    full = keys != C.EMPTY_KEY
    top = np.where(full, keys, -1).max(axis=1)
    nonempty = live & full[:, 0]
    # One flag per check, in the order the checks apply to a chunk.  A
    # flag may assume the checks before it passed on that chunk.
    locked = live & (lock != C.UNLOCKED)
    hole = live & (~full[:, :-1] & full[:, 1:]).any(axis=1)
    unsorted = live & (full[:, 1:] & (keys[:, 1:] <= keys[:, :-1])).any(axis=1)
    over = nonempty & (top > max_f)                  # never under ∞
    no_neg_inf = np.zeros_like(live)
    first = np.flatnonzero(live)[:1]
    no_neg_inf[first] = keys[first, 0] != C.NEG_INF_KEY
    # Lateral order: a non-empty live chunk's min exceeds the previous
    # one's max field (its last key when the field is ∞).
    bound = np.where(max_f != C.EMPTY_KEY, max_f, top)
    prev = np.roll(np.maximum.accumulate(
        np.where(nonempty, np.arange(len(chain)), -1)), 1)
    prev[:1] = -1
    overlap = nonempty & (prev >= 0) & (keys[:, 0] <= bound[prev])
    bad = locked | hole | unsorted | over | no_neg_inf | overlap
    if bad.any():
        i = int(bad.argmax())
        at = f"level {level} chunk {chain[i]}"
        raise InvariantViolation(next(msg for flag, msg in (
            (locked, f"{at} left locked ({lock[i]})"),
            (hole, f"{at}: live entries not contiguous: {keys[i]}"),
            (unsorted, f"{at}: data not strictly sorted: {keys[i][full[i]]}"),
            (over, f"{at}: key {top[i]} exceeds max field {max_f[i]}"),
            (no_neg_inf, f"level {level}: first live chunk {chain[i]} "
                         f"lacks -inf"),
            (overlap, f"{at}: min {keys[i, 0]} <= previous chunk max "
                      f"{bound[prev[i]]}")) if flag[i]))
    if cut is not None:
        raise cut
    if chain and not live[-1]:
        raise InvariantViolation(
            f"level {level}: last chunk in chain is a zombie")
    cells = full & live[:, None]
    flat = keys[cells]
    if (np.diff(flat[flat != C.NEG_INF_KEY]) <= 0).any():
        raise InvariantViolation(
            f"level {level}: keys not globally sorted/unique")
    return _Level(chain, flat, np.nonzero(cells)[0],
                  vals_vec(m[:, : geo.dsize][cells]),
                  live & (~full[:, 0] | (max_f == C.EMPTY_KEY)),
                  len(chain) - int(np.count_nonzero(live)))


def validate_structure(sl, check_subsets: bool = True,
                       check_down_ptrs: bool = True) -> dict:
    """Run every quiescent-state invariant; returns summary stats."""
    cap = sl.layout.capacity_chunks
    nexts = vals_vec(sl.layout.chunk_rows(sl.ctx.mem)[:, sl.geo.next_idx])
    nexts = nexts.tolist()
    height = structure_height(sl)
    levels = [_check_level(sl, lv, nexts) for lv in range(height + 1)]
    stats = {"height": height,
             "chunks": sum(len(lv.chain) for lv in levels),
             "zombies": sum(lv.zombies for lv in levels)}

    if check_subsets:
        user = [lv.keys[lv.keys != C.NEG_INF_KEY] for lv in levels]
        for level in range(1, height + 1):
            hit = np.isin(user[level], user[level - 1], assume_unique=True)
            if not hit.all():
                raise InvariantViolation(
                    f"key {user[level][hit.argmin()]} at level {level} "
                    f"missing from level {level - 1}")

    if check_down_ptrs:
        # The walk from chain position p reaches key k, found at position
        # e, iff p <= e and no blocker lies in [p, e) (DESIGN.md §17).
        # Starts off the chain and blocked ranges take the scalar walk.
        for level in range(1, height + 1):
            up, lo = levels[level], levels[level - 1]
            pos = np.full(cap + 1, -1)          # chain position; [cap]: off pool
            pos[lo.chain] = np.arange(len(lo.chain))
            i = np.searchsorted(lo.keys, up.keys)
            hit = np.append(lo.keys, -1)[i] == up.keys      # keys are >= 0
            e = np.append(lo.at, 0)[i]
            p = pos[np.minimum(up.vals, cap)]
            cum = np.concatenate(([0], np.cumsum(lo.blockers)))
            reach = hit & (p >= 0) & (p <= e)
            for j in np.flatnonzero(~reach | (cum[e] != cum[p])):
                k, ptr = int(up.keys[j]), int(up.vals[j])
                if ptr >= cap and ptr != C.NULL_PTR:
                    raise _outside(level, up.chain[up.at[j]],
                                   f"down pointer {ptr} of key {k}")
                if not ((p[j] < 0 or reach[j])
                        and _reachable_below(sl, level - 1, ptr, k)):
                    raise InvariantViolation(
                        f"down pointer of key {k} at level {level} "
                        f"cannot reach its enclosing chunk below")
    return stats


def _reachable_below(sl, level_below: int, ptr: int, k: int) -> bool:
    """Walk laterally from ``ptr`` at ``level_below``; succeed if we meet
    a live chunk containing ``k`` before one whose max field is >= ``k``
    (−∞ trivially found in the first chunk)."""
    geo, rows, src = sl.geo, sl.layout.chunk_rows(sl.ctx.mem), None
    for _ in range(1_000_000):
        if ptr == C.NULL_PTR:
            break
        if ptr >= len(rows):
            raise _outside(level_below, src, f"next pointer {ptr}")
        keys = keys_vec(rows[ptr])
        found = bool((keys[: geo.dsize] == k).any())
        if rows[ptr, geo.lock_idx] != C.ZOMBIE and (
                found or keys[geo.next_idx] >= k):
            return found    # the enclosing chunk: k is there or nowhere
        src, ptr = ptr, int(rows[ptr, geo.next_idx]) >> 32
    return False
