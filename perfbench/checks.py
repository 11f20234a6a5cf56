"""Output checks that do not trust the program under test.

Replay results are compared against a plain-Python-set replay of the
same op array.  The vectorized backend promises sequential outcomes op
for op.  The interleaved backend runs each wave of ``concurrency`` ops
concurrently, so ops on the same key inside one wave may take effect in
any order: such a group passes if some order of it reproduces every
observed result, and every other op is checked exactly.
"""

from __future__ import annotations

from itertools import permutations

CONTAINS, INSERT, DELETE = 0, 1, 2

#: Largest same-key group inside one wave whose orders are searched.
MAX_GROUP = 7


def _apply(present: bool, op: int) -> tuple[bool, bool]:
    """(result, presence after) of one op on one key."""
    if op == CONTAINS:
        return present, present
    if op == INSERT:
        return not present, True
    return present, False


def replay_sequential(prefill, ops, keys, results) -> tuple[int, set]:
    """Count ops whose result differs from a sequential set replay;
    returns ``(mismatches, final key set)``."""
    live = set(prefill)
    bad = 0
    for op, key, got in zip(ops, keys, results):
        want, now = _apply(key in live, op)
        if now:
            live.add(key)
        else:
            live.discard(key)
        bad += got != want
    return bad, live


def _group_order(present: bool, group, results):
    """Presence after the first order of ``group`` (op, index) that
    reproduces the observed results, or None."""
    for order in permutations(group):
        p = present
        for op, i in order:
            r, p = _apply(p, op)
            if r != results[i]:
                break
        else:
            return p
    return None


def replay_waves(prefill, ops, keys, results, wave: int) -> tuple[int, set]:
    """As :func:`replay_sequential`, for ops run ``wave`` at a time with
    same-key ops inside one wave free to reorder."""
    live = set(prefill)
    bad = 0
    for lo in range(0, len(ops), wave):
        by_key: dict[int, list[tuple[int, int]]] = {}
        for i in range(lo, min(lo + wave, len(ops))):
            by_key.setdefault(keys[i], []).append((ops[i], i))
        for key, group in by_key.items():
            present = key in live
            if len(group) == 1:
                (op, i), = group
                want, after = _apply(present, op)
                bad += results[i] != want
            else:
                after = (_group_order(present, group, results)
                         if len(group) <= MAX_GROUP else None)
                if after is None:
                    bad += len(group)
                    for op, _ in group:
                        _, present = _apply(present, op)
                    after = present
            if after:
                live.add(key)
            else:
                live.discard(key)
    return bad, live
