"""Versioned key→shard routing: generation-numbered boundary tables.

PR 5's :class:`~repro.shard.partition.Partitioner` pins the key→shard
mapping at construction time, so a hot key range wedges one shard
forever.  A :class:`RoutingTable` makes the mapping *versioned*: each
**generation** is an immutable ``(boundaries, owners)`` table —
``boundaries[i]`` is the first key of segment ``i`` and ``owners[i]``
the shard id serving it — and publishing a migration
(:meth:`publish_move`) creates generation ``g+1`` without touching
``g``.  Lookups optionally carry a generation, so a batch split under
plan ``g`` keeps routing against ``g`` even if a migration publishes
``g+1`` mid-flight (the engine hooks latch the generation at
split time; see :meth:`~repro.shard.sharded.ShardedMap.split_batch`).

Generation 0 delegates straight to the wrapped partitioner (the same
numpy pass, bit for bit), so a table that never migrates is routing-
identical to the pre-refactor static path — the differential-identity
contract the shard test suite pins.

Only *range-expressible* partitioners can migrate: a hash mapping has
no contiguous key range to donate, so :meth:`publish_move` raises for
it (the table still works as a static generation-0 router).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .partition import Partitioner


class RoutingTable:
    """Generation-numbered boundary maps over a wrapped partitioner."""

    def __init__(self, partitioner: Partitioner):
        self.partitioner = partitioner
        self.n_shards = int(partitioner.n_shards)
        #: Current (latest published) generation number.
        self.generation = 0
        # generation (>= 1) -> (boundaries int64[S], owners int64[S]),
        # and the same pair as Python lists for scalar lookups.
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lists: dict[int, tuple[list[int], list[int]]] = {}
        #: One record per published move (the migration-event material).
        self.history: list[dict] = []

    # -- lookups ---------------------------------------------------------
    def shard_of_array(self, keys, generation: int | None = None
                       ) -> np.ndarray:
        """Vectorized key→shard lookup under one generation's plan
        (default: the current generation).  Generation 0 is the wrapped
        partitioner's own pass — identical arrays, identical cost."""
        gen = self.generation if generation is None else int(generation)
        if gen == 0:
            return self.partitioner.shard_of_array(keys)
        boundaries, owners = self._tables[gen]
        keys = np.asarray(keys, dtype=np.int64)
        seg = np.searchsorted(boundaries, keys, side="right") - 1
        return owners[np.clip(seg, 0, len(owners) - 1)]

    def shard_of(self, key: int, generation: int | None = None) -> int:
        """Scalar lookup: :meth:`shard_of_array`'s search and clamp over
        Python lists, with no numpy call per key."""
        gen = self.generation if generation is None else int(generation)
        if gen == 0:
            return self.partitioner.shard_of(key)
        boundaries, owners = self._lists[gen]
        seg = bisect_right(boundaries, key) - 1
        return owners[min(max(seg, 0), len(owners) - 1)]

    # -- table materialisation -------------------------------------------
    def _materialize(self, generation: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(boundaries, owners)`` arrays of one generation.
        Generation 0 requires a range-expressible partitioner (one with
        ``boundaries``); hash mappings have no segment form."""
        gen = self.generation if generation is None else int(generation)
        if gen > 0:
            return self._tables[gen]
        part = self.partitioner
        if not hasattr(part, "boundaries"):
            raise ValueError(
                f"partitioner {getattr(part, 'name', part)!r} is not "
                "range-expressible: it has no boundary form to migrate")
        # partitioner.boundaries has n_shards+1 entries over
        # [1, key_range+1); segment i starts at boundaries[i].  Keys
        # above the last boundary clip into the last shard, which the
        # searchsorted-and-clip lookup reproduces.
        bounds = np.asarray(part.boundaries[:-1], dtype=np.int64)
        owners = np.arange(self.n_shards, dtype=np.int64)
        return bounds, owners

    def segments(self, sid: int | None = None,
                 generation: int | None = None) -> list[tuple[int, int, int]]:
        """``(lo, hi_inclusive, owner)`` triples of one generation's
        plan, in key order (``hi`` of the last segment is unbounded and
        reported as the partitioner's top boundary minus one, or 2^32-2
        without one).  ``sid`` filters to one shard's owned segments."""
        bounds, owners = self._materialize(generation)
        top = None
        if hasattr(self.partitioner, "boundaries"):
            top = int(np.asarray(self.partitioner.boundaries)[-1]) - 1
        if top is None or top < int(bounds[-1]):
            top = (1 << 32) - 2
        out = []
        for i in range(len(bounds)):
            hi = int(bounds[i + 1]) - 1 if i + 1 < len(bounds) else top
            if sid is None or int(owners[i]) == sid:
                out.append((int(bounds[i]), hi, int(owners[i])))
        return out

    # -- publishing ------------------------------------------------------
    def publish_move(self, lo: int, hi: int, dst: int,
                     step: int = 0) -> int:
        """Publish a new generation in which ``[lo, hi]`` (inclusive) is
        owned by shard ``dst``; returns the new generation number.
        Splits the enclosing segments at ``lo`` and ``hi+1``, rewrites
        the owners inside, and coalesces equal-owner neighbours so the
        table stays small across many migrations."""
        if not 0 <= dst < self.n_shards:
            raise ValueError(f"dst shard {dst} out of range")
        if lo > hi:
            raise ValueError("empty key range")
        bounds, owners = self._materialize()
        bounds = list(int(b) for b in bounds)
        owners = list(int(o) for o in owners)
        src_owners = set()
        for cut in (int(lo), int(hi) + 1):
            if cut <= bounds[0]:
                continue
            i = int(np.searchsorted(bounds, cut, side="right")) - 1
            if bounds[i] != cut:
                bounds.insert(i + 1, cut)
                owners.insert(i + 1, owners[i])
        # After the cuts every segment is entirely inside or outside
        # [lo, hi]: inside exactly when it starts within the range.
        for i, b in enumerate(bounds):
            if lo <= b <= hi:
                src_owners.add(owners[i])
                owners[i] = int(dst)
        # Coalesce equal-owner neighbours.
        cb, co = [bounds[0]], [owners[0]]
        for b, o in zip(bounds[1:], owners[1:]):
            if o == co[-1]:
                continue
            cb.append(b)
            co.append(o)
        self.generation += 1
        self._tables[self.generation] = (np.asarray(cb, dtype=np.int64),
                                         np.asarray(co, dtype=np.int64))
        self._lists[self.generation] = (cb, co)
        self.history.append({
            "generation": self.generation, "lo": int(lo), "hi": int(hi),
            "dst": int(dst),
            "src": sorted(s for s in src_owners if s != dst),
            "step": int(step),
        })
        return self.generation

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RoutingTable(gen={self.generation}, "
                f"n_shards={self.n_shards}, "
                f"partitioner={self.partitioner!r})")
