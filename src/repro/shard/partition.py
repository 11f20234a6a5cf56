"""Key-space partitioners for the sharded map.

A :class:`Partitioner` maps every user key to exactly one shard id in
``[0, n_shards)`` — deterministically, so routing is a pure function
and the same key always lands on the same instance (which is what
preserves per-key operation order across the batch router).

Two strategies, mirroring what scaled skiplist systems deploy:

* :class:`RangePartitioner` — contiguous key ranges, one per shard
  (Jiffy-style).  Keeps each shard's key space dense and ordered, so
  per-shard range scans stay local; balanced for uniform workloads,
  skew-prone for clustered ones.
* :class:`HashPartitioner` — a 64-bit mix (splitmix64 finalizer) modulo
  the shard count.  Destroys ordering but balances any key
  distribution, including adversarially clustered ones.

Both expose scalar ``shard_of`` and vectorized ``shard_of_array`` (one
numpy pass per batch — the router's hot path).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Partitioner(Protocol):
    """Deterministic key → shard-id mapping."""

    n_shards: int

    def shard_of(self, key: int) -> int: ...
    def shard_of_array(self, keys) -> np.ndarray: ...


class RangePartitioner:
    """Contiguous key ranges: shard ``s`` owns keys in
    ``[boundaries[s], boundaries[s+1])`` over ``[1, key_range]``.

    Keys above ``key_range`` overflow into the last shard (the range is
    a sizing hint, not a hard bound — routing must stay total).
    """

    name = "range"

    def __init__(self, n_shards: int, key_range: int):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if key_range < n_shards:
            raise ValueError("key_range must cover at least one key per "
                             "shard")
        self.n_shards = n_shards
        self.key_range = key_range
        # n_shards+1 boundaries over [1, key_range+1); linspace keeps the
        # buckets within one key of each other.
        self.boundaries = np.linspace(1, key_range + 1, n_shards + 1
                                      ).astype(np.int64)

    @classmethod
    def from_sample(cls, n_shards: int, key_range: int,
                    sample) -> "RangePartitioner":
        """Quantile boundaries from a key sample, so each shard sees a
        roughly equal share of the *sampled traffic* instead of the key
        space — the linspace split is badly skewed when the workload is
        (e.g.) front-loaded zipf and the hot mass all lands in shard 0.

        Interior boundaries are the sample's ``i/n_shards`` quantiles
        (floored to int, forced strictly non-decreasing; duplicate
        quantiles under extreme skew leave some shards with an empty
        slice, which routing handles fine).  The outer boundaries stay
        ``1`` and ``key_range + 1`` so routing remains total."""
        part = cls(n_shards, key_range)
        sample = np.asarray(sample, dtype=np.int64)
        if sample.size == 0:
            return part          # nothing to learn from: keep linspace
        qs = np.linspace(0.0, 1.0, n_shards + 1)[1:-1]
        interior = np.floor(np.quantile(sample, qs)).astype(np.int64) + 1
        bounds = np.empty(n_shards + 1, dtype=np.int64)
        bounds[0] = 1
        bounds[-1] = key_range + 1
        bounds[1:-1] = np.clip(interior, 1, key_range + 1)
        bounds[1:-1] = np.maximum.accumulate(bounds[1:-1])
        part.boundaries = bounds
        part.name = "sampled"
        return part

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries

    @boundaries.setter
    def boundaries(self, value) -> None:
        self._boundaries = np.asarray(value, dtype=np.int64)
        self._bounds_list = self._boundaries.tolist()

    def shard_of(self, key: int) -> int:
        """Scalar lookup: :meth:`shard_of_array`'s search and clamp over
        a Python list, with no numpy call per key."""
        sid = bisect_right(self._bounds_list, key) - 1
        return min(max(sid, 0), self.n_shards - 1)

    def shard_of_array(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        ids = np.searchsorted(self.boundaries, keys, side="right") - 1
        return np.clip(ids, 0, self.n_shards - 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RangePartitioner({self.n_shards}, {self.key_range})"


class HashPartitioner:
    """Hash routing: splitmix64-mixed key modulo the shard count."""

    name = "hash"

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self.seed = seed

    def _mix(self, keys: np.ndarray) -> np.ndarray:
        # splitmix64 finalizer, vectorized over uint64.
        z = keys + np.uint64(0x9E3779B97F4A7C15 + self.seed)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def shard_of(self, key: int) -> int:
        return int(self.shard_of_array(np.asarray([key], dtype=np.int64))[0])

    def shard_of_array(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64).astype(np.uint64)
        with np.errstate(over="ignore"):
            mixed = self._mix(keys)
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashPartitioner({self.n_shards}, seed={self.seed})"


PARTITIONERS = {"range": RangePartitioner, "hash": HashPartitioner}


def make_partitioner(spec, n_shards: int, key_range: int) -> Partitioner:
    """Resolve a partitioner from a name, class, or ready instance."""
    if isinstance(spec, str):
        if spec == "range":
            return RangePartitioner(n_shards, max(key_range, n_shards))
        if spec == "hash":
            return HashPartitioner(n_shards)
        raise ValueError(f"unknown partitioner {spec!r} "
                         f"(available: {', '.join(PARTITIONERS)})")
    if isinstance(spec, Partitioner):
        if spec.n_shards != n_shards:
            raise ValueError(f"partitioner covers {spec.n_shards} shards, "
                             f"map has {n_shards}")
        return spec
    raise TypeError(f"cannot build a partitioner from {spec!r}")
