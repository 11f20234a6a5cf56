"""Structure memory map and the chunk memory pool.

During initialization GFSL "allocates an array of chunks in the device
memory for a memory pool... Allocations from the memory pool are
performed by incrementing a global counter and using the resulting index
as a pointer.  All chunks are allocated locked with ∞ values in all
key-data pairs, as well as in the max field" (Section 4.1).

The device-memory map of one GFSL instance::

    word 0 .. L-1        head array: one packed word per level
                         (chunk counter in the lower 32 bits, pointer to
                          the first chunk in the upper 32)
    word L               pool allocation counter
    <pad to a cache line>
    chunks               capacity * N words, chunk i at chunks_base + i*N

Chunks are cache-line aligned (N of 16 → one 128 B line, N of 32 → two),
which is what makes a team's chunk read cost 1–2 transactions.
"""

from __future__ import annotations

import numpy as np

from ..gpu import events as ev
from ..gpu.memory import GlobalMemory
from . import constants as C
from .chunk import ChunkGeometry

WORDS_PER_LINE = 16  # 128-byte lines of 8-byte words


class OutOfChunks(RuntimeError):
    """The pool's bump allocator ran past capacity (the failure mode the
    paper observes for M&C at large ranges, Section 5.3).

    Carries the exhaustion diagnostics as attributes so handlers can act
    on them programmatically: ``capacity`` (pool size in chunks),
    ``allocated`` (chunks handed out, zombies included), ``live_chunks``
    / ``occupancy`` (non-zombie chunks and their mean data-slot fill),
    ``live_keys`` (user keys still reachable at the bottom level), and
    ``suggested_capacity`` (a :func:`~repro.core.gfsl.suggest_capacity`
    re-sizing for the observed key count).  Fields a raise site cannot
    know are ``None`` and omitted from the message.
    """

    def __init__(self, message: str, *, capacity: int | None = None,
                 allocated: int | None = None,
                 live_chunks: int | None = None,
                 occupancy: float | None = None,
                 live_keys: int | None = None,
                 suggested_capacity: int | None = None):
        parts = [message]
        if capacity is not None:
            parts.append(f"capacity={capacity}")
        if allocated is not None:
            parts.append(f"allocated={allocated}")
        if live_chunks is not None:
            parts.append(f"live_chunks={live_chunks}")
        if occupancy is not None:
            parts.append(f"occupancy={occupancy:.0%}")
        if live_keys is not None:
            parts.append(f"live_keys={live_keys}")
        if suggested_capacity is not None:
            parts.append(f"suggested_capacity={suggested_capacity}")
        super().__init__(
            parts[0] + (" [" + ", ".join(parts[1:]) + "]"
                        if len(parts) > 1 else ""))
        self.capacity = capacity
        self.allocated = allocated
        self.live_chunks = live_chunks
        self.occupancy = occupancy
        self.live_keys = live_keys
        self.suggested_capacity = suggested_capacity


class StructureLayout:
    """Address arithmetic for one GFSL instance inside device memory."""

    def __init__(self, geo: ChunkGeometry, max_level: int,
                 capacity_chunks: int, base: int = 0):
        self.geo = geo
        self.max_level = max_level
        self.capacity_chunks = capacity_chunks
        self.base = base
        self.head_base = base
        self.pool_ctr_addr = base + max_level
        raw_start = base + max_level + 1
        self.chunks_base = -(-raw_start // WORDS_PER_LINE) * WORDS_PER_LINE
        self.total_words = self.chunks_base - base + capacity_chunks * geo.n

    def head_addr(self, level: int) -> int:
        return self.head_base + level

    def chunk_addr(self, ptr: int) -> int:
        if ptr < 0 or ptr >= self.capacity_chunks:
            raise IndexError(f"chunk pointer {ptr} out of pool range")
        return self.chunks_base + ptr * self.geo.n

    def chunk_rows(self, mem: GlobalMemory) -> np.ndarray:
        """Zero-copy ``(capacity, n)`` view of the chunk region.  It ends
        at capacity, not at the end of device memory: another co-located
        instance may live right after."""
        region = mem.raw()[self.chunks_base:
                           self.chunks_base + self.capacity_chunks * self.geo.n]
        return region.reshape(self.capacity_chunks, self.geo.n)

    def entry_addr(self, ptr: int, entry: int) -> int:
        return self.chunk_addr(ptr) + entry

    def ptr_of_addr(self, addr: int) -> int:
        return (addr - self.chunks_base) // self.geo.n


class ChunkPool:
    """Bump allocator over the chunk region.

    ``attach_mem`` optionally hands the pool its backing memory so that
    exhaustion reports can include occupancy diagnostics (the host-side
    equivalent of a device-side assert dumping pool state).
    """

    def __init__(self, layout: StructureLayout):
        self.layout = layout
        self._mem: GlobalMemory | None = None

    def attach_mem(self, mem: GlobalMemory) -> None:
        """Remember the backing memory for exhaustion diagnostics."""
        self._mem = mem

    # -- diagnostics -----------------------------------------------------
    def diagnostics(self, mem: GlobalMemory) -> dict:
        """Host-side pool-state scan for exhaustion reports.

        Returns ``live_chunks`` (allocated, non-zombie), ``occupancy``
        (mean data-slot fill of the live chunks), ``live_keys`` (user
        keys reachable on the bottom-level chain), and
        ``suggested_capacity`` (a re-sizing for that key count).
        """
        lay = self.layout
        geo = lay.geo
        allocated = min(self.allocated(mem), lay.capacity_chunks)
        chunks = lay.chunk_rows(mem)[:allocated]
        live = chunks[:, geo.lock_idx] != np.uint64(C.ZOMBIE)
        dk = (chunks[:, : geo.dsize]
              & np.uint64(C.MASK32)).astype(np.int64)
        user = (dk != C.EMPTY_KEY) & (dk != C.NEG_INF_KEY)
        live_chunks = int(np.count_nonzero(live))
        filled = int(np.count_nonzero(user[live]))
        occupancy = filled / max(1, live_chunks * geo.dsize)

        # Bottom-level user keys: walk the level-0 chain (bounded by the
        # pool size — a mid-operation snapshot can hold frozen copies).
        live_keys = 0
        ptr = int(mem.read_word(lay.head_addr(0))) >> 32
        for _ in range(lay.capacity_chunks):
            if not 0 <= ptr < allocated:
                break
            if live[ptr]:
                live_keys += int(np.count_nonzero(user[ptr]))
            nxt = int(chunks[ptr, geo.next_idx] >> np.uint64(32))
            if nxt == C.NULL_PTR:
                break
            ptr = nxt

        from .gfsl import suggest_capacity  # runtime: gfsl imports pool
        return {"live_chunks": live_chunks, "occupancy": occupancy,
                "live_keys": live_keys,
                "suggested_capacity": suggest_capacity(
                    max(live_keys, 1), team_size=geo.n)}

    def _exhausted(self, message: str, allocated: int) -> OutOfChunks:
        diag = (self.diagnostics(self._mem)
                if self._mem is not None else {})
        return OutOfChunks(message, capacity=self.layout.capacity_chunks,
                           allocated=allocated, **diag)

    # -- host-side -------------------------------------------------------
    def format(self, mem: GlobalMemory) -> None:
        """Initialize the pool: every chunk locked, all keys ∞, NEXT word
        (∞ max, NULL pointer) — the allocation-time state of Section 4.1."""
        lay = self.layout
        geo = lay.geo
        pattern = np.empty(geo.n, dtype=np.uint64)
        pattern[: geo.dsize] = np.uint64(C.EMPTY_KV)
        pattern[geo.next_idx] = np.uint64(C.pack_kv(C.EMPTY_KEY, C.NULL_PTR))
        pattern[geo.lock_idx] = np.uint64(C.LOCKED)
        lay.chunk_rows(mem)[:, :] = pattern
        mem.write_word(lay.pool_ctr_addr, 0)

    def allocated(self, mem: GlobalMemory) -> int:
        """Host-side view of how many chunks have been handed out."""
        return mem.read_word(self.layout.pool_ctr_addr)

    def set_allocated(self, mem: GlobalMemory, n: int) -> None:
        """Host-side bump (used by the vectorized bulk builder)."""
        if n > self.layout.capacity_chunks:
            raise OutOfChunks(f"bulk build needs {n} chunks",
                              capacity=self.layout.capacity_chunks,
                              allocated=self.allocated(mem))
        mem.write_word(self.layout.pool_ctr_addr, n)

    # -- device-side ---------------------------------------------------
    def alloc(self):
        """Device allocation: atomic bump; returns the new chunk pointer.

        The returned chunk is already in the allocation-time state
        (locked, all-∞) thanks to :meth:`format`.
        """
        idx = yield ev.AtomicAdd(self.layout.pool_ctr_addr, 1)
        if idx >= self.layout.capacity_chunks:
            raise self._exhausted("chunk pool exhausted",
                                  min(idx, self.layout.capacity_chunks))
        return idx
