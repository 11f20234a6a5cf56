"""Transaction accounting: coalescing, L2 classification, cost tallies.

On the simulated device every memory event is mapped to the set of
128-byte cache lines it touches.  A *transaction* is one line-sized
request (Section 2.2: "a memory transaction is performed for every cache
line covered by the requests").  Thus:

* a GFSL team of 16 reading its 128 B chunk issues 1 transaction,
* a team of 32 reading a 256 B chunk issues 2,
* 32 M&C threads each chasing a different pointer issue up to 32.

Each transaction is classified by the L2 model as a hit or a DRAM access;
the :class:`TraceStats` counters feed the cycle model in
:mod:`repro.gpu.timing`.  The L2 and the TLB are LRUs, so the order in
which lines reach them is part of the modeled clock.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .cache import L2Cache
from .device import DeviceConfig
from .memory import WORD_BYTES


@dataclass
class TraceStats:
    """Aggregate counters for one simulated kernel run."""

    transactions: int = 0
    l2_hit_transactions: int = 0
    dram_transactions: int = 0
    # DRAM misses split by access pattern: coalesced bursts stream at
    # full bandwidth, scattered single-word misses pay DRAM row
    # activation on (almost) every access.
    dram_coalesced: int = 0
    dram_scattered: int = 0
    # L2 hits split the same way (a scattered hit moves one 32B sector,
    # a coalesced hit a full line).
    l2_coalesced: int = 0
    l2_scattered: int = 0
    tlb_misses: int = 0
    coalesced_accesses: int = 0      # team-wide accesses (ChunkRead etc.)
    scalar_accesses: int = 0         # single-word accesses
    atomic_ops: int = 0
    atomic_conflicts: int = 0        # same-line atomics within one warp step
    instructions: int = 0            # warp-wide issue slots (Compute events)
    divergent_instructions: int = 0  # issue slots spent in divergent replay
    bytes_requested: int = 0
    spill_accesses: int = 0

    def merge(self, other: "TraceStats") -> None:
        # Derived from the dataclass so a field added later can never be
        # silently dropped from the merge.
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hit_transactions / self.transactions if self.transactions else 0.0


_SEG_SHIFT = 40   # (segment, address) keys: addresses stay below 2**40


def _first_occurrences(seg: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct ``(seg, val)``
    pair, in order of occurrence."""
    key = (seg << _SEG_SHIFT) | vals
    return np.sort(np.unique(key, return_index=True)[1])


class TransactionTracer:
    """Maps memory events onto cache-line transactions and tallies cost.

    The tracer owns the device's L2 model.  Device accesses funnel
    through two entry points: :meth:`access_words`, which the trampoline
    in :mod:`repro.gpu.scheduler` calls for every memory event, and
    :meth:`access_words_batch`, which charges a whole batched kernel
    call (an ordered list of wave steps) at once.
    """

    def __init__(self, device: DeviceConfig):
        self.device = device
        self.l2 = L2Cache(device.l2_bytes, device.line_bytes, device.l2_assoc)
        self.stats = TraceStats()
        self.words_per_line = device.line_bytes // WORD_BYTES
        # A small TLB: GPU page tables cover tens of MB; structures far
        # beyond that add an address-translation walk to scattered
        # accesses (the extra super-linear penalty at 10M+ key ranges).
        self.tlb_page_words = device.tlb_page_bytes // WORD_BYTES
        self.tlb_entries = device.tlb_entries
        self._tlb: dict[int, None] = {}

    # ------------------------------------------------------------------
    def lines_of(self, addr: int, n_words: int) -> range:
        """Line addresses covered by ``n_words`` words at word address
        ``addr``."""
        first = addr // self.words_per_line
        last = (addr + n_words - 1) // self.words_per_line
        return range(first, last + 1)

    def _tlb_access(self, addr: int) -> None:
        page = addr // self.tlb_page_words
        tlb = self._tlb
        if page in tlb:
            del tlb[page]
            tlb[page] = None
            return
        self.stats.tlb_misses += 1
        if len(tlb) >= self.tlb_entries:
            tlb.pop(next(iter(tlb)))
        tlb[page] = None

    def access_words(self, addr: int, n_words: int, *, coalesced: bool,
                     atomic: bool = False) -> int:
        """Record an access covering ``n_words`` words; returns the number
        of transactions issued."""
        self._tlb_access(addr)
        ntrans = 0
        for line in self.lines_of(addr, n_words):
            hit = self.l2.access(line)
            ntrans += 1
            if hit:
                self.stats.l2_hit_transactions += 1
                if coalesced:
                    self.stats.l2_coalesced += 1
                else:
                    self.stats.l2_scattered += 1
            else:
                self.stats.dram_transactions += 1
                if coalesced:
                    self.stats.dram_coalesced += 1
                else:
                    self.stats.dram_scattered += 1
        self.stats.transactions += ntrans
        self.stats.bytes_requested += n_words * WORD_BYTES
        if coalesced:
            self.stats.coalesced_accesses += 1
        else:
            self.stats.scalar_accesses += 1
        if atomic:
            self.stats.atomic_ops += 1
        return ntrans

    def _tlb_access_many(self, ordered_pages) -> None:
        """Run page addresses through the TLB LRU in order — the batched
        equivalent of looping :meth:`_tlb_access`."""
        tlb = self._tlb
        entries = self.tlb_entries
        misses = 0
        for page in ordered_pages:
            if page in tlb:
                del tlb[page]
                tlb[page] = None
                continue
            misses += 1
            if len(tlb) >= entries:
                tlb.pop(next(iter(tlb)))
            tlb[page] = None
        self.stats.tlb_misses += misses

    def access_words_batch(self, segments) -> int:
        """Record an ordered list of batched accesses — the accounting of
        one whole kernel call; returns the number of transactions issued.

        Each segment is ``(addrs, n_words, coalesced, atomic)``: one
        access of ``n_words`` words at every address in ``addrs``.
        ``n_words`` may be a scalar or an array aligned with ``addrs``
        (per-access widths, e.g. per-shard head arrays of different
        heights).  A segment is one homogeneous wave step — a traversal
        iteration, or one lock / re-read / publish phase of the batched
        critical sections.

        Classification is exactly that of one call per segment, in
        order: within a segment, a line (or TLB page) already touched
        counts as a hit without consulting the model again — faithful
        to hardware, where the first access of a warp-synchronous step
        leaves the line MRU-resident for the rest — while a repeat in a
        later segment goes through the model.  The L2 and the TLB are
        LRUs, so the order in which distinct lines reach them is part
        of the modeled clock: segments are charged in list order and
        lines in first-occurrence order within each.  All pages go
        through one TLB pass, and the lines through one
        :meth:`L2Cache.access_many` call per run of segments with the
        same access class (coalesced or scattered).
        """
        k = len(segments)
        seg_addrs = [np.asarray(s[0], dtype=np.int64) for s in segments]
        sizes = np.fromiter(map(len, seg_addrs), dtype=np.int64, count=k)
        m = int(sizes.sum())
        if m == 0:
            return 0
        stats = self.stats
        seg = np.repeat(np.arange(k, dtype=np.int64), sizes)
        addrs = np.concatenate(seg_addrs)
        # Per-access widths: each scalar width repeated over its segment,
        # then the per-access width arrays copied in.
        widths = [s[1] for s in segments]
        nw = np.repeat(np.fromiter((0 if isinstance(w, np.ndarray) else w
                                    for w in widths), dtype=np.int64,
                                   count=k), sizes)
        end = 0
        for w, size in zip(widths, sizes.tolist()):
            end += size
            if isinstance(w, np.ndarray):
                nw[end - size: end] = w

        # TLB: each segment's distinct pages, first-occurrence order.
        pages = addrs // self.tlb_page_words
        self._tlb_access_many(
            pages[_first_occurrences(seg, pages)].tolist())

        # Lines covered by each access (chunk accesses span 1–2 lines).
        wpl = self.words_per_line
        first = addrs // wpl
        counts = (addrs + (nw - 1)) // wpl - first + 1
        total = int(counts.sum())
        if total == m:
            lines, line_seg = first, seg
        else:
            starts = np.repeat(first, counts)
            offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
            lines, line_seg = starts + offs, np.repeat(seg, counts)
        keep = _first_occurrences(line_seg, lines)
        uniq_lines, uniq_seg = lines[keep], line_seg[keep]

        coalesced = np.fromiter((s[2] for s in segments), dtype=bool,
                                count=k)
        # Per class (0 scattered, 1 coalesced): the model's hits and
        # misses, plus in-segment repeats, which are hits.
        line_co = coalesced[line_seg]
        uniq_co = coalesced[uniq_seg]
        hits = (np.bincount(line_co, minlength=2)
                - np.bincount(uniq_co, minlength=2)).tolist()
        misses = [0, 0]
        cuts = np.flatnonzero(uniq_co[1:] != uniq_co[:-1]) + 1
        bounds = ([0, *cuts.tolist(), int(uniq_lines.size)]
                  if uniq_lines.size else [])
        for lo, hi in zip(bounds, bounds[1:]):
            h, mi = self.l2.access_many(uniq_lines[lo:hi].tolist())
            cls = int(uniq_co[lo])
            hits[cls] += h
            misses[cls] += mi
        stats.transactions += total
        stats.l2_hit_transactions += hits[0] + hits[1]
        stats.dram_transactions += misses[0] + misses[1]
        stats.l2_scattered += hits[0]
        stats.l2_coalesced += hits[1]
        stats.dram_scattered += misses[0]
        stats.dram_coalesced += misses[1]
        n_co = int(sizes[coalesced].sum())
        stats.coalesced_accesses += n_co
        stats.scalar_accesses += m - n_co
        stats.atomic_ops += int(sizes[[bool(s[3]) for s in segments]].sum())
        stats.bytes_requested += int(nw.sum()) * WORD_BYTES
        return total

    def record_atomic_conflicts(self, n: int) -> None:
        """Record ``n`` serialized same-destination atomics in one warp."""
        self.stats.atomic_conflicts += n

    def record_compute(self, amount: int, divergent: bool = False) -> None:
        self.stats.instructions += amount
        if divergent:
            self.stats.divergent_instructions += amount

    def record_spill(self, n: int) -> None:
        self.stats.spill_accesses += n

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = TraceStats()
        self.l2.stats.reset()
        self._tlb.clear()

    def warm_words(self, addr: int, n_words: int) -> None:
        """Warm the L2 with the lines of a word range (post-bulk-build)."""
        self.l2.warm(self.lines_of(addr, n_words))
