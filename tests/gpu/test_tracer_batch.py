"""The segmented ``access_words_batch``: one call per kernel must account
exactly as one call per segment, in order.

A tiny L2 (4 sets of 2 ways) and TLB (3 entries of 64 words) make
evictions, and therefore the order in which lines reach the LRUs, part
of every comparison.  The per-segment reference is the single-batch
accounting the tracer used before segments existed, kept verbatim.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import DeviceConfig
from repro.gpu.memory import WORD_BYTES
from repro.gpu.tracer import TransactionTracer

DEVICE = dataclasses.replace(DeviceConfig.gtx970(), l2_bytes=8 * 128,
                             l2_assoc=2, tlb_page_bytes=64 * WORD_BYTES,
                             tlb_entries=3)


def _oracle_batch(tracer, addrs, n_words, *, coalesced, atomic=False):
    """One single-batch ``access_words_batch`` call, as written before
    the segmented form."""
    addrs = np.asarray(addrs, dtype=np.int64)
    m = int(addrs.size)
    if m == 0:
        return 0
    stats = tracer.stats
    pages = addrs // tracer.tlb_page_words
    uniq_pages, first_idx = np.unique(pages, return_index=True)
    tracer._tlb_access_many(uniq_pages[np.argsort(first_idx)].tolist())
    wpl = tracer.words_per_line
    nw = np.asarray(n_words, dtype=np.int64)
    first = addrs // wpl
    last = (addrs + (nw - 1)) // wpl
    counts = last - first + 1
    total = int(counts.sum())
    if total == m:
        lines = first
    else:
        starts = np.repeat(first, counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
        lines = starts + offs
    uniq_lines, first_idx = np.unique(lines, return_index=True)
    hits, misses = tracer.l2.access_many(
        uniq_lines[np.argsort(first_idx)].tolist())
    dup_hits = total - int(uniq_lines.size)
    stats.transactions += total
    stats.l2_hit_transactions += hits + dup_hits
    stats.dram_transactions += misses
    if coalesced:
        stats.l2_coalesced += hits + dup_hits
        stats.dram_coalesced += misses
        stats.coalesced_accesses += m
    else:
        stats.l2_scattered += hits + dup_hits
        stats.dram_scattered += misses
        stats.scalar_accesses += m
    if atomic:
        stats.atomic_ops += m
    stats.bytes_requested += int(nw.sum()) * WORD_BYTES if nw.ndim \
        else m * int(nw) * WORD_BYTES
    return total


def _state(tracer):
    """Everything the accounting leaves behind, LRU order included."""
    return (dataclasses.asdict(tracer.stats),
            (tracer.l2.stats.hits, tracer.l2.stats.misses),
            [list(s) for s in tracer.l2._sets], list(tracer._tlb))


@st.composite
def _segment(draw):
    """``(addrs, n_words, coalesced, atomic)``: addresses drawn from a
    small range (repeats within the segment), widths a scalar or one per
    access (1-line, unaligned 2-line and head-array widths)."""
    addrs = draw(st.lists(st.integers(0, 400), max_size=12))
    if draw(st.booleans()):
        n_words = draw(st.sampled_from([1, 2, 16, 32]))
    else:
        n_words = np.asarray(
            draw(st.lists(st.integers(1, 32), min_size=len(addrs),
                          max_size=len(addrs))), dtype=np.int64)
    coalesced = draw(st.booleans())
    atomic = not coalesced and draw(st.booleans())
    return np.asarray(addrs, dtype=np.int64), n_words, coalesced, atomic


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(_segment(), max_size=8),
       warm=st.lists(st.integers(0, 400), max_size=10))
def test_one_segmented_call_equals_one_call_per_segment(segments, warm):
    tracers = [TransactionTracer(DEVICE) for _ in range(3)]
    for t in tracers:                     # the same non-empty start state
        for a in warm:
            t.access_words(a, 16, coalesced=True)
    whole, per_seg, oracle = tracers

    total = whole.access_words_batch(segments)
    assert total == sum(per_seg.access_words_batch([s]) for s in segments)
    for addrs, n_words, coalesced, atomic in segments:
        _oracle_batch(oracle, addrs, n_words, coalesced=coalesced,
                      atomic=atomic)
    assert _state(whole) == _state(per_seg) == _state(oracle)


def test_repeats_within_a_segment_hit_and_across_segments_consult_the_l2():
    t = TransactionTracer(DEVICE)
    line = np.asarray([0], dtype=np.int64)
    t.access_words_batch([(np.asarray([0, 0, 3]), 1, False, False),
                          (line, 16, True, False)])
    st_ = t.stats
    assert st_.transactions == 4
    # One model miss, two in-segment hits, then one model hit.
    assert (st_.dram_scattered, st_.l2_scattered, st_.l2_coalesced) \
        == (1, 2, 1)
    assert (t.l2.stats.hits, t.l2.stats.misses) == (1, 1)
    assert st_.scalar_accesses == 3 and st_.coalesced_accesses == 1


def test_empty_segments_charge_nothing():
    t = TransactionTracer(DEVICE)
    empty = np.zeros(0, dtype=np.int64)
    assert t.access_words_batch([]) == 0
    assert t.access_words_batch([(empty, 16, True, False),
                                 (empty, 1, False, True)]) == 0
    assert _state(t) == _state(TransactionTracer(DEVICE))
