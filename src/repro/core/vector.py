"""Vectorized multi-key kernels for GFSL (engine support).

The batch engine's :class:`~repro.engine.vectorized.VectorizedBackend`
replays whole waves through these kernels instead of one generator per
op.  Three kernels are exposed, each in a single-instance flavour
(``vector_*``) and a fused multi-instance flavour (``*_multi`` /
:func:`update_wave`) that runs one lock-step dispatch across several
co-located structures (the :class:`~repro.shard.ShardedMap` shards —
per-op base offsets from ``GPUContext.reserve`` make the merged index
space trivial):

* :func:`vector_contains` / :func:`contains_multi` — answer all the
  wave's ``Contains`` operations,
* :func:`vector_search` / :func:`search_multi` — precompute the
  ``(found, path)`` result of :func:`~repro.core.traversal.search_slow`
  for the wave's updates (usable as generator hints),
* :func:`update_wave` — the **vectorized critical sections**: partition
  the wave's updates into conflict-free groups (distinct target chunks,
  no split/merge/boundary hazards) and execute every group's
  lock-acquire → modify → publish sequence as three batched accesses
  against :class:`~repro.gpu.memory.GlobalMemory`, falling back to the
  per-op generator for everything else.  Eligibility and the published
  chunk images are computed for all groups at once by segmented
  reductions over the wave (:func:`_batch_clusters`), never one group
  at a time.

All in-flight searches advance in lock-step: each iteration gathers
every search's current chunk with one numpy fancy-index and computes
every team's ballot decision with one vectorized comparison, exactly
the semantics of Algorithms 4.2–4.4/4.6 (``search_down`` +
``search_lateral``) but many ops wide.  The in-flight searches are kept
as compacted arrays; a search leaves them the step it finishes.

The kernels require quiescent memory (the wave's update ops have not
started), which is what makes the lock-free restart path unreachable;
if it is ever hit anyway — or a traversal exceeds the step bound — the
op falls back to its ordinary generator, so behaviour can never diverge
from the sequential path.  (Unlike ``search_slow``, the vector search
performs no lazy zombie unlinking — that cleanup is best-effort by
design, so skipping it affects only when zombies get unlinked, never
results.)

The same contract governs :func:`update_wave`: a batched group is
executed only when the quiescent snapshot *proves* no schedule of its
operations could lock-conflict, split, merge, or touch an upper level,
and the batched result (success flags, final bottom-level contents,
``inserts``/``deletes`` counters) is then identical to sequential
replay by construction.  Every hazard falls back to the hinted
generator.  Fallback hints stay valid across the batched phase because
batched groups never change chunk linkage and wave keys are distinct —
a hint chunk is re-walked laterally and re-validated under the lock.

Tracer accounting is one call per kernel, with the cost of one call
per wave step: each traversal iteration is one segment of one
coalesced chunk access *per in-flight op*, and each batched
critical-section phase one segment (lock CAS / re-read under lock /
publish store) for the whole group — so the cost model sees batched
updates as the three memory phases a real warp-cooperative update
kernel would issue.  A kernel collects its segments and charges them in
one :meth:`~repro.gpu.tracer.TransactionTracer.access_words_batch`
call at its end, or earlier right before a fallback generator charges
the same tracer; line and page de-duplication stays per segment.  The
L2 model is an LRU, so issue order is part of the modeled clock and is
kept: segments in issue order, and the phases' chunks in ascending
``(shard, chunk)`` order.
"""

from __future__ import annotations

import sys

import numpy as np

from ..gpu.scheduler import run_to_completion
from . import constants as C

# Op codes of repro.engine.batch / repro.workloads.generator, restated
# locally to keep core free of engine imports.
_OP_INSERT, _OP_DELETE = 1, 2

_DIAG_KEYS = ("ops", "fallback_backtrack", "fallback_restart",
              "fallback_stuck", "batched", "fallback_conflict")


def _fresh_diag(m: int) -> dict:
    d = dict.fromkeys(_DIAG_KEYS, 0)
    d["ops"] = m
    return d


# Diagnostics of the most recent kernel call (a snapshot alias — every
# call returns/binds a *fresh* dict, so concurrent or sharded kernel
# calls can never clobber a caller's diagnostics).  Tests use this to
# assert the fallback path stays cold on quiescent memory.
last_call_diag = _fresh_diag(0)


def _publish_diag(diag: dict) -> None:
    global last_call_diag
    last_call_diag = diag


def _owner_array(owner, m: int) -> np.ndarray:
    if owner is None:
        return np.zeros(m, dtype=np.int64)
    return np.asarray(owner, dtype=np.int64)


class _Charges:
    """The accesses and issue slots of one kernel call, charged to the
    tracer in one segmented
    :meth:`~repro.gpu.tracer.TransactionTracer.access_words_batch` call.

    Each :meth:`access` is one wave step (one segment).  :meth:`flush`
    charges everything collected so far in issue order; a kernel calls
    it once at its end, and earlier only right before a fallback
    generator charges the same tracer — the L2 is an LRU, so the order
    in which accesses reach it is part of the modeled clock.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.segments: list[tuple] = []
        self.compute = 0

    def access(self, addrs, n_words, *, coalesced: bool = True,
               atomic: bool = False) -> None:
        """One access per address, plus one issue slot each."""
        if self.tracer is not None:
            self.segments.append((addrs, n_words, coalesced, atomic))
            self.compute += len(addrs)

    def flush(self) -> None:
        if self.tracer is None:
            return
        if self.segments:
            self.tracer.access_words_batch(self.segments)
            self.segments = []
        if self.compute:
            self.tracer.record_compute(self.compute)
            self.compute = 0


# Column offsets of a word's key (low) and value (high) 32-bit halves in
# a uint32 view of uint64 words.
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def _ballot_le(K: np.ndarray, kk: np.ndarray, lanes: np.ndarray
               ) -> np.ndarray:
    """Row-wise ``highest_set_lane(ballot(K <= k))``: the highest data
    lane whose key is ``<= k``, or ``NONE_TID`` (-1) when none is."""
    return np.where(K <= kk[:, None], lanes, C.NONE_TID).max(axis=1)


def _traverse(sls, owner: np.ndarray, keys: np.ndarray, charges: _Charges,
              record_path: bool, track_upper: bool = False):
    """The shared lock-step descent + bottom-level lateral walk, fused
    across the instances in ``sls`` (``owner[i]`` names ``keys[i]``'s
    instance; all instances share one memory/geometry).  Every step's
    chunk reads are collected in ``charges``.

    Returns ``(found, paths, upper, fallback, diag)``: bool arrays
    aligned with ``keys`` (``paths`` is the per-op ``search_slow`` path
    matrix, or ``None`` when ``record_path`` is false; ``upper[i]`` is
    True iff ``keys[i]`` was seen in a level ≥ 1 chunk — exact for
    non-fallback ops, since the descent visits the enclosing chunk of
    every level), the list of op indices that must be replayed through
    their generator, and the per-call diagnostics dict.

    The in-flight searches are kept as compacted arrays — row ``r`` is
    op ``g[r]``, in ascending op order — and a row is retired as soon as
    its search finishes or falls back.  A row descends while its height
    is above 0 and walks the bottom level laterally once it is 0.
    """
    m = int(keys.size)
    geo = sls[0].geo
    words = sls[0].ctx.mem.raw()
    dsize, n = geo.dsize, geo.n
    S = len(sls)
    max_levels = np.fromiter((s.layout.max_level for s in sls),
                             dtype=np.int64, count=S)
    width = int(max_levels.max())

    # Every search starts with the coalesced head-array read of
    # Algorithm 4.2; memory is quiescent so one snapshot per instance
    # serves all its ops, but the cost model still sees one access per
    # op (at that op's instance's head base).
    head_bases = np.fromiter((s.layout.head_base for s in sls),
                             dtype=np.int64, count=S)
    chunk_bases = np.fromiter((s.layout.chunks_base for s in sls),
                              dtype=np.int64, count=S)
    charges.access(head_bases[owner], max_levels[owner])
    # Each instance's head array as one row; levels past an instance's
    # own max_level read as pointer 0, count 0.
    lv = np.arange(width, dtype=np.int64)
    valid = lv < max_levels[:, None]
    head = words[head_bases[:, None] + np.where(valid, lv, 0)
                 ].view(np.uint32)
    ptrs = np.where(valid, head[:, _HI::2], 0).astype(np.int64)
    height0 = np.where(valid & (head[:, _LO::2] > 0), lv, 0).max(axis=1)

    found = np.zeros(m, dtype=bool)
    upper = np.zeros(m, dtype=bool)
    # The "artificial array": every level defaults to its head chunk —
    # always a valid lateral starting point (search_slow does the same).
    paths = ptrs[owner] if record_path else None
    fallback: list[int] = []
    diag = _fresh_diag(m)

    # In-flight rows.  prev_ptr is the chunk of the row's last lateral
    # step on its current level, or -1: the backtrack target.  Memory is
    # quiescent, so a backtrack re-reads that chunk's words instead of
    # keeping a copy (it was charged when the step read it).
    g = np.arange(m, dtype=np.int64)
    kk = keys.astype(np.uint32)         # user keys fit the key half
    cb = chunk_bases[owner]
    height = height0[owner]
    pcurr = ptrs[owner, height]
    prev_ptr = np.full(m, -1, dtype=np.int64)
    lanes = np.arange(dsize, dtype=np.int64)
    offs = np.arange(n, dtype=np.int64)
    k_cols = slice(_LO, 2 * dsize, 2)
    max_col, next_col = 2 * geo.next_idx + _LO, 2 * geo.next_idx + _HI
    zombie = np.uint64(C.ZOMBIE)
    steps = 0

    while g.size:
        steps += 1
        if steps > 100_000:  # corrupted structure: let the generators
            fallback.extend(g.tolist())  # raise a precise fault
            diag["fallback_stuck"] += g.size
            break

        addrs = cb + pcurr * n
        charges.access(addrs, n)
        W = words[addrs[:, None] + offs]
        H = W.view(np.uint32)
        K = H[:, k_cols]
        zomb = W[:, geo.lock_idx] == zombie
        downs = height > 0
        # Move right: the key lies beyond this chunk (the max-field lane
        # of the ballot), or the chunk is a frozen zombie.  A live
        # descent-level chunk passed this way is the backtrack target.
        adv = (H[:, max_col] < kk) | zomb
        np.copyto(prev_ptr, pcurr, where=downs & adv & ~zomb)
        np.copyto(pcurr, H[:, next_col], where=adv)
        retire = ~(downs | adv)                 # bottom level: done

        # ---- descent rows (Algorithms 4.2 / 4.6) -------------------------
        desc = downs & ~adv
        if desc.any():
            tid = _ballot_le(K, kk, lanes)
            dn = np.nonzero(desc & (tid >= 0))[0]     # down step
            if dn.size:
                if track_upper:
                    # The down-step chunk *is* the key's enclosing chunk
                    # at this (≥ 1) level, so an equality hit here is an
                    # exact upper-level presence test.
                    hit = (K[dn] == kk[dn, None]).any(axis=1)
                    upper[g[dn[hit]]] = True
                if record_path:
                    paths[g[dn], height[dn]] = pcurr[dn]
                pcurr[dn] = H[dn, 2 * tid[dn] + _HI]
                height[dn] -= 1
                prev_ptr[dn] = -1
            none = np.nonzero(desc & (tid < 0))[0]
            if none.size:
                has_prev = prev_ptr[none] >= 0
                bt, rs = none[has_prev], none[~has_prev]
                if bt.size:                           # backtrack
                    P = words[(cb[bt] + prev_ptr[bt] * n)[:, None] + offs
                              ].view(np.uint32)
                    pk = P[:, k_cols]
                    tidb = _ballot_le(pk, kk[bt], lanes)
                    if track_upper:
                        hitb = (pk == kk[bt, None]).any(axis=1)
                        upper[g[bt[hitb]]] = True
                    ok = tidb >= 0
                    b = bt[ok]
                    if record_path:
                        paths[g[b], height[b]] = prev_ptr[b]
                    pcurr[b] = P[ok, 2 * tidb[ok] + _HI]
                    height[b] -= 1
                    prev_ptr[b] = -1
                    bad = bt[~ok]
                    fallback.extend(g[bad].tolist())
                    retire[bad] = True
                    diag["fallback_backtrack"] += bad.size
                # The lock-free restart: unreachable when quiescent.
                fallback.extend(g[rs].tolist())
                retire[rs] = True
                diag["fallback_restart"] += rs.size

        # ---- bottom-level lateral rows (Algorithm 4.4) -------------------
        if retire.any():
            fin = np.nonzero(retire & ~downs)[0]
            gf = g[fin]
            if record_path:
                paths[gf, 0] = pcurr[fin]       # the enclosing chunk
            found[gf] = (K[fin] == kk[fin, None]).any(axis=1)
            keep = ~retire
            g, kk, cb = g[keep], kk[keep], cb[keep]
            pcurr, height, prev_ptr = pcurr[keep], height[keep], \
                prev_ptr[keep]

    return found, paths, upper, fallback, diag


def _check_keys(sl, keys: np.ndarray) -> None:
    bad = (keys < C.MIN_USER_KEY) | (keys > C.MAX_USER_KEY)
    if bad.any():
        sl._check_key(int(keys[np.nonzero(bad)[0][0]]))  # raises


def _count_per_owner(sls, owner: np.ndarray, idx_all: np.ndarray,
                     idx_sub) -> np.ndarray:
    """Ops per instance in ``idx_all`` minus those in ``idx_sub``."""
    S = len(sls)
    total = np.bincount(owner[idx_all], minlength=S)
    if len(idx_sub):
        total -= np.bincount(owner[np.asarray(idx_sub, dtype=np.int64)],
                             minlength=S)
    return total


def _search_fallback(sls, owner, keys, tracer, fallback, found,
                     paths) -> None:
    """Fill ``found``/``paths`` for the ops the lock-step traversal gave
    up on by running their scalar ``search_slow``."""
    from .traversal import search_slow
    for i in fallback:
        s = sls[int(owner[i])]
        f, p = run_to_completion(search_slow(s, int(keys[i])),
                                 s.ctx.mem, tracer)
        found[i] = f
        p = np.asarray(p, dtype=np.int64)
        paths[i, : p.size] = p


# ---------------------------------------------------------------------------
# Read kernels
# ---------------------------------------------------------------------------

def contains_multi(sls, owner, keys: np.ndarray, tracer=None) -> np.ndarray:
    """Fused lock-step membership test across co-located instances.

    Returns a boolean array aligned with ``keys``.  Op accounting
    (``contains_calls``) matches running ``contains_gen`` once per key
    on the owning instance.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        _publish_diag(_fresh_diag(0))
        return np.zeros(0, dtype=bool)
    owner = _owner_array(owner, keys.size)
    _check_keys(sls[0], keys)
    charges = _Charges(tracer)
    found, _paths, _upper, fallback, diag = _traverse(
        sls, owner, keys, charges, record_path=False)
    charges.flush()
    for si, cnt in enumerate(
            _count_per_owner(sls, owner, np.arange(keys.size), fallback)):
        sls[si].op_stats.contains_calls += int(cnt)
    for i in fallback:
        s = sls[int(owner[i])]
        found[i] = s.ctx.run(s.contains_gen(int(keys[i])))
    _publish_diag(diag)
    return found


def search_multi(sls, owner, keys: np.ndarray, tracer=None):
    """Fused lock-step ``search_slow`` across co-located instances;
    returns ``(found, paths)`` usable as update hints."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        _publish_diag(_fresh_diag(0))
        return (np.zeros(0, dtype=bool),
                np.zeros((0, sls[0].layout.max_level), dtype=np.int64))
    owner = _owner_array(owner, keys.size)
    _check_keys(sls[0], keys)
    charges = _Charges(tracer)
    found, paths, _upper, fallback, diag = _traverse(
        sls, owner, keys, charges, record_path=True)
    charges.flush()
    _search_fallback(sls, owner, keys, tracer, fallback, found, paths)
    _publish_diag(diag)
    return found, paths


def vector_contains(sl, keys: np.ndarray, tracer=None) -> np.ndarray:
    """Lock-step membership test for many keys on quiescent memory
    (single-instance wrapper over :func:`contains_multi`)."""
    return contains_multi([sl], None, keys, tracer=tracer)


def vector_search(sl, keys: np.ndarray, tracer=None):
    """Lock-step ``search_slow`` for many keys on quiescent memory
    (single-instance wrapper over :func:`search_multi`).

    Returns ``(found, paths)`` where row ``i`` of ``paths`` is the
    per-level chunk-pointer path for ``keys[i]`` — directly usable as
    the ``hint`` of :func:`repro.core.insert.insert` /
    :func:`repro.core.delete.delete`.
    """
    return search_multi([sl], None, keys, tracer=tracer)


# ---------------------------------------------------------------------------
# The vectorized update critical sections
# ---------------------------------------------------------------------------

def _batch_clusters(geo, words, chunk_bases, owner, ops, keys, values,
                    idx, tgt):
    """Decide conflict-group eligibility and build the published image of
    every target chunk of the wave in one segmented array pass.

    ``idx`` are the candidate op indices (ascending) and ``tgt`` their
    bottom-level target chunks; ops are clustered by ``(shard, chunk)``.
    Per-op flags reduced per cluster with ``np.bincount`` implement the
    conflict-group contract of DESIGN.md §12.  Returns ``(batched,
    shard, addrs, images)``: the op indices resolved by batching, then
    per batched cluster its shard, chunk address and ``n``-word image,
    in ascending ``(shard, chunk)`` order.
    """
    mask32 = np.uint64(C.MASK32)
    dsize, n = geo.dsize, geo.n
    cid, inv = np.unique(owner[idx] * np.int64(2**32) + tgt,
                         return_inverse=True)
    G = int(cid.size)
    shard = cid >> np.int64(32)
    addrs = chunk_bases[shard] + (cid & np.int64(C.MASK32)) * n
    W = words[addrs[:, None] + np.arange(n, dtype=np.int64)]
    dk = (W[:, :dsize] & mask32).astype(np.int64)
    live = dk != C.EMPTY_KEY
    maxf = (W[:, geo.next_idx] & mask32).astype(np.int64)

    def per_cluster(flags):
        return np.bincount(inv[flags], minlength=G)

    kk = keys[idx]
    ins = ops[idx] == _OP_INSERT
    hit = live[inv] & (dk[inv] == kk[:, None])   # op key vs its chunk row
    present = hit.any(axis=1)
    bnd = per_cluster(~ins & (kk == maxf[inv]))  # boundary-key deletes
    nlive = np.count_nonzero(live, axis=1)
    n_ins = per_cluster(ins)
    ok = ((W[:, geo.lock_idx] == np.uint64(C.UNLOCKED))  # not locked/zombie
          & (live & (dk != C.NEG_INF_KEY)).any(axis=1)   # head counters
          & (nlive + n_ins <= dsize)                     # no split
          & (nlive - per_cluster(~ins) > geo.merge_threshold)  # no merge
          & (per_cluster(kk > maxf[inv]) == 0)           # fresh enclosure
          & (per_cluster(ins == present) == 0)           # fresh presence
          & ((n_ins == 0) | (bnd == 0)))  # boundary delete is order-safe
    op_ok = ok[inv]
    gok = np.nonzero(ok)[0]

    # Kept entries (live, no delete of their cluster hits them) plus the
    # inserts, sorted by (cluster, key) — stable, so ties keep chunk
    # order then op order — and scattered by rank into EMPTY_KV rows.
    drop = np.zeros_like(live)
    dr, dc = np.nonzero(hit & (op_ok & ~ins)[:, None])
    drop[inv[dr], dc] = True
    kr, kc = np.nonzero(live & ~drop & ok[:, None])
    new = op_ok & ins
    grp = np.concatenate([kr, inv[new]])
    ekey = np.concatenate([dk[kr, kc], kk[new]])
    word = np.concatenate([W[kr, kc],
                           kk[new].astype(np.uint64)
                           | (values[idx[new]].astype(np.uint64)
                              << np.uint64(32))])
    order = np.lexsort((ekey, grp))
    grp, ekey, word = grp[order], ekey[order], word[order]
    row = np.searchsorted(gok, grp)
    first = np.searchsorted(grp, gok)
    images = np.full((gok.size, n), np.uint64(C.EMPTY_KV), dtype=np.uint64)
    images[row, np.arange(grp.size) - first[row]] = word
    # The boundary falls to the highest kept key iff the old max was
    # deleted; the NEXT pointer half and the released lock are rewritten.
    last = np.searchsorted(grp, gok, side="right") - 1
    newmax = np.where(bnd[gok] > 0, ekey[last], maxf[gok])
    images[:, geo.next_idx] = ((W[gok, geo.next_idx] & ~mask32)
                               | newmax.astype(np.uint64))
    images[:, geo.lock_idx] = np.uint64(C.UNLOCKED)
    return idx[op_ok], shard[gok], addrs[gok], images


def update_wave(sls, owner, ops: np.ndarray, keys: np.ndarray,
                values: np.ndarray, tracer=None):
    """Execute a wave's update critical sections batched where provably
    conflict-free; returns ``(results, handled, found, paths)``.

    ``handled[i]`` marks ops fully resolved here (batched groups plus
    trivially-false outcomes — insert of a present key / delete of an
    absent one, which the generator would answer before locking
    anything).  For ``~handled`` ops the caller replays the hinted
    generator with ``(found[i], paths[i])``, exactly the pre-existing
    fallback contract.

    A target chunk's group is batched only when the quiescent snapshot
    shows: unlocked non-zombie chunk with user keys, no schedule of the
    group can split (``nlive + inserts <= dsize``) or merge
    (``nlive - deletes > merge_threshold``), hints are fresh, deletes
    have no upper-level copies, and no boundary-key delete mixes with
    inserts.  :func:`_batch_clusters` decides this for every cluster of
    the wave at once and builds all published images in the same pass.
    Each batched group then costs one scalar atomic lock CAS, one
    coalesced chunk re-read under the lock, and one coalesced publish
    store (data + boundary + lock release in one chunk-wide image) —
    charged per group, not per word.  The groups are charged in
    ascending ``(shard, chunk)`` order: the L2 model is an LRU, so that
    order is part of the modeled clock.
    """
    keys = np.asarray(keys, dtype=np.int64)
    ops = np.asarray(ops, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    m = int(keys.size)
    geo, lay0 = sls[0].geo, sls[0].layout
    if m == 0:
        _publish_diag(_fresh_diag(0))
        return (np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
                np.zeros(0, dtype=bool),
                np.zeros((0, lay0.max_level), dtype=np.int64))
    owner = _owner_array(owner, m)
    _check_keys(sls[0], keys)
    charges = _Charges(tracer)
    found, paths, upper, fallback, diag = _traverse(
        sls, owner, keys, charges, record_path=True, track_upper=True)
    if fallback:
        charges.flush()     # the fallback searches charge the tracer
        _search_fallback(sls, owner, keys, tracer, fallback, found, paths)

    clean = np.ones(m, dtype=bool)
    clean[fallback] = False
    results = np.zeros(m, dtype=bool)
    # Trivially-false outcomes: the generator answers these from the
    # (hinted) search result before taking any lock, so resolving them
    # here is charge- and counter-identical.
    handled = clean & (((ops == _OP_INSERT) & found)
                       | ((ops == _OP_DELETE) & ~found))
    cand = clean & ~handled
    cand &= ~((ops == _OP_DELETE) & upper)   # upper copies: level sweep
    idx = np.nonzero(cand)[0]

    words = sls[0].ctx.mem.raw()
    S = len(sls)
    chunk_bases = np.fromiter((s.layout.chunks_base for s in sls),
                              dtype=np.int64, count=S)
    n = geo.n
    batched, shard, addrs, images = _batch_clusters(
        geo, words, chunk_bases, owner, ops, keys, values, idx,
        paths[idx, 0])
    handled[batched] = True
    results[batched] = True

    if addrs.size:
        n_batched = int(batched.size)
        # Phase 1 — lock acquire: one scalar atomic CAS per group.
        charges.access(addrs + geo.lock_idx, 1, coalesced=False,
                       atomic=True)
        # Phase 2 — coalesced re-read under the lock (the
        # find_and_lock_enclosing line-16 re-validation).
        charges.access(addrs, n)
        # The scatter below bypasses the GlobalMemory mutators, so the
        # snapshot-epoch write barrier (pre-images for pinned readers)
        # must be notified explicitly before the wave publishes.
        mem = sls[0].ctx.mem
        if mem.write_barrier is not None:
            for a in addrs.tolist():
                mem.write_barrier(int(a), n)
            mgr = sls[0].ctx._epochs
            if mgr is not None:
                mgr.note_publish("batch_wave")
        words[addrs[:, None] + np.arange(n, dtype=np.int64)] = images
        # Phase 3 — publish: one coalesced chunk-wide store carrying
        # data, boundary, and lock release.
        charges.access(addrs, n)
        charges.compute += n_batched        # the modify work itself
        groups = np.bincount(shard, minlength=S)
        is_ins = ops[batched] == _OP_INSERT
        n_ins = np.bincount(owner[batched[is_ins]], minlength=S)
        n_del = np.bincount(owner[batched[~is_ins]], minlength=S)
        for si, s in enumerate(sls):
            if groups[si]:
                s.op_stats.inserts += int(n_ins[si])
                s.op_stats.deletes += int(n_del[si])
                mc = getattr(s, "metrics", None)
                if mc is not None:
                    mc.lock_acquired += int(groups[si])
                    mc.lock_released += int(groups[si])
                    mc.chunk_reads += int(groups[si])
        diag["batched"] = n_batched
    charges.flush()
    diag["fallback_conflict"] = int(np.count_nonzero(~handled))
    _publish_diag(diag)
    return results, handled, found, paths
