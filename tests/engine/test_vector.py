"""Tests for the vectorized multi-key traversal kernels that back the
vectorized engine backend (``repro.core.vector``)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core import vector
from repro.core.vector import _fresh_diag
from repro.core.validate import level_chain, level_items, structure_height
from repro.engine import make_structure
from repro.engine.backends import InterleavedBackend
from repro.engine.batch import OpBatch
from repro.gpu.device import DeviceConfig
from repro.gpu.scheduler import run_to_completion
from repro.gpu.tracer import TransactionTracer
from repro.workloads import MIX_10_10_80, generate
from repro.workloads.generator import Mixture


@pytest.fixture(scope="module")
def built():
    w = generate(MIX_10_10_80, key_range=5_000, n_ops=10, seed=4)
    sl = make_structure("gfsl", w, seed=0)
    return sl, set(int(k) for k in w.prefill)


class TestVectorContains:
    def test_matches_scalar_contains(self, built):
        sl, present = built
        rng = np.random.default_rng(0)
        keys = rng.integers(1, 5_001, size=512, dtype=np.int64)
        found = vector.vector_contains(sl, keys, tracer=None)
        expected = np.array([k in present for k in keys.tolist()])
        assert np.array_equal(found, expected)

    def test_counts_contains_calls(self, built):
        sl, _present = built
        sl.op_stats.reset()
        keys = np.arange(1, 101, dtype=np.int64)
        vector.vector_contains(sl, keys, tracer=None)
        assert sl.op_stats.contains_calls == 100

    def test_diagnostics_updated(self, built):
        sl, _present = built
        vector.vector_contains(sl, np.arange(1, 65, dtype=np.int64),
                               tracer=None)
        diag = vector.last_call_diag
        assert diag["ops"] == 64
        # A quiescent structure never forces the restart fallback.
        assert diag["fallback_restart"] == 0
        assert diag["fallback_stuck"] == 0


class TestVectorSearch:
    def test_hints_match_scalar_search(self, built):
        """``vector_search`` must agree with the scalar ``search_slow``
        on the found flag, and its paths must be usable hints: every
        recorded chunk is a valid starting point for the per-level
        lateral re-walk (checked by running a hinted delete/insert)."""
        from repro.core.traversal import search_slow
        sl, present = built
        rng = np.random.default_rng(1)
        keys = rng.integers(1, 5_001, size=256, dtype=np.int64)
        found, paths = vector.vector_search(sl, keys, tracer=None)
        assert paths.shape == (256, sl.layout.max_level)
        for i, k in enumerate(keys.tolist()):
            sfound, _spath = run_to_completion(search_slow(sl, k),
                                               sl.ctx.mem, None)
            assert bool(found[i]) == sfound == (k in present)

    def test_hinted_update_round_trip(self, built):
        sl, present = built
        absent = next(k for k in range(1, 5_001) if k not in present)
        keys = np.array([absent], dtype=np.int64)
        found, paths = vector.vector_search(sl, keys, tracer=None)
        assert not bool(found[0])
        hint = (bool(found[0]), paths[0].tolist())
        assert sl.ctx.run(sl.insert_gen(absent, 7, hint=hint)) is True
        found2, paths2 = vector.vector_search(sl, keys, tracer=None)
        hint2 = (bool(found2[0]), paths2[0].tolist())
        assert sl.ctx.run(sl.delete_gen(absent, hint=hint2)) is True
        assert not sl.contains(absent)


# ---------------------------------------------------------------------------
# The compacted traversal against the per-mask traversal it replaced
# ---------------------------------------------------------------------------

# The lock-step traversal as it was before it was compacted, verbatim: the
# in-flight searches stay full-width behind an ``active`` mask, each step
# builds its ballots with ``np.concatenate`` + ``_highest_true_lane`` and
# charges its chunk reads with one tracer call.

_DOWN, _LATERAL = 0, 1


def _highest_true_lane(flags: np.ndarray) -> np.ndarray:
    """Row-wise ``highest_set_lane(ballot(flags))``: index of the highest
    True column, or -1 for all-False rows (the NONE_TID case)."""
    ncols = flags.shape[1]
    tid = (ncols - 1) - np.argmax(flags[:, ::-1], axis=1)
    tid[~flags.any(axis=1)] = C.NONE_TID
    return tid


def _oracle_traverse(sls, owner: np.ndarray, keys: np.ndarray, tracer,
              record_path: bool, track_upper: bool = False):
    """The shared lock-step descent + bottom-level lateral walk, fused
    across the instances in ``sls`` (``owner[i]`` names ``keys[i]``'s
    instance; all instances share one memory/geometry).

    Returns ``(found, paths, upper, fallback, diag)``: bool arrays
    aligned with ``keys`` (``paths`` is the per-op ``search_slow`` path
    matrix, or ``None`` when ``record_path`` is false; ``upper[i]`` is
    True iff ``keys[i]`` was seen in a level ≥ 1 chunk — exact for
    non-fallback ops, since the descent visits the enclosing chunk of
    every level), the list of op indices that must be replayed through
    their generator, and the per-call diagnostics dict.
    """
    m = int(keys.size)
    geo = sls[0].geo
    words = sls[0].ctx.mem.raw()
    dsize, n = geo.dsize, geo.n
    mask32 = np.uint64(C.MASK32)
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
    if tracer is not None:
        tracer.access_words_batch(head_bases[owner], max_levels[owner],
                                  coalesced=True)
        tracer.record_compute(m)
    counts = np.zeros((S, width), dtype=np.int64)
    ptrs = np.zeros((S, width), dtype=np.int64)
    height0 = np.zeros(S, dtype=np.int64)
    for si in range(S):
        ml = int(max_levels[si])
        head = words[head_bases[si]: head_bases[si] + ml]
        counts[si, :ml] = (head & mask32).astype(np.int64)
        ptrs[si, :ml] = (head >> np.uint64(32)).astype(np.int64)
        nz = np.nonzero(counts[si, :ml] > 0)[0]
        height0[si] = int(nz[-1]) if nz.size else 0

    cbase = chunk_bases[owner]
    height = height0[owner].copy()
    pcurr = ptrs[owner, height]
    phase = np.where(height > 0, _DOWN, _LATERAL).astype(np.int8)
    prev = np.zeros((m, n), dtype=np.uint64)
    prev_ptr = np.zeros(m, dtype=np.int64)
    have_prev = np.zeros(m, dtype=bool)
    found = np.zeros(m, dtype=bool)
    upper = np.zeros(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    # The "artificial array": every level defaults to its head chunk —
    # always a valid lateral starting point (search_slow does the same).
    paths = ptrs[owner].copy() if record_path else None
    fallback: list[int] = []
    offs = np.arange(n, dtype=np.int64)
    steps = 0
    diag = _fresh_diag(m)

    while True:
        act = np.nonzero(active)[0]
        if act.size == 0:
            break
        steps += 1
        if steps > 100_000:  # corrupted structure: let the generators
            fallback.extend(act.tolist())  # raise a precise fault
            active[act] = False
            diag["fallback_stuck"] += act.size
            break

        addrs = cbase[act] + pcurr[act] * n
        if tracer is not None:
            tracer.access_words_batch(addrs, n, coalesced=True)
            tracer.record_compute(act.size)
        W = words[addrs[:, None] + offs]
        keys_m = (W & mask32).astype(np.int64)
        vals_m = (W >> np.uint64(32)).astype(np.int64)
        zomb = W[:, geo.lock_idx] == np.uint64(C.ZOMBIE)
        maxf = keys_m[:, geo.next_idx]
        nxt = vals_m[:, geo.next_idx]
        kk = keys[act]
        ph = phase[act]

        # ---- descent rows (Algorithms 4.2 / 4.6) -------------------------
        downs = ph == _DOWN
        zd = downs & zomb                       # skip frozen zombies
        if zd.any():
            pcurr[act[zd]] = nxt[zd]
        live_d = downs & ~zomb
        if live_d.any():
            flags = np.concatenate(
                [keys_m[:, :dsize] <= kk[:, None], (maxf < kk)[:, None]],
                axis=1)
            tid = _highest_true_lane(flags)

            lat = live_d & (tid == dsize)       # lateral step
            if lat.any():
                g = act[lat]
                prev[g] = W[lat]
                prev_ptr[g] = pcurr[g]
                have_prev[g] = True
                pcurr[g] = nxt[lat]

            down = live_d & (tid >= 0) & (tid < dsize)   # down step
            if down.any():
                g = act[down]
                rows = np.nonzero(down)[0]
                if track_upper:
                    # The down-step chunk *is* the key's enclosing chunk
                    # at this (≥ 1) level, so an equality hit here is an
                    # exact upper-level presence test.
                    hit = (keys_m[rows, :dsize] == kk[down][:, None]) \
                        .any(axis=1)
                    upper[g[hit]] = True
                if record_path:
                    paths[g, height[g]] = pcurr[g]
                pcurr[g] = vals_m[rows, tid[down]]
                height[g] -= 1
                have_prev[g] = False
                phase[g[height[g] == 0]] = _LATERAL

            none = live_d & (tid == C.NONE_TID)          # backtrack
            if none.any():
                hp = have_prev[act].copy()  # snapshot: the bt branch below
                bt = none & hp              # clears have_prev in place
                if bt.any():
                    g = act[bt]
                    pk = (prev[g] & mask32).astype(np.int64)[:, :dsize]
                    tidb = _highest_true_lane(pk <= kk[bt][:, None])
                    if track_upper:
                        hitb = (pk == kk[bt][:, None]).any(axis=1)
                        upper[g[hitb]] = True
                    ok = tidb >= 0
                    gg = g[ok]
                    rows = np.nonzero(ok)[0]
                    if record_path:
                        paths[gg, height[gg]] = prev_ptr[gg]
                    pv = (prev[g] >> np.uint64(32)).astype(np.int64)
                    pcurr[gg] = pv[rows, tidb[ok]]
                    height[gg] -= 1
                    have_prev[gg] = False
                    phase[gg[height[gg] == 0]] = _LATERAL
                    bad_g = g[~ok]
                    fallback.extend(bad_g.tolist())
                    active[bad_g] = False
                    diag["fallback_backtrack"] += bad_g.size
                rs = none & ~hp                 # the lock-free restart —
                if rs.any():                    # unreachable when quiescent
                    g = act[rs]
                    fallback.extend(g.tolist())
                    active[g] = False
                    diag["fallback_restart"] += g.size

        # ---- bottom-level lateral rows (Algorithm 4.4) -------------------
        lats = ph == _LATERAL
        if lats.any():
            flags2 = np.concatenate(
                [keys_m[:, :dsize] == kk[:, None], (maxf < kk)[:, None]],
                axis=1)
            tid2 = _highest_true_lane(flags2)
            step = lats & ((tid2 == dsize) | zomb)
            if step.any():
                pcurr[act[step]] = nxt[step]
            done = lats & ~step
            if done.any():
                g = act[done]
                if record_path:
                    paths[g, 0] = pcurr[g]      # the enclosing chunk
                found[g] = tid2[done] != C.NONE_TID
                active[g] = False

    return found, paths, upper, fallback, diag


class _PerStepTracer:
    """The single-batch tracer interface the oracle was written against:
    each call is one segment of the wrapped tracer."""

    def __init__(self, tracer):
        self.tracer = tracer

    def access_words_batch(self, addrs, n_words, *, coalesced,
                           atomic=False):
        return self.tracer.access_words_batch(
            [(addrs, n_words, coalesced, atomic)])

    def record_compute(self, amount):
        self.tracer.record_compute(amount)


# A small L2 (64 lines) and TLB, so the order in which lines reach the
# LRUs shows in every comparison.
SMALL = dataclasses.replace(DeviceConfig.gtx970(), l2_bytes=64 * 128,
                            l2_assoc=4, tlb_page_bytes=512 * 8,
                            tlb_entries=4)


def _tracer_state(tracer):
    return (dataclasses.asdict(tracer.stats),
            [list(s) for s in tracer.l2._sets], list(tracer._tlb))


def _run_both(sm, keys, record_path, track_upper):
    """Run both traversals on the same quiescent structure with twin
    tracers; returns ``(new, oracle)`` outcomes, each either the result
    tuple plus the tracer state or the exception type raised."""
    sls = getattr(sm, "shards", [sm])
    keys = np.asarray(keys, dtype=np.int64)
    owner = (sm.routing.shard_of_array(keys) if len(sls) > 1
             else np.zeros(keys.size, dtype=np.int64))
    outs = []
    for oracle in (False, True):
        tracer = TransactionTracer(SMALL)
        try:
            if oracle:
                res = _oracle_traverse(sls, owner, keys,
                                       _PerStepTracer(tracer), record_path,
                                       track_upper)
            else:
                charges = vector._Charges(tracer)
                res = vector._traverse(sls, owner, keys, charges,
                                       record_path, track_upper)
                charges.flush()
        except (IndexError, ValueError) as exc:
            outs.append(type(exc))
            continue
        found, paths, upper, fallback, diag = res
        outs.append((found.tolist(),
                     None if paths is None else (paths.dtype,
                                                 paths.tolist()),
                     upper.tolist(), fallback, diag,
                     _tracer_state(tracer)))
    return outs


def _churned(kind, key_range):
    """A structure after an interleaved delete-heavy churn: zombies still
    linked on its chains, ragged levels for the descent to backtrack
    over."""
    w = generate(Mixture(50, 50, 0), key_range=key_range, n_ops=600, seed=3)
    sm = make_structure(kind, w, team_size=8, seed=0)
    InterleavedBackend(concurrency=16, seed=5).execute(
        sm, OpBatch.from_workload(w))
    return sm


@pytest.fixture(scope="module")
def churned():
    return {kind: _churned(kind, rng)
            for kind, rng in (("gfsl", 400), ("gfsl@4", 800))}


def _linked_zombies(sm):
    return sum(len(list(level_chain(sl, lv)))
               - len(list(level_chain(sl, lv, include_zombies=False)))
               for sl in getattr(sm, "shards", [sm])
               for lv in range(sl.layout.max_level))


@pytest.mark.parametrize("record_path", [False, True])
@pytest.mark.parametrize("track_upper", [False, True])
@pytest.mark.parametrize("kind", ["gfsl", "gfsl@4"])
def test_compacted_traversal_matches_oracle(churned, kind, record_path,
                                            track_upper, monkeypatch):
    sm = churned[kind]
    assert _linked_zombies(sm) > 0
    # Count the oracle's backtrack ballots (the only ones without the
    # max-field lane), so the sweep provably exercises backtracking.
    dsize = getattr(sm, "shards", [sm])[0].geo.dsize
    backtracks = []
    ballot = _highest_true_lane

    def counting(flags):
        if flags.shape[1] == dsize:
            backtracks.append(flags.shape[0])
        return ballot(flags)
    monkeypatch.setitem(globals(), "_highest_true_lane", counting)

    top = 400 if kind == "gfsl" else 800
    rng = np.random.default_rng(11)
    waves = [np.arange(1, top + 40, dtype=np.int64)]
    waves += [rng.choice(np.arange(1, top + 40), size=s, replace=False)
              for s in (1, 5, 32, 200)]
    for keys in waves:
        new, oracle = _run_both(sm, keys, record_path, track_upper)
        assert new == oracle
        assert new[4]["fallback_backtrack"] == 0
    assert sum(backtracks) > 0


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(["gfsl", "gfsl@4"]),
       record_path=st.booleans(), track_upper=st.booleans())
def test_fallbacks_match_oracle_on_corrupted_keys(churned, data, kind,
                                                  record_path, track_upper):
    """Corrupt key halves of chunks on the wave's own search paths
    (pointers stay intact).  Raising a chunk's data keys above the
    searched key makes a descent that reaches it straight from the level
    above restart, and one that stepped in laterally backtrack — and
    fail to when its previous chunk was raised too; lowering a chunk's
    max field makes the search step past it and backtrack into it.  Both
    traversals must fall back, and fail, identically.
    """
    sm = churned[kind]
    shards = getattr(sm, "shards", [sm])
    geo = shards[0].geo
    words = shards[0].ctx.mem.raw()
    saved = words.copy()
    top = 400 if kind == "gfsl" else 800
    # Keys with upper-level copies make a backtrack's presence test hit.
    upper_keys = sorted(k for sl in shards
                        for lv in range(1, structure_height(sl) + 1)
                        for k, _v in level_items(sl, lv))
    keys = np.unique(data.draw(st.lists(
        st.integers(1, top + 40) | st.sampled_from(upper_keys),
        min_size=1, max_size=48))).astype(np.int64)
    owner = (sm.routing.shard_of_array(keys) if len(shards) > 1
             else np.zeros(keys.size, dtype=np.int64))
    _found, paths = vector.search_multi(shards, owner, keys)
    try:
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, keys.size - 1))
            sl = shards[int(owner[i])]
            level = data.draw(st.integers(1, max(structure_height(sl), 1)))
            ptr = int(paths[i, level])
            mode = data.draw(st.sampled_from(["raise", "raise+prev",
                                              "lower-max"]))
            if mode == "lower-max":
                # The search steps past its own chunk and has to
                # backtrack into it (an upper-level hit when the key is
                # there).
                addr = sl.layout.chunk_addr(ptr) + geo.next_idx
                words[addr] = (words[addr] & ~np.uint64(C.MASK32)) \
                    | np.uint64(int(keys[i]) - 1)
                continue
            targets = [ptr]
            if mode == "raise+prev":
                chain = [p for p, _kvs in level_chain(sl, level)]
                if ptr in chain and chain.index(ptr) > 0:
                    targets.append(chain[chain.index(ptr) - 1])
            raised = int(keys[i]) + data.draw(st.integers(1, 3))
            for p in targets:
                addr = sl.layout.chunk_addr(p)
                row = words[addr: addr + geo.dsize]
                row[:] = (row & ~np.uint64(C.MASK32)) | np.uint64(raised)
        new, oracle = _run_both(sm, keys, record_path, track_upper)
        assert new == oracle
    finally:
        words[:] = saved


def test_stuck_traversal_falls_back():
    """A lateral self-loop: the traversal gives up after its step bound
    and hands the op to its generator, as the oracle does (not run here:
    its 100,000 full-width steps take seconds)."""
    w = generate(MIX_10_10_80, key_range=200, n_ops=10, seed=4)
    sl = make_structure("gfsl", w, team_size=8, seed=0)
    keys = np.asarray([150], dtype=np.int64)
    _found, paths = vector.vector_search(sl, keys)
    ptr = int(paths[0, 0])                  # key 150's enclosing chunk
    addr = sl.layout.chunk_addr(ptr) + sl.geo.next_idx
    words = sl.ctx.mem.raw()
    # max field 1 (every key lies beyond), next pointer: itself.
    words[addr] = np.uint64(1) | (np.uint64(ptr) << np.uint64(32))
    found, _paths, _upper, fallback, diag = vector._traverse(
        [sl], np.zeros(1, dtype=np.int64), keys, vector._Charges(None),
        record_path=True, track_upper=True)
    assert fallback == [0] and diag["fallback_stuck"] == 1
    assert not found[0]


def test_update_wave_charges_its_traversal_before_fallback_searches(
        monkeypatch):
    """The fallback searches charge the tracer themselves, so the
    lock-step traversal's reads must reach the LRUs before theirs."""
    w = generate(MIX_10_10_80, key_range=200, n_ops=10, seed=4)
    sl = make_structure("gfsl", w, team_size=8, seed=0)
    keys = np.arange(1, 201, 7, dtype=np.int64)
    _found, paths = vector.vector_search(sl, keys)
    # Raise the keys of key 50's level-1 path chunk and of its
    # predecessor above 50: its descent restarts or fails to backtrack.
    i = int(np.flatnonzero(keys == 50)[0])
    chain = [p for p, _kvs in level_chain(sl, 1)]
    at = chain.index(int(paths[i, 1]))
    words = sl.ctx.mem.raw()
    for p in chain[max(at - 1, 0): at + 1]:
        addr = sl.layout.chunk_addr(p)
        row = words[addr: addr + sl.geo.dsize]
        row[:] = (row & ~np.uint64(C.MASK32)) | np.uint64(51)

    twin = TransactionTracer(SMALL)
    charges = vector._Charges(twin)
    expected_fallback = vector._traverse([sl], np.zeros(keys.size, np.int64),
                                         keys, charges, True, True)[3]
    charges.flush()
    assert i in expected_fallback

    tracer = TransactionTracer(SMALL)
    seen = []

    def fallback_search(sls, owner, keys_, tracer_, fallback, found, paths_):
        seen.append((list(fallback), _tracer_state(tracer_)))
    monkeypatch.setattr(vector, "_search_fallback", fallback_search)
    ops = np.full(keys.size, 1, dtype=np.int64)       # inserts
    vector.update_wave([sl], None, ops, keys, keys, tracer)
    assert seen == [(expected_fallback, _tracer_state(twin))]
