"""Tests for the vectorized update critical sections
(:func:`repro.core.vector.update_wave`) and their conflict-group
partitioner.

The contract under test (DESIGN.md §12): a wave's updates are batched
only when the quiescent snapshot proves no schedule could lock-conflict,
split, merge, or touch an upper level — and then the batched execution
is *byte-identical* to sequential replay.  Every adversarial wave (all
ops on one chunk, split-triggering inserts, delete of a raised key,
merge-triggering deletes) must take the generator fallback and still
produce sequential results.  The per-cluster loop that preceded the
segmented cluster kernel is kept here as an oracle, and every
observable of the kernel is compared against it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import constants as C
from repro.core import vector
from repro.core.chunk import ChunkGeometry, pack_next
from repro.engine import OpBatch, make_backend, make_structure
from repro.engine.batch import OP_DELETE, OP_INSERT
from repro.metrics.counters import MetricsCollector
from repro.workloads import MIX_10_10_80, generate
from repro.workloads.generator import Workload


def _twin(workload, **kwargs):
    """Two structures built identically (the simulator is pure)."""
    return (make_structure("gfsl", workload, seed=0, **kwargs),
            make_structure("gfsl", workload, seed=0, **kwargs))


def _insert_only_workload(keys, key_range, prefill=()):
    keys = np.asarray(keys, dtype=np.int64)
    return Workload(key_range=key_range, mixture=MIX_10_10_80,
                    prefill=np.asarray(prefill, dtype=np.int64),
                    ops=np.full(keys.size, OP_INSERT, dtype=np.int64),
                    keys=keys,
                    values=np.arange(1, keys.size + 1, dtype=np.int64))


class TestFastPath:
    def test_spread_wave_batches_and_matches_sequential_bytes(self):
        """A wave of distinct-key updates spread across chunks batches
        fully — and because eligibility proves no split/merge/upper-level
        touch, the batched memory image is byte-identical to sequential
        replay of the same ops."""
        w = generate(MIX_10_10_80, key_range=4_000, n_ops=10, seed=3)
        st_v, st_s = _twin(w)
        present = sorted(st_v.keys())
        absent = [k for k in range(1, 4_001) if k not in set(present)]
        # Few ops per chunk: sparse inserts + sparse deletes, all spread.
        ins = absent[::97][:12]
        dels = present[::131][:8]
        keys = np.array(ins + dels, dtype=np.int64)
        ops = np.array([OP_INSERT] * len(ins) + [OP_DELETE] * len(dels),
                       dtype=np.int64)
        vals = np.arange(1, keys.size + 1, dtype=np.int64)

        res, handled, found, paths = st_v.vector_update_wave(
            ops, keys, vals, tracer=None)
        diag = vector.last_call_diag
        assert bool(handled.all()), "spread wave must batch fully"
        assert diag["batched"] == keys.size
        assert diag["fallback_conflict"] == 0
        assert bool(res.all())          # all inserts new, all deletes hit

        for op, k, v in zip(ops.tolist(), keys.tolist(), vals.tolist()):
            if op == OP_INSERT:
                assert st_s.ctx.run(st_s.insert_gen(int(k), int(v)))
            else:
                assert st_s.ctx.run(st_s.delete_gen(int(k)))
        assert np.array_equal(st_v.ctx.mem.raw(), st_s.ctx.mem.raw()), \
            "batched critical sections diverge from sequential bytes"
        assert st_v.op_stats.inserts == st_s.op_stats.inserts
        assert st_v.op_stats.deletes == st_s.op_stats.deletes

    def test_trivial_outcomes_resolved_without_batching(self):
        w = generate(MIX_10_10_80, key_range=1_000, n_ops=10, seed=3)
        st, _ = _twin(w)
        present = sorted(st.keys())
        absent = next(k for k in range(1, 1_001) if k not in set(present))
        keys = np.array([present[0], absent], dtype=np.int64)
        ops = np.array([OP_INSERT, OP_DELETE], dtype=np.int64)
        st.op_stats.reset()
        res, handled, _f, _p = st.vector_update_wave(
            ops, keys, np.ones(2, dtype=np.int64), tracer=None)
        assert bool(handled.all())
        assert not bool(res.any())      # insert-of-present / delete-of-absent
        assert vector.last_call_diag["batched"] == 0
        assert st.op_stats.inserts == 0 and st.op_stats.deletes == 0


class TestAdversarialWaves:
    def test_split_triggering_inserts_fall_back_byte_identical(self):
        """All inserts landing in one chunk with more keys than fit: no
        schedule can avoid the split, so the whole cluster must take the
        generator path — and (insert-only ⇒ zombie-free) end up
        byte-identical to the sequential backend."""
        n = 12   # team 8 → dsize 6: any 7+ inserts on one chunk overflow
        w = _insert_only_workload(range(100, 100 + n), key_range=4_096)
        st_v, st_s = _twin(w, team_size=8)

        res_v = make_backend("vectorized").execute(
            st_v, OpBatch.from_workload(w))
        diag = vector.last_call_diag
        assert diag["batched"] == 0
        assert diag["fallback_conflict"] > 0
        res_s = make_backend("sequential").execute(
            st_s, OpBatch.from_workload(w))
        assert res_v.results == res_s.results
        assert st_v.op_stats.splits == st_s.op_stats.splits > 0
        assert np.array_equal(st_v.ctx.mem.raw(), st_s.ctx.mem.raw()), \
            "fallback replay diverges from sequential bytes"

    def test_delete_of_raised_key_falls_back(self):
        """With p_chunk=1 every split raises its key to the next level;
        deleting that key requires the top-down level sweep, so the
        vectorized wave must hand it to the generator."""
        w = _insert_only_workload([], key_range=4_096)
        st, _ = _twin(w, team_size=8)
        raised = None
        for k in range(10, 200):
            before = st.op_stats.splits
            assert st.ctx.run(st.insert_gen(k, 1))
            if st.op_stats.splits > before:
                raised = k              # split inserts raise k itself
                break
        assert raised is not None, "no split in 190 inserts?"

        keys = np.array([raised], dtype=np.int64)
        res, handled, found, paths = st.vector_update_wave(
            np.array([OP_DELETE], dtype=np.int64), keys,
            np.zeros(1, dtype=np.int64), tracer=None)
        assert not bool(handled[0]), "upper-level delete must fall back"
        assert vector.last_call_diag["fallback_conflict"] == 1
        assert bool(found[0])
        hint = (bool(found[0]), paths[0].tolist())
        assert st.ctx.run(st.delete_gen(int(raised), hint=hint))
        assert not st.contains(int(raised))

    def test_merge_triggering_deletes_fall_back(self):
        """Deleting enough keys of one chunk to cross the merge
        threshold: some schedule merges, so the cluster is ineligible."""
        w = generate(MIX_10_10_80, key_range=2_000, n_ops=10, seed=9)
        st_v, st_s = _twin(w, team_size=8)
        present = np.array(sorted(st_v.keys()), dtype=np.int64)
        _f, paths = st_v.vector_search(present, tracer=None)
        bottoms, counts = np.unique(paths[:, 0], return_counts=True)
        target = bottoms[np.argmax(counts)]
        doomed = present[paths[:, 0] == target][:5]   # dsize 6: 5 deletes
        assert doomed.size >= 4                       # always cross dsize/3

        ops = np.full(doomed.size, OP_DELETE, dtype=np.int64)
        res, handled, found, paths = st_v.vector_update_wave(
            ops, doomed, np.zeros(doomed.size, dtype=np.int64),
            tracer=None)
        unhandled = ~handled
        assert bool(unhandled.any()), "merge-bound cluster must fall back"
        for i in np.nonzero(unhandled)[0].tolist():
            hint = (bool(found[i]), paths[i].tolist())
            st_v.ctx.run(st_v.delete_gen(int(doomed[i]), hint=hint))
        for k in doomed.tolist():
            assert st_s.ctx.run(st_s.delete_gen(int(k)))
        assert st_v.keys() == st_s.keys()
        assert st_v.items() == st_s.items()


class TestDiagnostics:
    def test_per_call_diag_is_fresh_data(self):
        """Each kernel call returns its own diagnostics object; the
        module alias is a snapshot of the latest call, so concurrent or
        sharded kernel calls can never clobber a caller's numbers."""
        w = generate(MIX_10_10_80, key_range=1_000, n_ops=10, seed=5)
        st, _ = _twin(w)
        vector.vector_contains(st, np.arange(1, 33, dtype=np.int64))
        d1 = vector.last_call_diag
        vector.vector_contains(st, np.arange(1, 9, dtype=np.int64))
        d2 = vector.last_call_diag
        assert d1 is not d2
        assert d1["ops"] == 32 and d2["ops"] == 64 - 56
        d2["ops"] = -1                   # caller mutation stays local
        vector.vector_contains(st, np.arange(1, 2, dtype=np.int64))
        assert vector.last_call_diag["ops"] == 1
        assert d1["ops"] == 32

    def test_update_wave_diag_keys(self):
        w = generate(MIX_10_10_80, key_range=1_000, n_ops=10, seed=5)
        st, _ = _twin(w)
        absent = next(k for k in range(1, 1_001)
                      if k not in set(st.keys()))
        st.vector_update_wave(np.array([OP_INSERT], dtype=np.int64),
                              np.array([absent], dtype=np.int64),
                              np.array([1], dtype=np.int64))
        diag = vector.last_call_diag
        for key in ("ops", "fallback_backtrack", "fallback_restart",
                    "fallback_stuck", "batched", "fallback_conflict"):
            assert key in diag
        assert diag["ops"] == 1 and diag["batched"] == 1


@pytest.mark.parametrize("shards", [1, 4])
def test_sharded_update_wave_matches_sequential(shards):
    """The fused cross-shard dispatch preserves the differential
    contract at every shard count."""
    w = generate(MIX_10_10_80, key_range=2_048, n_ops=400, seed=13)
    kw = {} if shards == 1 else {"shards": shards}
    st_s = make_structure("gfsl", w, seed=0, **kw)
    res_s = make_backend("sequential").execute(st_s, OpBatch.from_workload(w))
    st_v = make_structure("gfsl", w, seed=0, **kw)
    res_v = make_backend("vectorized").execute(st_v, OpBatch.from_workload(w))
    assert res_v.results == res_s.results
    assert st_v.keys() == st_s.keys()
    assert st_v.items() == st_s.items()


# ---------------------------------------------------------------------------
# Oracle differential: the segmented cluster kernel against the
# per-cluster loop it replaced
# ---------------------------------------------------------------------------

def _oracle_batchable(geo, W, op_sel, key_sel, mask32):
    """Decide whether one target chunk's operation group can be executed
    batched under every sequential schedule.  Returns the live entries
    on success, None on any hazard (the conflict-group contract of
    DESIGN.md §12)."""
    if int(W[geo.lock_idx]) != C.UNLOCKED:      # locked or zombie
        return None
    dk = (W[: geo.dsize] & mask32).astype(np.int64)
    live = dk != C.EMPTY_KEY
    if not bool(((dk != C.EMPTY_KEY) & (dk != C.NEG_INF_KEY)).any()):
        return None                             # head-counter discipline
    nlive = int(np.count_nonzero(live))
    ins = op_sel == OP_INSERT
    n_ins = int(np.count_nonzero(ins))
    n_del = int(op_sel.size) - n_ins
    if nlive + n_ins > geo.dsize:               # a schedule could split
        return None
    if nlive - n_del <= geo.merge_threshold:    # a schedule could merge
        return None
    maxf = int(W[geo.next_idx] & mask32)
    if bool((key_sel > maxf).any()):            # stale enclosure hint
        return None
    dk_live = dk[live]
    ins_present = np.isin(key_sel[ins], dk_live)
    del_absent = ~np.isin(key_sel[~ins], dk_live)
    if bool(ins_present.any()) or bool(del_absent.any()):
        return None                             # stale presence hint
    if n_ins and bool((key_sel[~ins] == maxf).any()):
        return None            # boundary-delete + insert: order-sensitive
    return W[: geo.dsize][live]


def _oracle_chunk_image(geo, entries, op_sel, key_sel, val_sel, maxf: int,
                        nxt: int, mask32) -> np.ndarray:
    """The chunk's published word image after applying the group: live
    entries minus deletes plus inserts, sorted, EMPTY-padded, boundary
    lowered to the highest remaining key iff the boundary key was
    deleted, lock released."""
    ins = op_sel == OP_INSERT
    del_keys = key_sel[~ins]
    ekeys = (entries & mask32).astype(np.int64)
    kept = entries[~np.isin(ekeys, del_keys)]
    if ins.any():
        new = (key_sel[ins].astype(np.uint64)
               | (val_sel[ins].astype(np.uint64) << np.uint64(32)))
        kept = np.concatenate([kept, new])
    kept = kept[np.argsort((kept & mask32).astype(np.int64),
                           kind="stable")]
    img = np.full(geo.n, np.uint64(C.EMPTY_KV), dtype=np.uint64)
    img[: kept.size] = kept
    if bool((del_keys == maxf).any()):
        maxf = int((kept[-1] & mask32))
    img[geo.next_idx] = np.uint64(pack_next(maxf, nxt))
    img[geo.lock_idx] = np.uint64(C.UNLOCKED)
    return img


def _oracle_batch_clusters(geo, words, chunk_bases, owner, ops, keys,
                           values, idx, tgt):
    """One Python iteration per target chunk: the loop ``update_wave``
    ran before the segmented kernel, returning the same
    ``(batched, shard, addrs, images)`` as
    :func:`repro.core.vector._batch_clusters`."""
    mask32 = np.uint64(C.MASK32)
    n = geo.n
    batched: list[int] = []
    shards: list[int] = []
    batched_addrs: list[int] = []
    images: list[np.ndarray] = []
    cluster = owner[idx] * np.int64(2**32) + tgt
    for cid in np.unique(cluster):
        in_cluster = cluster == cid
        sel = idx[in_cluster]
        si = int(owner[sel[0]])
        addr = int(chunk_bases[si] + tgt[in_cluster][0] * n)
        W = words[addr: addr + n]
        op_sel, key_sel = ops[sel], keys[sel]
        entries = _oracle_batchable(geo, W, op_sel, key_sel, mask32)
        if entries is None:
            continue
        maxf = int(W[geo.next_idx] & mask32)
        nxt = int(W[geo.next_idx] >> np.uint64(32))
        images.append(_oracle_chunk_image(geo, entries, op_sel, key_sel,
                                          values[sel], maxf, nxt, mask32))
        batched_addrs.append(addr)
        batched.extend(sel.tolist())
        shards.append(si)
    return (np.sort(np.asarray(batched, dtype=np.int64)),
            np.asarray(shards, dtype=np.int64),
            np.asarray(batched_addrs, dtype=np.int64),
            np.stack(images) if images
            else np.zeros((0, n), dtype=np.uint64))


# -- synthetic chunk memory --------------------------------------------------

_MAX_KEY = 40     # a small key space, so op keys collide with chunk keys


@st.composite
def _chunk(draw, geo):
    """One chunk's words plus its user keys and max field: a plain chunk,
    a head chunk (NEG_INF first entry, possibly with no user keys), or
    an empty one; lock word unlocked, locked or zombie."""
    kind = draw(st.sampled_from(["plain"] * 4 + ["head", "head_only",
                                                "empty"]))
    head = kind in ("head", "head_only")
    room = 0 if kind in ("head_only", "empty") else geo.dsize - head
    user = sorted(draw(st.sets(st.integers(1, _MAX_KEY),
                               min_size=min(room, 1), max_size=room)))
    entries = [C.NEG_INF_KEY] * head + user
    row = np.full(geo.n, np.uint64(C.EMPTY_KV), dtype=np.uint64)
    for j, k in enumerate(entries):
        row[j] = np.uint64(C.pack_kv(k, draw(st.integers(0, 99))))
    top = entries[-1] if entries else 0
    maxf = draw(st.one_of(st.just(top), st.integers(top, _MAX_KEY + 1),
                          st.just(C.EMPTY_KEY)))
    row[geo.next_idx] = np.uint64(pack_next(maxf, draw(st.integers(0, 9))))
    row[geo.lock_idx] = np.uint64(draw(st.sampled_from(
        [C.UNLOCKED] * 4 + [C.LOCKED, C.ZOMBIE])))
    return row, user, maxf


@st.composite
def _cluster_inputs(draw):
    """The inputs of ``_batch_clusters``: 1 or 3 shards of 1–3 chunks
    each (so shards share local chunk indexes), and a wave of distinct
    keys aimed at them — deletes of present keys, inserts under the max
    field, boundary-key deletes and arbitrary (stale) keys — of which a
    random subset are candidates."""
    geo = ChunkGeometry(draw(st.sampled_from([5, 8])))
    S = draw(st.sampled_from([1, 3]))
    n_chunks = draw(st.integers(1, 3))
    n = geo.n
    chunk_bases = np.arange(S, dtype=np.int64) * ((n_chunks + 1) * n) + n
    words = np.zeros(int(chunk_bases[-1]) + (n_chunks + 1) * n,
                     dtype=np.uint64)
    content = {}
    for s in range(S):
        for c in range(n_chunks):
            a = int(chunk_bases[s]) + c * n
            words[a: a + n], *content[s, c] = draw(_chunk(geo))
    owner, tgt, ops, keys = [], [], [], []
    for _ in range(draw(st.integers(0, 16))):
        s = draw(st.integers(0, S - 1))
        c = draw(st.integers(0, n_chunks - 1))
        user, maxf = content[s, c]
        how = draw(st.sampled_from(["delete", "insert", "boundary", "any"]))
        op = OP_INSERT if how == "insert" else OP_DELETE
        if how == "delete" and user:
            key = draw(st.sampled_from(user))
        elif how == "insert":
            key = draw(st.integers(1, max(1, min(maxf, _MAX_KEY))))
        elif how == "boundary":
            key = maxf
        else:
            key = draw(st.integers(1, _MAX_KEY + 1))
            op = draw(st.sampled_from([OP_INSERT, OP_DELETE]))
        if key in keys or not C.MIN_USER_KEY <= key <= _MAX_KEY + 1:
            continue
        owner.append(s)
        tgt.append(c)
        ops.append(op)
        keys.append(key)
    m = len(keys)
    cand = np.asarray(draw(st.lists(st.sampled_from([True] * 3 + [False]),
                                    min_size=m, max_size=m)), dtype=bool)
    idx = np.nonzero(cand)[0] if m else np.zeros(0, dtype=np.int64)
    values = np.arange(100, 100 + m, dtype=np.int64)
    return (geo, words, chunk_bases, np.asarray(owner, dtype=np.int64),
            np.asarray(ops, dtype=np.int64),
            np.asarray(keys, dtype=np.int64), values, idx,
            np.asarray(tgt, dtype=np.int64)[idx] if m
            else np.zeros(0, dtype=np.int64))


@settings(max_examples=400, deadline=None)
@given(_cluster_inputs())
def test_batch_clusters_matches_per_cluster_oracle(inputs):
    """Eligibility, batched ops, address order and every image agree
    with the per-cluster loop on adversarial synthetic chunks — and the
    kernel only reads memory."""
    words = inputs[1]
    before = words.copy()
    got = vector._batch_clusters(*inputs)
    want = _oracle_batch_clusters(*inputs)
    assert np.array_equal(words, before)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


# -- whole-kernel differential on real structures ---------------------------

def _instances(st_):
    return getattr(st_, "shards", [st_])


def _chunk_of(st_, key):
    """``(instance, chunk address)`` of the bottom chunk enclosing
    ``key``."""
    inst = st_.shard_for(key) if hasattr(st_, "shard_for") else st_
    _f, paths = vector.vector_search(inst, np.array([key], dtype=np.int64))
    return inst, inst.layout.chunks_base + int(paths[0, 0]) * inst.geo.n


def _assert_update_wave_matches_oracle(make, ops, keys, lock_keys=()):
    """Run ``vector_update_wave`` on twin structures, once with the
    segmented kernel and once with the oracle loop; every observable
    must agree.  ``lock_keys`` names keys whose bottom chunk is locked
    in both twins first."""
    ops = np.asarray(ops, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    vals = np.arange(1, keys.size + 1, dtype=np.int64)
    runs = []
    for oracle in (False, True):
        st_ = make()
        for k in lock_keys:
            inst, addr = _chunk_of(st_, int(k))
            st_.ctx.mem.raw()[addr + inst.geo.lock_idx] = np.uint64(C.LOCKED)
        st_.metrics = MetricsCollector()
        st_.ctx.tracer.reset_stats()
        if oracle:
            with mock.patch.object(vector, "_batch_clusters",
                                   _oracle_batch_clusters):
                out = st_.vector_update_wave(ops, keys, vals,
                                             tracer=st_.ctx.tracer)
        else:
            out = st_.vector_update_wave(ops, keys, vals,
                                         tracer=st_.ctx.tracer)
        runs.append((st_, out, vector.last_call_diag))
    (a, out_a, diag_a), (b, out_b, diag_b) = runs
    for x, y in zip(out_a, out_b):       # results, handled, found, paths
        assert np.array_equal(x, y)
    assert np.array_equal(a.ctx.mem.raw(), b.ctx.mem.raw())
    assert a.ctx.tracer.stats == b.ctx.tracer.stats
    for ia, ib in zip(_instances(a), _instances(b)):
        assert ia.op_stats == ib.op_stats
        assert ia.metrics.as_dict() == ib.metrics.as_dict()
    assert diag_a == diag_b
    return out_a, diag_a


def _maker(shards, seed=3, key_range=300, team_size=8):
    w = generate(MIX_10_10_80, key_range=key_range, n_ops=10, seed=seed)
    kw = {} if shards == 1 else {"shards": shards}
    return lambda: make_structure("gfsl", w, seed=0, team_size=team_size,
                                  **kw)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shards=st.sampled_from([1, 3]),
       seed=st.integers(0, 3))
def test_update_wave_matches_per_cluster_oracle(data, shards, seed):
    """Waves of distinct keys packed into a few narrow key windows (many
    ops per chunk: splits, merges, boundary deletes, trivial outcomes),
    some with locked target chunks, on 1 and 3 shards."""
    make = _maker(shards, seed=seed)
    present = set(make().keys())
    windows = data.draw(st.lists(st.integers(1, 280), min_size=1,
                                 max_size=3))
    pool = sorted({k for lo in windows for k in range(lo, lo + 20)})
    keys = data.draw(st.lists(st.sampled_from(pool), unique=True,
                              max_size=24))
    # Mostly non-trivial ops (insert absent / delete present) with some
    # trivial ones mixed in.
    ops = [data.draw(st.sampled_from(
        [OP_DELETE if k in present else OP_INSERT] * 3
        + [OP_INSERT, OP_DELETE])) for k in keys]
    lock_keys = data.draw(st.lists(st.sampled_from(pool), max_size=2))
    _assert_update_wave_matches_oracle(make, ops, keys, lock_keys)


@pytest.mark.parametrize("shards", [1, 3])
def test_all_trivial_wave_matches_oracle(shards):
    """No candidates at all (G = 0): every op is trivially false."""
    make = _maker(shards)
    present = sorted(make().keys())
    absent = [k for k in range(1, 301) if k not in set(present)]
    keys = present[:5] + absent[:5]
    ops = [OP_INSERT] * 5 + [OP_DELETE] * 5
    (res, handled, _f, _p), diag = _assert_update_wave_matches_oracle(
        make, ops, keys)
    assert bool(handled.all()) and not bool(res.any())
    assert diag["batched"] == 0


def _fullest_chunk(st_):
    """The keys of the bottom chunk holding the most keys, and the
    absent keys between its predecessor's last key and its own."""
    present = np.array(sorted(st_.keys()), dtype=np.int64)
    _f, paths = vector.vector_search(st_, present)
    bottoms, counts = np.unique(paths[:, 0], return_counts=True)
    target = bottoms[np.argmax(counts)]
    live = present[paths[:, 0] == target]
    lo = int(present[present < live[0]][-1]) + 1 \
        if bool((present < live[0]).any()) else 1
    hi = int(live[-1])
    holes = [k for k in range(lo, hi) if k not in set(live.tolist())]
    return live.tolist(), holes


@pytest.mark.parametrize("extra", [0, 1])
def test_split_bound_exact(extra):
    """``nlive + n_ins == dsize`` batches; one more insert falls back."""
    make = _maker(1, key_range=2_000)
    st_ = make()
    live, holes = _fullest_chunk(st_)
    n_ins = st_.geo.dsize - len(live) + extra
    assert 1 <= n_ins <= len(holes)
    keys = holes[:n_ins]
    (_r, handled, _f, _p), diag = _assert_update_wave_matches_oracle(
        make, [OP_INSERT] * n_ins, keys)
    assert bool(handled.all()) == (extra == 0)
    assert diag["batched"] == (n_ins if extra == 0 else 0)


@pytest.mark.parametrize("extra", [0, 1])
def test_merge_bound_exact(extra):
    """``nlive − n_del == merge_threshold + 1`` batches; one more delete
    falls back.  The boundary key is spared so only the bound decides."""
    make = _maker(1, key_range=2_000)
    st_ = make()
    live, _holes = _fullest_chunk(st_)
    n_del = len(live) - st_.geo.merge_threshold - 1 + extra
    assert 1 <= n_del < len(live)
    keys = live[:n_del]
    (_r, handled, _f, _p), diag = _assert_update_wave_matches_oracle(
        make, [OP_DELETE] * n_del, keys)
    assert bool(handled.all()) == (extra == 0)


@pytest.mark.parametrize("with_insert", [False, True])
def test_boundary_delete_alone_and_with_insert(with_insert):
    """Deleting a chunk's max key batches (the boundary drops to the
    highest kept key) unless an insert shares the cluster."""
    make = _maker(1, key_range=2_000)
    st_ = make()
    live, holes = _fullest_chunk(st_)
    keys, ops = [live[-1]], [OP_DELETE]
    if with_insert:
        keys.append(holes[0])
        ops.append(OP_INSERT)
    (_r, handled, _f, _p), _diag = _assert_update_wave_matches_oracle(
        make, ops, keys)
    assert bool(handled.all()) != with_insert
