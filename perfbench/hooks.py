"""Wrappers the benchmark installs around the program's public callables.

Two kinds of wrapper live here, both installed from the benchmark's own
files and removed again when a cell ends, so the program itself carries
no benchmark code:

* probes (:class:`Probes`) run in every cell, traced or not.  They only
  capture what the public entry points do not return: the structure a
  run built, set-up, replay and check times (through a
  :class:`HostClock`), the engine's per-op results and, on the serve
  path, each request's planned arrival.
* spans (:class:`SpanRecorder`) run only in traced cells.  Each wrapped
  call records one span: name, start, end, the span open when it was
  called (its parent) and the cell's run id.

A name bound by ``from ... import`` is a separate reference in the
module that imported it, so each binding is patched where it is called
(``execute_event`` in both ``repro.gpu.scheduler`` and
``repro.engine.vectorized``, for example).
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np


# ---------------------------------------------------------------------------
# Host clock
# ---------------------------------------------------------------------------

_CAL_RNG = np.random.default_rng(20261017)
_CAL_WORDS = _CAL_RNG.integers(0, 1 << 40, 1 << 19)      # 4 MB
_CAL_ROWS = [_CAL_RNG.integers(0, _CAL_WORDS.size, 64) for _ in range(64)]


def calibration_kernel() -> float:
    """Wall time of a fixed loop of small numpy calls, about 2 ms on a
    2-core container: gathers of 64 words from a 4 MB array, each sorted,
    searched and masked.  That is the pattern of the program's own work
    (a simulated device memory, touched a wave at a time), so a busy host
    slows the kernel about as much as it slows the program.  The kernel
    uses only numpy, never program code, so no program change can move
    it."""
    t0 = perf_counter()
    hits = 0
    for _ in range(4):
        for rows in _CAL_ROWS:
            words = _CAL_WORDS[rows]
            ordered = np.sort(words)
            hits += int(np.searchsorted(ordered, words[:8]).sum())
            hits += int(np.count_nonzero(words > (1 << 39)))
    return perf_counter() - t0


#: Wall time spent in calibration kernels so far.
_paused = [0.0]


def bench_clock() -> float:
    """``perf_counter()`` with every calibration kernel cut out.  Spans
    and host-clock calls read this clock, so a kernel run in the middle
    of a call adds nothing to that call's time."""
    return perf_counter() - _paused[0]


def _sample() -> float:
    t0 = perf_counter()
    kernel = calibration_kernel()
    _paused[0] += perf_counter() - t0
    return kernel


class HostClock:
    """Wall time rescaled to a reference host speed.

    On a shared host the speed of one core swings by up to 2x, for
    fractions of a second up to minutes, as other tenants come and go.
    A run that falls mostly in a fast or mostly in a slow stretch then
    moves a median of raw wall times by 25% or more.  So the host clock
    samples the host's speed with :func:`calibration_kernel` before and
    after each timed call, and inside it at :meth:`checkpoint` at most
    every ``EVERY_S`` of work.  Each stretch of wall time between two
    samples is scaled by ``REF_S / mean(the two kernel times)``: the
    time it would have taken on a host where the kernel takes
    ``REF_S``.  A change to the program moves the scaled time as it
    moves the wall time; a change in host speed moves both the program
    and the kernel.

    A sample taken less than ``FRESH_S`` of :func:`bench_clock` before
    a call starts serves as that call's first sample, so back-to-back
    calls share one.
    """

    REF_S = 0.002
    EVERY_S = 0.1
    FRESH_S = 0.02

    def __init__(self):
        self._kernel = None         # last kernel time
        self._mark = 0.0            # bench_clock() when it was taken
        self._scaled = 0.0          # scaled time of the open call so far
        self._open = False

    def _close_stretch(self, now: float) -> None:
        kernel = _sample()
        self._scaled += ((now - self._mark) * 2.0 * self.REF_S
                         / (self._kernel + kernel))
        self._kernel, self._mark = kernel, now

    def checkpoint(self) -> None:
        """Sample the host speed if a timed call is open and ``EVERY_S``
        has passed since the last sample."""
        if self._open:
            now = bench_clock()
            if now - self._mark >= self.EVERY_S:
                self._close_stretch(now)

    def timed(self, fn, *args, **kwargs):
        """``(fn(...), wall seconds, scaled seconds)``."""
        if self._kernel is None or bench_clock() - self._mark >= self.FRESH_S:
            self._kernel = _sample()
        self._scaled = 0.0
        self._open = True
        t0 = self._mark = bench_clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            self._open = False
        end = bench_clock()
        self._close_stretch(end)
        return out, end - t0, self._scaled


#: Public callables inside long timed calls where the host clock may
#: take a sample: one per wave, shard build, flush, scheduler run or
#: validated level.
CHECKPOINTS = (
    "repro.core.vector:contains_multi",
    "repro.core.vector:update_wave",
    "repro.engine.vectorized:run_wave_generators",
    "repro.engine.interface:bulk_build_into",
    "repro.engine.interface:warm_structure",
    "repro.gpu.scheduler:InterleavingScheduler.run",
    "repro.shard.sharded:ShardedMap.execute_batch",
    "repro.core.gfsl:GFSL.execute_batch",
    "repro.core.validate:level_items",
)


class Patches:
    """Set attributes on modules/classes and restore them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make):
        """Replace ``target`` ("pkg.module:attr" or
        "pkg.module:Class.attr") with ``make(original)``."""
        mod_name, _, path = target.partition(":")
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# Probes (every cell)
# ---------------------------------------------------------------------------

class Probes:
    """What one cell captures besides the entry point's return value."""

    def __init__(self):
        self.clock = HostClock()
        self.structure = None
        # Scaled and raw wall times (see HostClock) of each timed call.
        self.setup_s: list[float] = []
        self.host_s: list[float] = []
        self.verify_s: list[float] = []
        self.wall = {"setup_s": 0.0, "host_s": 0.0, "verify_s": 0.0}
        self.executions: list[tuple] = []     # (backend, batch, BatchResult)
        self.lin_report = None
        # serve: planned-arrival timing
        self.lateness: list[int] = []
        self.planned_latency: list[int] = []
        self.submit_latency: list[int] = []
        self._pending: dict[int, tuple] = {}

    def timed(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` on the host clock; file its time under ``kind``
        (``setup_s``, ``host_s`` or ``verify_s``)."""
        out, wall, scaled = self.clock.timed(fn, *args, **kwargs)
        getattr(self, kind).append(scaled)
        self.wall[kind] += wall
        return out

    def install_checkpoints(self, patches: Patches) -> None:
        for target in CHECKPOINTS:
            patches.wrap(target, self._checkpointed)

    def _checkpointed(self, fn):
        checkpoint = self.clock.checkpoint

        def call(*args, **kwargs):
            checkpoint()
            return fn(*args, **kwargs)
        return call

    def _timer(self, kind: str):
        def make(fn):
            def timed(*args, **kwargs):
                return self.timed(kind, fn, *args, **kwargs)
            return timed
        return make

    # -- replay -----------------------------------------------------------
    # Install probes after any span recorder, so that the calibration
    # kernel runs outside every span.
    def install_replay(self, patches: Patches) -> None:
        self.install_checkpoints(patches)
        patches.wrap("repro.workloads.runner:make_structure",
                     self._timed_build)
        self._capture_backends(patches, timed=True)

    def _capture_backends(self, patches: Patches, timed: bool) -> None:
        for cls in ("repro.engine.vectorized:VectorizedBackend",
                    "repro.engine.backends:InterleavedBackend"):
            patches.wrap(cls + ".execute",
                         lambda fn: self._capture_execute(fn, timed))

    def _timed_build(self, fn):
        def build(*args, **kwargs):
            st = self.timed("setup_s", fn, *args, **kwargs)
            self.structure = st
            return st
        return build

    def _capture_execute(self, fn, timed: bool):
        def execute(backend, structure, batch):
            if timed:
                out = self.timed("host_s", fn, backend, structure, batch)
            else:
                out = fn(backend, structure, batch)
            self.executions.append((backend, batch, out))
            return out
        return execute

    # -- serve ------------------------------------------------------------
    def install_serve(self, patches: Patches, deadline_steps: int) -> None:
        self.install_checkpoints(patches)
        patches.wrap("repro.serve.bench:make_structure", self._timed_build)
        patches.wrap("repro.serve.aio:VirtualLoop.run_until_complete",
                     self._timer("host_s"))
        patches.wrap("repro.serve.bench:check_history", self._timed_check)
        patches.wrap("repro.serve.bench:validate_structure",
                     self._timer("verify_s"))
        patches.wrap("repro.serve.frontend:ServeFrontend.submit",
                     lambda fn: self._planned_submit(fn, deadline_steps))
        patches.wrap("repro.serve.aio:Future.set_result",
                     self._stamped_result)
        self._capture_backends(patches, timed=False)

    def _timed_check(self, fn):
        def check(*args, **kwargs):
            rep = self.timed("verify_s", fn, *args, **kwargs)
            self.lin_report = rep
            return rep
        return check

    def _planned_submit(self, fn, deadline_steps: int):
        """Time each request from its planned arrival, not from when
        ``submit`` ran: a client held up by backpressure submits its
        later requests late, and that wait belongs in the latency."""
        from repro.serve.request import RANGE

        async def submit(frontend, req):
            planned = req.deadline - deadline_steps
            self.lateness.append(frontend.loop.now - planned)
            fut = await fn(frontend, req)
            if req.kind != RANGE and not fut.done():
                # Holding the future keeps its id unique until it resolves.
                self._pending[id(fut)] = (fut, req, planned)
            return fut
        return submit

    def _stamped_result(self, fn):
        # Stamp completions when the future resolves: done-callbacks run
        # later, after other flushes may have moved the virtual clock.
        def set_result(fut, value):
            entry = self._pending.pop(id(fut), None)
            if entry is not None:
                _, req, planned = entry
                now = fut.loop.now
                self.planned_latency.append(now - planned)
                self.submit_latency.append(now - req.submit_step)
            return fn(fut, value)
        return set_result


# ---------------------------------------------------------------------------
# Spans (traced cells only)
# ---------------------------------------------------------------------------

#: span name -> the callables it wraps.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "engine.replay": ("repro.engine.vectorized:VectorizedBackend.execute",
                      "repro.engine.backends:InterleavedBackend.execute"),
    "engine.plan_waves": ("repro.engine.vectorized:plan_waves",),
    "engine.wave_generators": ("repro.engine.vectorized:run_wave_generators",),
    "core.update_wave": ("repro.core.vector:update_wave",),
    "core.contains_multi": ("repro.core.vector:contains_multi",),
    "core.bulk_build": ("repro.engine.interface:bulk_build_into",),
    "core.warm": ("repro.engine.interface:warm_structure",),
    "core.validate": ("repro.core:validate_structure",
                      "repro.serve.bench:validate_structure"),
    "gpu.access_words_batch": (
        "repro.gpu.tracer:TransactionTracer.access_words_batch",),
    "gpu.l2_access_many": ("repro.gpu.cache:L2Cache.access_many",),
    "gpu.scheduler_run": ("repro.gpu.scheduler:InterleavingScheduler.run",),
    "gpu.execute_event": ("repro.gpu.scheduler:execute_event",
                          "repro.engine.vectorized:execute_event"),
    "gpu.access_words": ("repro.gpu.tracer:TransactionTracer.access_words",),
    "shard.plan_waves": ("repro.shard.sharded:ShardedMap.plan_waves",),
    "shard.route.scalar": ("repro.shard.routing:RoutingTable.shard_of",),
    "shard.route.array": ("repro.shard.routing:RoutingTable.shard_of_array",),
    "serve.loop": ("repro.serve.aio:VirtualLoop.run_until_complete",),
    "serve.execute_batch": ("repro.shard.sharded:ShardedMap.execute_batch",
                            "repro.core.gfsl:GFSL.execute_batch"),
    "serve.controller_tick": (
        "repro.serve.controller:ElasticityController.tick",),
    "chaos.check_history": ("repro.serve.bench:check_history",),
}


class SpanRecorder:
    """In-memory span store: parallel arrays, one row per call."""

    def __init__(self):
        self.names: list[str] = list(SPAN_TARGETS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        # update_wave rows: offered / resolved by the batched path.
        self.update_rows = 0
        self.update_handled = 0

    def _span(self, nid: int, fn):
        name, start, end = self.name, self.start, self.end
        parent, run, stack = self.parent, self.run, self._stack

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = bench_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = bench_clock()
                start[idx] = t0
                stack.pop()
        return wrapper

    def _counted_update_wave(self, fn):
        def update_wave(sls, owner, ops, *args, **kwargs):
            out = fn(sls, owner, ops, *args, **kwargs)
            self.update_rows += int(np.asarray(ops).size)
            self.update_handled += int(np.count_nonzero(out[1]))
            return out
        return update_wave

    def install(self, patches: Patches) -> None:
        patches.wrap("repro.core.vector:update_wave",
                     self._counted_update_wave)
        for name, targets in SPAN_TARGETS.items():
            nid = self._ids[name]
            for target in targets:
                patches.wrap(target, lambda fn, nid=nid: self._span(nid, fn))

    # -- reduction ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "run": np.frombuffer(self.run, dtype=np.int32)}

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name, for one run id: ``calls``; ``s``, the time of
        calls not nested in a call of the same name; and ``self_s``, the
        duration minus the time direct child spans cover."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        par = a["parent"]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        parent_name = np.where(has_parent, a["name"][np.maximum(par, 0)], -1)
        sel = a["run"] == run_id
        out = {}
        for nid, name in enumerate(self.names):
            m = sel & (a["name"] == nid)
            top = m & (parent_name != nid)
            out[name] = {"calls": int(np.count_nonzero(m)),
                         "s": float(dur[top].sum()),
                         "self_s": float(self_t[m].sum())}
        # A scalar route lookup on a migrated generation calls the array
        # lookup: count array calls made directly, time each lookup once.
        route_ids = (self._ids["shard.route.scalar"],
                     self._ids["shard.route.array"])
        route = sel & np.isin(a["name"], route_ids)
        outer = route & ~np.isin(parent_name, route_ids)
        out["shard.route"] = {"calls": int(np.count_nonzero(outer)),
                              "s": float(dur[outer].sum()), "self_s": 0.0}
        arr_direct = outer & (a["name"] == route_ids[1])
        out["shard.route.array"]["calls"] = int(np.count_nonzero(arr_direct))
        return out

    def write(self, path) -> None:
        """Write every recorded span once, at the end of the run."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())
