"""The four benchmark workloads, with every behaviour-relevant flag pinned.

A workload run is made of *parts*: each part generates its inputs from a
sub-seed, makes one call into the program's public entry point
(``run_workload`` or ``run_serve_campaign``), runs the program's own
checks and the benchmark's independent output checks.  A part returns
host timings, which vary from run to run, and a fingerprint, which must
not.  A replay workload has one part per seed; ``serve-elastic`` has
several short campaigns, because one campaign's latencies and check
time swing too far from seed to seed to compare two commits by.

Every keyword of the entry points is passed explicitly, and
:func:`unpinned_flags` fails the run when an entry point grows a
parameter or config field this file does not pin: a new default must
never move the benchmark silently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import math
from dataclasses import dataclass, field

from hooks import Patches, Probes

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 20261017


@dataclass
class Cell:
    """One part's outcome."""

    host_s: float                 # the program's own work (HostClock)
    attempted: int                # ops or requests
    good: int                     # ops correct / requests completed
    failed: int
    setup_s: float                # HostClock
    verify_s: float               # HostClock
    wall: dict                    # the same three, unscaled wall times
    model_work: float             # modeled_mops = work / time (µs)
    model_us: float
    counts: dict                  # additive per-layer counts
    fingerprint: dict             # everything that must repeat exactly
    problems: list = field(default_factory=list)
    latency: list = field(default_factory=list)    # serve, virtual µs
    lateness: list = field(default_factory=list)   # serve, virtual µs


def op_stats_of(structure) -> dict:
    from repro.core import OpStats
    return {f.name: getattr(structure.op_stats, f.name)
            for f in dataclasses.fields(OpStats)}


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest sample."""
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def _restarts(op_stats: dict) -> int:
    return (op_stats["contains_restarts"] + op_stats["update_restarts"]
            + op_stats["range_restarts"])


# ---------------------------------------------------------------------------
# Replay workloads (run_workload)
# ---------------------------------------------------------------------------

#: run_workload keywords pinned in :func:`run_replay` (the structure kind
#: and the workload are positional).
REPLAY_KWARGS = ("team_size", "p_chunk", "p_key", "launch", "device", "seed",
                 "enforce_paper_oom", "backend", "metrics", "shards",
                 "partitioner")


#: generate() parameters pinned in :func:`run_replay`.
GENERATE_ARGS = ("mixture", "key_range", "n_ops", "seed", "distribution",
                 "zipf_s")


@dataclass(frozen=True)
class ReplaySpec:
    name: str
    structure: str
    backend: str
    partitioner: str
    mixture: tuple
    key_range: int
    n_ops: int
    spans: tuple                  # spans that must fire on this workload
    team_size: int = 32
    distribution: str = "uniform"
    #: Validations of the final structure per part.  verify_s is their
    #: mean: where one validation is short next to the replay, repeating
    #: it (it only reads) gives the host clock more samples per run.
    verify_repeats: int = 1

    def parts(self, seed: int) -> list[int]:
        return [seed]

    def run_part(self, seed: int, recorder=None) -> Cell:
        return run_replay(self, seed, recorder)

    def layer_counts(self, cells: list) -> dict:
        return dict(cells[0].counts)


def run_replay(spec: ReplaySpec, seed: int, recorder=None) -> Cell:
    import repro.core
    from repro.core import InvariantViolation
    from repro.gpu import DeviceConfig
    from repro.workloads.generator import Mixture, generate
    from repro.workloads.runner import run_workload

    from checks import replay_sequential, replay_waves

    wl = generate(Mixture(*spec.mixture), spec.key_range, spec.n_ops,
                  seed=seed, distribution=spec.distribution, zipf_s=1.0)
    probes = Probes()
    problems: list[str] = []
    with Patches() as patches:
        if recorder is not None:
            recorder.install(patches)
        probes.install_replay(patches)
        res = run_workload(
            spec.structure, wl, team_size=spec.team_size, p_chunk=1.0,
            p_key=0.5, launch=None, device=DeviceConfig.gtx970(), seed=seed,
            enforce_paper_oom=True, backend=spec.backend, metrics=None,
            shards=None, partitioner=spec.partitioner)
        st = probes.structure
        try:
            # One timed call per shard, so the host clock's samples are
            # never more than one shard apart.
            for _ in range(spec.verify_repeats):
                for shard in getattr(st, "shards", [st]):
                    probes.timed("verify_s", repro.core.validate_structure,
                                 shard)
        except InvariantViolation as exc:
            problems.append(f"invariant: {exc}")

    if len(probes.executions) != 1:
        raise RuntimeError(f"expected one replay, saw "
                           f"{len(probes.executions)}")
    backend, batch, out = probes.executions[0]
    ops, keys = batch.ops.tolist(), batch.keys.tolist()
    results = list(out.results)
    prefill = wl.prefill.tolist()
    if spec.backend == "interleaved":
        if hasattr(st, "batch_order"):
            raise RuntimeError("the wave check assumes batch-order waves")
        bad, final = replay_waves(prefill, ops, keys, results,
                                  backend.concurrency)
    else:
        bad, final = replay_sequential(prefill, ops, keys, results)
    got_keys = st.keys()
    if bad:
        problems.append(f"{bad} op result(s) differ from the set replay")
    if set(got_keys) != final or len(got_keys) != len(final):
        problems.append("final key set differs from the set replay")

    n = spec.n_ops
    op_stats = op_stats_of(st)
    shard_ops = getattr(st, "last_shard_ops", None) or [n]
    counts = {
        "engine.gen_frac": res.gen_ops / n,
        "engine.waves": out.waves,
        "core.restarts": _restarts(op_stats),
        "core.lock_retries": op_stats["lock_retries"],
        "core.splits": op_stats["splits"],
        "core.merges": op_stats["merges"],
        "gpu.tx_per_op": res.transactions_per_op,
        "gpu.l2_hit_rate": res.l2_hit_rate,
        "gpu.issue_cycles": res.issue_cycles,
        "gpu.bandwidth_cycles": res.bandwidth_cycles,
        "gpu.latency_cycles": res.latency_cycles,
        "gpu.serialization_cycles": res.serialization_cycles,
        "shard.op_share_max": max(shard_ops) / sum(shard_ops),
    }
    fingerprint = {
        "modeled_mops": res.mops,
        "trace_stats": dataclasses.asdict(res.stats),
        "op_stats": op_stats,
        "results": digest(results),
        "final_keys": digest(got_keys),
        "counts": counts,
    }
    reps = spec.verify_repeats
    return Cell(host_s=probes.host_s[0], attempted=n, good=n - bad,
                failed=bad + len(problems) - bool(bad),
                setup_s=probes.setup_s[0],
                verify_s=sum(probes.verify_s) / reps,
                wall={**probes.wall,
                      "verify_s": probes.wall["verify_s"] / reps},
                model_work=n, model_us=res.seconds * 1e6, counts=counts,
                fingerprint=fingerprint, problems=problems)


# ---------------------------------------------------------------------------
# Serve workload (run_serve_campaign)
# ---------------------------------------------------------------------------

#: Every LoadConfig field but ``n_requests`` and ``seed``.
SERVE_LOAD = dict(
    n_clients=24, key_range=4096, mix=(30, 15, 50, 5), rate=1200.0,
    deadline_steps=6000, distribution="front", zipf_s=1.0, range_span=64,
    max_inflight=64, delivery_depth=32)

#: Every ServeCampaignConfig field but ``load``.
SERVE_CAMPAIGN = dict(
    structure="gfsl@4", team_size=32, backend="vectorized", chaos=None,
    coalesce_size=32, coalesce_steps=150, queue_depth=128, range_depth=16,
    admit_rate=900.0, admit_burst=64.0, shed_occupancy=0.5,
    backpressure_steps=400, breaker_threshold=3, breaker_reset_steps=400,
    adaptive=True, target_p99=150.0, control_interval=100, min_window=None,
    max_window=None, elastic=True, partitioner="range", headroom=2.0,
    reshard_hot_ticks=2, reshard_cooldown=4, reshard_max_migrations=4,
    reshard_min_keys=32, snapshot_audit=True, retry_attempts=4,
    retry_base_steps=32, check=True, max_steps=20_000_000)


@dataclass(frozen=True)
class ServeSpec:
    name: str
    n_requests: int               # per campaign
    campaigns: int
    spans: tuple

    def parts(self, seed: int) -> list[int]:
        return [seed * self.campaigns + i for i in range(self.campaigns)]

    def config(self, seed: int):
        from repro.serve.bench import ServeCampaignConfig
        from repro.serve.loadgen import LoadConfig
        load = LoadConfig(n_requests=self.n_requests, seed=seed, **SERVE_LOAD)
        return ServeCampaignConfig(load=load, **SERVE_CAMPAIGN)

    def run_part(self, seed: int, recorder=None) -> Cell:
        return run_serve(self, seed, recorder)

    def run_bare(self, seed: int) -> dict:
        """The same campaign with no benchmark wrapper installed."""
        from repro.serve.bench import run_serve_campaign
        return serve_stats_view(run_serve_campaign(self.config(seed)).stats)

    def layer_counts(self, cells: list) -> dict:
        total = {k: sum(c.counts[k] for c in cells) for k in cells[0].counts}
        late = [v for c in cells for v in c.lateness]
        lat = [v for c in cells for v in c.latency]
        summed = ("engine.waves", "core.restarts", "core.lock_retries",
                  "core.splits", "core.merges", "shard.migrations",
                  "shard.migrated_keys", "shard.migration_delta_ops",
                  "shard.migration_aborts", "serve.flushes",
                  "serve.ctrl_ticks", "serve.ctrl_rate_downs",
                  "serve.rejected", "serve.shed", "serve.expired",
                  "serve.retries", "chaos.events", "chaos.checked_keys",
                  "chaos.snapshots_checked", "chaos.fallback_keys")
        return {
            **{k: total[k] for k in summed},
            "engine.gen_frac": total["gen_ops"] / total["flushed_ops"],
            "gpu.tx_per_op": total["transactions"] / total["completed"],
            "gpu.l2_hit_rate": total["l2_hits"] / total["transactions"],
            "serve.batch_ops_mean": (total["flushed_ops"]
                                     / total["serve.flushes"]),
            "serve.admitted_frac": total["admitted"] / total["submitted"],
            "serve.lateness_p50_us": percentile(late, 0.50),
            "serve.lateness_max_us": float(max(late)),
            "serve.late_submissions": sum(v > 0 for v in late),
            "serve.p50_us": percentile(lat, 0.50),
            "serve.p99_us": percentile(lat, 0.99),
            "serve.latency_samples": len(lat),
        }


def serve_stats_view(st) -> dict:
    return {"counters": st.counters(),
            "point_latencies": digest(st.point_latencies),
            "range_latencies": digest(st.range_latencies)}


def run_serve(spec: ServeSpec, seed: int, recorder=None) -> Cell:
    from repro.serve.bench import run_serve_campaign

    cfg = spec.config(seed)
    probes = Probes()
    with Patches() as patches:
        if recorder is not None:
            recorder.install(patches)
        probes.install_serve(patches, cfg.load.deadline_steps)
        report = run_serve_campaign(cfg)
    st = report.stats
    lin = probes.lin_report
    # Per-request misses: raised errors, unresolved futures, requests
    # that reached no terminal state.  Whole-run checks count once each.
    per_request = (st.failed + report.unresolved
                   + (st.submitted - st.terminated))
    problems = []
    if per_request:
        problems.append(f"{st.failed} failed, {report.unresolved} "
                        f"unresolved, {st.terminated}/{st.submitted} "
                        f"terminated")
    if report.hung is not None:
        problems.append(f"HangError: {report.hung}")
    if lin is None or not lin.ok or lin.violations \
            or lin.snapshot_violations:
        problems.append("history check: "
                        + (lin.summary() if lin else "not run"))
    if report.invariant_error is not None:
        problems.append(f"invariant: {report.invariant_error}")
    # The probe sees every submission and every completion the program
    # counts: same completions, same latencies from submit.
    if (len(probes.lateness) != st.submitted
            or sorted(probes.submit_latency) != sorted(st.point_latencies)):
        problems.append("planned-arrival probe disagrees with ServeStats")

    op_stats = op_stats_of(probes.structure)
    counts = {
        "submitted": st.submitted,
        "admitted": st.admitted,
        "completed": st.completed,
        "flushed_ops": st.flushed_ops,
        "gen_ops": st.gen_ops,
        "transactions": report.transactions,
        "l2_hits": round(report.l2_hit_rate * report.transactions),
        "engine.waves": sum(out.waves for _, _, out in probes.executions),
        "core.restarts": _restarts(op_stats),
        "core.lock_retries": op_stats["lock_retries"],
        "core.splits": op_stats["splits"],
        "core.merges": op_stats["merges"],
        "shard.migrations": st.migrations,
        "shard.migrated_keys": st.migrated_keys,
        "shard.migration_delta_ops": st.migration_delta_ops,
        "shard.migration_aborts": st.migration_aborts,
        "serve.flushes": st.flushes,
        "serve.ctrl_ticks": st.ctrl_ticks,
        "serve.ctrl_rate_downs": st.ctrl_rate_downs,
        "serve.rejected": st.rejected,
        "serve.shed": st.shed,
        "serve.expired": st.expired,
        "serve.retries": st.retries,
        "chaos.events": lin.events if lin else 0,
        "chaos.checked_keys": lin.checked_keys if lin else 0,
        "chaos.snapshots_checked": lin.snapshots_checked if lin else 0,
        "chaos.fallback_keys": lin.fallback_keys if lin else 0,
    }
    fingerprint = {
        "stats": serve_stats_view(st),
        "total_steps": report.total_steps,
        "planned_latency": digest(probes.planned_latency),
        "lateness": digest(probes.lateness),
        "migration_events": digest(report.migration_events),
        "op_stats": op_stats,
        "counts": counts,
    }
    return Cell(host_s=probes.host_s[0], attempted=st.submitted,
                good=st.completed,
                failed=per_request + len(problems) - bool(per_request),
                setup_s=probes.setup_s[0], verify_s=sum(probes.verify_s),
                wall=probes.wall,
                model_work=st.completed, model_us=report.total_steps,
                counts=counts, fingerprint=fingerprint, problems=problems,
                latency=probes.planned_latency, lateness=probes.lateness)


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------

_REPLAY_SPANS = ("engine.replay", "core.bulk_build", "core.warm",
                 "core.validate")

WORKLOADS = {
    "replay-update": ReplaySpec(
        name="replay-update", structure="gfsl", backend="vectorized",
        partitioner="range", mixture=(20, 20, 60), key_range=100_000,
        n_ops=20_000, verify_repeats=3,
        spans=_REPLAY_SPANS + ("engine.plan_waves", "engine.wave_generators",
                               "core.update_wave", "core.contains_multi",
                               "gpu.access_words_batch",
                               "gpu.l2_access_many")),
    "replay-read-large": ReplaySpec(
        name="replay-read-large", structure="gfsl@4", backend="vectorized",
        partitioner="range", mixture=(1, 1, 98), key_range=1_000_000,
        n_ops=50_000,
        spans=_REPLAY_SPANS + ("engine.plan_waves", "shard.plan_waves",
                               "shard.route.array", "core.update_wave",
                               "core.contains_multi",
                               "gpu.access_words_batch",
                               "gpu.l2_access_many")),
    "figure-interleaved": ReplaySpec(
        name="figure-interleaved", structure="gfsl", backend="interleaved",
        partitioner="range", mixture=(10, 10, 80), key_range=100_000,
        n_ops=10_000, verify_repeats=3,
        spans=_REPLAY_SPANS + ("gpu.scheduler_run", "gpu.execute_event",
                               "gpu.access_words")),
    "serve-elastic": ServeSpec(
        name="serve-elastic", n_requests=1000, campaigns=24,
        spans=("serve.loop", "serve.execute_batch", "serve.controller_tick",
               "shard.route.scalar", "shard.route.array", "shard.plan_waves",
               "engine.replay", "engine.plan_waves", "core.update_wave",
               "core.contains_multi", "core.bulk_build", "core.warm",
               "core.validate", "gpu.access_words_batch",
               "chaos.check_history")),
}


def unpinned_flags() -> list[str]:
    """Entry-point parameters or config fields this file does not pin."""
    from repro.serve.bench import ServeCampaignConfig
    from repro.serve.loadgen import LoadConfig
    from repro.workloads.runner import run_workload

    from repro.workloads.generator import generate

    params = list(inspect.signature(run_workload).parameters)[2:]
    missing = [f"run_workload({p})" for p in params
               if p not in REPLAY_KWARGS]
    missing += [f"generate({p})"
                for p in inspect.signature(generate).parameters
                if p not in GENERATE_ARGS]
    for cls, pinned in ((ServeCampaignConfig, set(SERVE_CAMPAIGN) | {"load"}),
                        (LoadConfig, set(SERVE_LOAD) | {"n_requests",
                                                        "seed"})):
        missing += [f"{cls.__name__}.{f.name}"
                    for f in dataclasses.fields(cls) if f.name not in pinned]
    return missing
