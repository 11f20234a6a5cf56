"""Golden fingerprint of one elastic serve campaign.

One 1,000-request ``gfsl@4`` campaign with adaptive admission, online
resharding and the snapshot audit on — the serve path the replay
goldens (``tests/engine/test_golden_replays.py``) never reach: request
coalescing, routing generations, migrations and the epoch write
barrier of batched publishes.  The virtual clock makes the campaign a
pure function of its flags and seed, so the counters, the latency
samples, the modeled memory traffic, the migration events and the
structure's op counters must all repeat exactly.  Every flag is
written out below, so a changed default cannot move the fingerprint
silently.

Regenerate with::

    PYTHONPATH=src python tests/serve/test_golden_campaign.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import repro.serve.bench as serve_bench
from repro.serve import LoadConfig, ServeCampaignConfig, run_serve_campaign

GOLDEN = Path(__file__).with_name("golden_campaign.json")

SEED = 20261017


def config() -> ServeCampaignConfig:
    load = LoadConfig(
        n_requests=1000, seed=SEED, n_clients=24, key_range=4096,
        mix=(30, 15, 50, 5), rate=1200.0, deadline_steps=6000,
        distribution="front", zipf_s=1.0, range_span=64, max_inflight=64,
        delivery_depth=32)
    return ServeCampaignConfig(
        load=load, structure="gfsl@4", team_size=32, backend="vectorized",
        chaos=None, coalesce_size=32, coalesce_steps=150, queue_depth=128,
        range_depth=16, admit_rate=900.0, admit_burst=64.0,
        shed_occupancy=0.5, backpressure_steps=400, breaker_threshold=3,
        breaker_reset_steps=400, adaptive=True, target_p99=150.0,
        control_interval=100, min_window=None, max_window=None,
        elastic=True, partitioner="range", headroom=2.0,
        reshard_hot_ticks=2, reshard_cooldown=4, reshard_max_migrations=4,
        reshard_min_keys=32, snapshot_audit=True, retry_attempts=4,
        retry_base_steps=32, check=True, max_steps=20_000_000)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def fingerprint() -> dict:
    built = []
    make = serve_bench.make_structure

    def capture(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    serve_bench.make_structure = capture
    try:
        report = run_serve_campaign(config())
    finally:
        serve_bench.make_structure = make
    st = report.stats
    return {
        "ok": report.ok,
        "counters": st.counters(),
        "point_latencies": _digest(st.point_latencies),
        "range_latencies": _digest(st.range_latencies),
        "transactions": report.transactions,
        "l2_hit_rate": report.l2_hit_rate,
        "total_steps": report.total_steps,
        "migration_events": _digest(report.migration_events),
        "op_stats": dataclasses.asdict(built[0].op_stats),
    }


def test_serve_campaign_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = fingerprint()
    assert got["ok"]
    assert got["counters"]["migrations"] > 0   # the reshard path ran
    assert got == golden, (
        f"the serve campaign moved; if deliberate, regenerate "
        f"{GOLDEN.name} (see this module's docstring)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps(fingerprint(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
