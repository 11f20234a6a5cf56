"""Golden fingerprints of vectorized replays.

Each cell replays a small workload through ``run_workload`` on the
vectorized backend and compares the modeled MOPS, the full
``TraceStats``, and the digests of the final memory image and of the
per-op results against ``golden_replays.json``.  The simulator is
deterministic, so any kernel rewrite that moves the modeled clock, the
access stream, or a single stored byte fails here loudly; a deliberate
change regenerates the file and says why in the change log.

Regenerate with::

    PYTHONPATH=src python tests/engine/test_golden_replays.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.engine.vectorized import VectorizedBackend
from repro.workloads.generator import Mixture, generate
from repro.workloads.runner import run_workload

GOLDEN = Path(__file__).with_name("golden_replays.json")

#: name -> (structure, mixture, key_range, n_ops, distribution, seed,
#: team_size)
CELLS = {
    "gfsl-20-20-60": ("gfsl", (20, 20, 60), 10_000, 5_000, "uniform", 1, 32),
    "gfsl@4-1-1-98": ("gfsl@4", (1, 1, 98), 100_000, 5_000, "uniform", 2,
                      32),
    # Split-, merge- and fallback-heavy: half inserts, half deletes on a
    # small range with 6-entry chunks (~120 splits, ~110 merges, a
    # quarter of the ops replayed as generators).
    "gfsl-50-50-0-2k": ("gfsl", (50, 50, 0), 2_000, 5_000, "uniform", 3, 8),
    "gfsl@3-zipf": ("gfsl@3", (20, 20, 60), 10_000, 5_000, "zipf", 4, 32),
}


class _Recording(VectorizedBackend):
    """The vectorized backend, keeping the replayed structure and its
    per-op results for fingerprinting."""

    def execute(self, structure, batch):
        out = super().execute(structure, batch)
        self.structure, self.results = structure, out.results
        return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(name: str) -> dict:
    kind, mix, key_range, n_ops, dist, seed, team_size = CELLS[name]
    wl = generate(Mixture(*mix), key_range, n_ops, seed=seed,
                  distribution=dist)
    backend = _Recording()
    res = run_workload(kind, wl, team_size=team_size, backend=backend,
                       seed=seed)
    return {
        "mops": res.mops,
        "trace_stats": dataclasses.asdict(res.stats),
        "mem_sha256": _sha(backend.structure.ctx.mem.raw().tobytes()),
        "results_sha256": _sha(repr(list(backend.results)).encode()),
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_vectorized_replay_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert fingerprint(name) == golden, (
        f"{name}: the vectorized replay moved; if deliberate, regenerate "
        f"{GOLDEN.name} (see this module's docstring)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    GOLDEN.write_text(json.dumps({k: fingerprint(k) for k in sorted(CELLS)},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
