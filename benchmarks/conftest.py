"""Benchmark harness configuration.

One bench per paper table (bench = regenerate the exhibit end to end) plus
component microbenchmarks.  A module-shared :class:`Session` with the
on-disk result cache makes repeated runs cheap; the first run simulates
every workload.

Environment knobs:

* ``REPRO_SCALE``  — workload size multiplier (default 0.25; use 1.0 for
  the full-size runs recorded in EXPERIMENTS.md),
* ``REPRO_NO_DISK_CACHE=1`` — force re-simulation,
* ``REPRO_JOBS`` — worker processes for the pre-warm campaign (default:
  CPU count),
* ``REPRO_WARM=0`` — skip the pre-warm stage.

Before the first bench runs, the shared session is *warmed* by a
:class:`~repro.campaign.Campaign` over every table: each (workload,
input, optimize) run the tables need is executed and cache-simulated up
front under the union of its cache geometries — in parallel across
``REPRO_JOBS`` processes, one trace replay per run — so the table
benches measure analysis time, not redundant simulation.

The benches write no report: EXPERIMENTS.md has one generator,
``python -m repro campaign --scale 1.0 --report EXPERIMENTS.md``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.pipeline.session import Session

SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))
REPO_ROOT = Path(__file__).resolve().parents[1]

_session_started = time.time()


def host_info() -> dict:
    """CPU count and load averages, stamped into every BENCH record.

    Speedup trajectories are only comparable when the host is known:
    a 1.1x parallel "win" on a loaded single-core box and a 5x win on
    an idle 16-core box would otherwise be indistinguishable in the
    committed JSON.
    """
    try:
        load_1, load_5, load_15 = os.getloadavg()
        loadavg = [round(load_1, 2), round(load_5, 2),
                   round(load_15, 2)]
    except OSError:           # platform without getloadavg
        loadavg = None
    return {"cpu_count": os.cpu_count() or 1, "loadavg": loadavg}


def _stamp_bench_hosts() -> None:
    """Add the host block to every BENCH_*.json written by this run."""
    info = host_info()
    for path in REPO_ROOT.glob("BENCH_*.json"):
        try:
            if path.stat().st_mtime < _session_started:
                continue  # stale record from an earlier run
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                continue
            payload["host"] = info
            path.write_text(json.dumps(payload, indent=2) + "\n")
        except (OSError, ValueError):
            continue


@pytest.fixture(scope="session")
def session() -> Session:
    shared = Session(
        scale=SCALE,
        use_disk_cache=os.environ.get("REPRO_NO_DISK_CACHE") != "1",
    )
    if os.environ.get("REPRO_WARM", "1") != "0":
        from repro.campaign import Campaign
        result = Campaign(shared).run()
        print(f"\n[repro] pre-warm: {result.describe()}")
    return shared


def pytest_sessionfinish(session, exitstatus):
    _stamp_bench_hosts()
