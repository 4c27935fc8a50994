"""Campaign benchmarks: full-grid regeneration vs the serial runner.

Three phases, each against its own cold cache directory:

1. **serial** — the historical baseline: one :class:`Session`, every
   table rendered in sequence by ``run_tables`` (session memoization
   still shares runs between tables — this is the honest pre-campaign
   workflow, not a strawman),
2. **campaign** — the DAG engine fanning run/analytic/scenario cells
   across a process pool sized to the machine,
3. **rerun** — the same campaign run again over its warm cache: every
   cell, tables included, comes from the content-keyed tiers, so it
   computes zero cells and finishes in seconds.

Results land in ``BENCH_campaign.json`` at the repository root.  The
acceptance gate — campaign >= 3x faster than serial — is enforced only
when the machine has enough cores (>= 4) for the fan-out to be real;
on smaller boxes the measurement is still recorded with the gate
marked unenforced and only a sanity floor asserted (the scheduler must
not slow full regeneration down), so the numbers stay honest either
way.  Byte-identical table output vs the serial baseline is asserted
unconditionally.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.campaign import Campaign
from repro.experiments.runner import run_tables
from repro.pipeline.session import Session

TABLES = tuple(range(1, 16))
SCALE = float(os.environ.get("REPRO_CAMPAIGN_SCALE", "0.03"))
GATE_SPEEDUP = 3.0
GATE_MIN_CPUS = 4       # cores needed for the fan-out to be real

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_campaign.json"

_results: dict = {}
_tables: dict = {}      # phase name -> {number: rendered text}


def _flush() -> None:
    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "tables": list(TABLES),
        "scale": SCALE,
        "results": _results,
    }
    try:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass


def test_serial_baseline(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("campaign-serial")
    session = Session(scale=SCALE, cache_dir=cache_dir)
    start = time.perf_counter()
    produced = run_tables(session, list(TABLES), echo=False)
    wall = time.perf_counter() - start
    _tables["serial"] = {number: table.render()
                         for number, table in produced.items()}
    _results["serial"] = {"wall_s": round(wall, 3)}
    _flush()


def test_campaign_parallel(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("campaign-parallel")
    session = Session(scale=SCALE, cache_dir=cache_dir)
    campaign = Campaign(session, numbers=TABLES)
    _results["campaign_dir"] = str(campaign.directory)
    start = time.perf_counter()
    result = campaign.run(jobs=os.cpu_count())
    wall = time.perf_counter() - start
    _tables["campaign"] = dict(result.tables)
    _results["campaign"] = {
        "wall_s": round(wall, 3),
        "jobs": os.cpu_count(),
        "computed": result.computed,
        "cached": result.cached,
        "profile_store": result.profile_store,
    }
    # the rerun phase reuses this campaign's cache
    _results["_campaign_cache"] = str(cache_dir)
    _flush()


def test_campaign_rerun():
    cache_dir = _results.pop("_campaign_cache", None)
    assert cache_dir, "run the campaign phase first"
    session = Session(scale=SCALE, cache_dir=Path(cache_dir))
    campaign = Campaign(session, numbers=TABLES)
    start = time.perf_counter()
    result = campaign.run()
    wall = time.perf_counter() - start
    _results["rerun"] = {
        "wall_s": round(wall, 3),
        "computed": result.computed,
        "cached": result.cached,
    }
    _flush()
    # the whole point of the tiers: zero recomputation
    assert result.computed == 0
    assert result.cached == len(campaign.plan())
    assert {n: t for n, t in result.tables.items()} \
        == _tables["campaign"]


def test_speedup_gate():
    serial = _results.get("serial")
    parallel = _results.get("campaign")
    assert serial and parallel, "run the measurement phases first"
    # correctness before speed: identical bytes from both paths
    assert _tables["campaign"] == _tables["serial"]
    speedup = serial["wall_s"] / parallel["wall_s"]
    enforced = (os.cpu_count() or 1) >= GATE_MIN_CPUS
    _results["gate"] = {
        "speedup": round(speedup, 2),
        "threshold": GATE_SPEEDUP,
        "enforced": enforced,
        "cpu_count": os.cpu_count(),
        "reason": None if enforced else (
            f"fewer than {GATE_MIN_CPUS} cores: the process pool "
            f"shares the same silicon as the serial baseline, so the "
            f"speedup is measured but not gated"),
    }
    _flush()
    if enforced:
        assert speedup >= GATE_SPEEDUP
    else:
        # even single-core, the DAG scheduler must not make full
        # regeneration meaningfully slower than the serial runner
        assert speedup >= 0.6
