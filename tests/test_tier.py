"""The keyed JSON cache tier, its four keyspaces and their collection.

Every result and profile cache is a :class:`repro.store.tier.JsonTier`,
so an unreadable entry is tested once per fault across the four
keyspaces that own one — the pipeline's results, the service's
responses, the profile store's sweep profiles and its analytic profiles.
Each fault has one documented outcome: a counted miss, the identical
result recomputed, and the entry rewritten.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analytic import program_digest
from repro.analytic.engine import cached_profile
from repro.cache.config import CacheConfig
from repro.cache.lru import BoundedCache
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.compiler.driver import compile_source
from repro.machine.simulator import run_program
from repro.pipeline.session import Session
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, serve_in_thread
from repro.store.gc import collect_garbage, scan_entries
from repro.store.tier import (ANALYTIC, DISK, MEMORY, PIPELINE,
                              SERVICE, SWEEP, JsonTier, atomic_write_json)
from tests.conftest import SAMPLE_SOURCE

#: Three LRU geometries over one set mapping: served from a profile.
GRID = [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
        for a in (2, 4, 8)]


# -- the four keyspaces ------------------------------------------------
#
# Each runs its owner once over a cache root with a fresh owner, and
# returns (result, misses, disk hits) for the keyspace under test.

def _pipeline(root):
    session = Session(cache_dir=root)
    session.add_source("sample", SAMPLE_SOURCE)
    stats = session.stats("sample")
    profile = session.profile("sample")
    counters = session._results.counters
    return ((dataclasses.asdict(stats), profile.block_counts),
            counters["misses"], counters["disk_hits"])


def _service(root):
    config = ServerConfig(port=0, workers=0, cache_dir=root)
    with serve_in_thread(config) as handle:
        with ServiceClient.connect(handle.address) as client:
            result = client.call("simulate", {
                "source": SAMPLE_SOURCE,
                "configs": [{"size": 2048, "assoc": 2, "block_size": 32}]})
            cache = client.call("metrics")["cache"]
    return result, cache["misses"], cache["disk_hits"]


@pytest.fixture(scope="module")
def sample_trace():
    return run_program(compile_source(SAMPLE_SOURCE),
                       trace_memory=True).trace


def _sweep(root, trace):
    store = ProfileStore(disk_dir=root / "stackdist")
    stats = simulate_sweep(trace, GRID, store=store)
    counters = store.counters
    return ([dataclasses.asdict(s) for s in stats],
            counters["sweep_misses"], counters["sweep_disk_hits"])


def _analytic(root):
    store = ProfileStore(disk_dir=root / "stackdist")
    profile = cached_profile(compile_source(SAMPLE_SOURCE),
                             program_digest(SAMPLE_SOURCE, False), 32,
                             store)
    counters = store.counters
    return (profile.to_payload(), counters["analytic_misses"],
            counters["analytic_disk_hits"])


#: keyspace -> (run, entry glob under the root, a required field)
KEYSPACES = {
    "pipeline": (_pipeline, "sample-*.json", "load_misses"),
    "service": (_service, "svc-*.json", "result"),
    "sweep": (_sweep, "stackdist/sd-*.json", "groups"),
    "analytic": (_analytic, "stackdist/an-*.json", "loads"),
}


def _malformed(path):
    path.write_text(path.read_text()[:40])       # a torn write


def _wrong_version(path):
    entry = json.loads(path.read_text())
    entry["version"] = 999
    path.write_text(json.dumps(entry))


FAULTS = {"malformed": _malformed, "wrong_version": _wrong_version,
          "missing_field": None}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("keyspace", list(KEYSPACES))
def test_unreadable_entry_is_a_counted_miss(keyspace, fault, tmp_path,
                                            sample_trace):
    run, pattern, field = KEYSPACES[keyspace]
    if keyspace == "sweep":
        run = lambda root: _sweep(root, sample_trace)  # noqa: E731
    reference, _, _ = run(tmp_path)
    (path,) = tmp_path.glob(pattern)
    original = json.loads(path.read_text())
    assert run(tmp_path) == (reference, 0, 1)      # a clean disk hit

    if fault == "missing_field":
        damaged = dict(original)
        del damaged[field]
        path.write_text(json.dumps(damaged))
    else:
        FAULTS[fault](path)
    assert run(tmp_path) == (reference, 1, 0)
    assert json.loads(path.read_text()) == original


# -- the tier itself ---------------------------------------------------

class TestJsonTier:
    def _tier(self, directory, capacity=4, version=1):
        return JsonTier(PIPELINE, version, directory,
                        BoundedCache(capacity))

    def test_tiers_of_a_lookup(self, tmp_path):
        writer = self._tier(tmp_path)
        assert writer.get("k", dict) == (None, None)
        writer.put("k", {"v": 1}, {"v": 1})
        assert writer.get("k", dict) == ({"v": 1}, MEMORY)
        reader = self._tier(tmp_path)
        assert reader.get("k", dict) == ({"version": 1, "v": 1}, DISK)
        assert reader.get("k", dict)[1] == MEMORY
        assert reader.counters == {"memory_hits": 1, "disk_hits": 1,
                                   "misses": 0, "puts": 0}

    def test_memory_only_tier_writes_nothing(self, tmp_path):
        tier = self._tier(None)
        tier.put("k", 1, {"v": 1})
        assert tier.get("k", dict) == (1, MEMORY)
        assert tier.get("j", dict) == (None, None)
        assert not list(tmp_path.iterdir())

    def test_shared_memory_is_namespaced(self, tmp_path):
        memory = BoundedCache(2)
        sweep = JsonTier(SWEEP, 1, None, memory)
        analytic = JsonTier(ANALYTIC, 1, None, memory)
        sweep.put("k", "measured", {})
        analytic.put("k", "predicted", {})
        assert sweep.get("k", dict)[0] == "measured"
        assert analytic.get("k", dict)[0] == "predicted"
        analytic.put("j", "third", {})        # one LRU over both
        assert sweep.get("k", dict) == (None, None)

    def test_zero_capacity_keeps_nothing(self):
        tier = self._tier(None, capacity=0)
        tier.put("k", 1, {})
        assert tier.get("k", dict) == (None, None)
        assert tier.stats()["evictions"] == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "deep" / "entry.json"
        atomic_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert [p.name for p in path.parent.iterdir()] == ["entry.json"]


# -- collection covers every tier --------------------------------------

def test_gc_to_zero_leaves_no_tier_entry(tmp_path, sample_trace):
    """Every keyspace's entries are scanned and evictable, wherever
    the tier keeps them, and a torn entry of any is corrupt."""
    root = tmp_path / "cache"
    _pipeline(root)
    _sweep(root, sample_trace)
    _analytic(root)
    _service(root)                                # svc- in the root
    served = JsonTier(SERVICE, 1, root / "service", BoundedCache(1))
    served.put("k", 1, {"result": 1})             # the default layout
    entries, corrupt = scan_entries(root)
    assert not corrupt
    assert sorted({entry.tier for entry in entries}) == [
        "analytic", "pipeline", "service", "stackdist", "traces"]
    assert len([e for e in entries if e.tier == "service"]) == 2

    (torn,) = root.glob("stackdist/an-*.json")
    torn.write_text("{")
    stale = root / "service" / f"svc-x.json.{os.getpid()}.tmp"
    stale.write_text("")
    os.utime(stale, (1_000, 1_000))
    report = collect_garbage(root, 0)
    assert sorted(report.corrupt) == [
        ("analytic", torn.name, "malformed JSON"),
        ("service", stale.name, "stale temp file")]
    assert [path for path in root.rglob("*") if path.is_file()] == []
    assert scan_entries(root) == ([], [])
