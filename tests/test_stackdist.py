"""Stack-distance sweep-engine tests.

:func:`simulate_sweep` must be observably indistinguishable from
per-config :func:`simulate_trace` — same dict contents, same prefetch
fills — whichever route (histogram or replay fallback) serves a config.
These tests pin that contract over randomized traces, every registry
workload, and the profile store's disk/extension/corruption behavior,
plus the shared :class:`BoundedCache`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.stackdist as stackdist
from repro.cache.config import BASELINE_CONFIG, CacheConfig
from repro.cache.lru import BoundedCache
from repro.cache.model import (_REPLAY_CACHE, simulate_trace,
                               simulate_trace_multi)
from repro.cache.stackdist import (DEFAULT_CAPACITY, ProfileStore,
                                   simulate_sweep, trace_digest)
from repro.compiler.driver import compile_source
from repro.machine.simulator import Machine
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace
from repro.pipeline.session import Session
from repro.store import TraceStore, trace_key
from repro.workloads.registry import get, names

EQUIVALENCE_SCALE = 0.01

#: A size x associativity grid (including non-power-of-two way counts
#: and a second block size) plus both non-LRU policies: every route
#: through the dispatcher.
SWEEP_CONFIGS = (
    [CacheConfig(size=s * a * 32, assoc=a, block_size=32)
     for s in (8, 32, 128) for a in (1, 2, 3, 4, 6, 8)]
    + [CacheConfig(size=s * a * 64, assoc=a, block_size=64)
       for s in (16, 64) for a in (2, 4)]
    + [CacheConfig(1024, 2, 32, replacement="fifo"),
       CacheConfig(1024, 2, 32, replacement="random")]
)


def trace_of(accesses):
    trace = MemoryTrace()
    for pc, addr, kind in accesses:
        trace.append(pc, addr, kind)
    return trace


def stats_key(stats):
    """Every observable field of a CacheStats, for bit-exact compares."""
    return (stats.config, stats.load_accesses, stats.load_misses,
            stats.store_accesses, stats.store_misses,
            stats.prefetch_ops, stats.prefetch_fills)


def assert_sweep_matches(trace, configs, store=None):
    results = simulate_sweep(trace, configs, store=store)
    assert len(results) == len(configs)
    for config, stats in zip(configs, results):
        assert stats_key(stats) == stats_key(
            simulate_trace(trace, config)), config


@pytest.fixture(scope="module")
def workload_trace():
    source = get("129.compress").generate("input1", scale=0.03)
    return Machine(compile_source(source)).run().trace


# -- equivalence -------------------------------------------------------

class TestSweepEquivalence:
    def test_empty_config_list(self):
        assert simulate_sweep(trace_of([]), []) == []

    def test_empty_trace(self):
        assert_sweep_matches(trace_of([]), SWEEP_CONFIGS,
                             store=ProfileStore())

    def test_mixed_kinds_bit_identical(self):
        trace = trace_of([
            (4, 0, LOAD), (8, 64, STORE), (4, 0, LOAD),
            (12, 4096, PREFETCH), (16, 4096, LOAD), (8, 128, STORE),
            (20, 8192, LOAD), (12, 12288, PREFETCH), (4, 32, LOAD),
        ])
        assert_sweep_matches(trace, SWEEP_CONFIGS, store=ProfileStore())

    def test_duplicate_configs(self):
        config = CacheConfig(2048, 4, 32)
        trace = trace_of([(4, a * 32, LOAD) for a in range(400)] * 2)
        one, two, _ = simulate_sweep(
            trace, [config, config, CacheConfig(4096, 8, 32)],
            store=ProfileStore())
        assert stats_key(one) == stats_key(two)
        assert stats_key(one) == stats_key(simulate_trace(trace, config))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([4, 8, 12, 16]),
                  st.integers(min_value=0, max_value=1 << 14),
                  st.just(0)),
        max_size=200))
    def test_random_traces_bit_identical(self, accesses):
        # one kind per PC (the machine invariant): derive it from the PC
        accesses = [(pc, addr, (LOAD, STORE, PREFETCH)[pc % 3])
                    for pc, addr, _ in accesses]
        assert_sweep_matches(trace_of(accesses), SWEEP_CONFIGS,
                             store=ProfileStore())

    @pytest.mark.parametrize("name", names())
    def test_workload_bit_identical(self, name):
        """The full 18-workload suite agrees bit for bit."""
        source = get(name).generate("input1", scale=EQUIVALENCE_SCALE)
        trace = Machine(compile_source(source)).run().trace
        configs = [CacheConfig(size=s * a * 32, assoc=a, block_size=32)
                   for s in (64, 256) for a in (2, 4, 12)] \
            + [CacheConfig(8192, 4, 32, replacement="fifo"),
               CacheConfig(8192, 4, 32, replacement="random")]
        assert_sweep_matches(trace, configs, store=ProfileStore())


# -- routing and profile reuse ----------------------------------------

class TestRouting:
    def _count_passes(self, monkeypatch):
        calls = []
        original = stackdist.compute_groups

        def counting(trace, specs):
            calls.append(tuple(specs))
            return original(trace, specs)

        monkeypatch.setattr(stackdist, "compute_groups", counting)
        return calls

    def test_lone_config_uses_replay(self, workload_trace, monkeypatch):
        calls = self._count_passes(monkeypatch)
        store = ProfileStore()
        assert_sweep_matches(workload_trace, [BASELINE_CONFIG],
                             store=store)
        assert not calls            # no profile built for one geometry
        assert not store._memory._entries

    def test_resweep_skips_the_trace(self, workload_trace, monkeypatch):
        calls = self._count_passes(monkeypatch)
        store = ProfileStore()
        grid = [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
                for a in (2, 4, 8)]
        assert_sweep_matches(workload_trace, grid, store=store)
        assert len(calls) == 1
        # new associativities, same set mapping: histograms only
        refine = [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
                  for a in (1, 3, 6, 12, 16)]
        assert_sweep_matches(workload_trace, refine, store=store)
        assert len(calls) == 1
        # a lone config covered by the cached profile also skips it
        assert_sweep_matches(workload_trace, [grid[0]], store=store)
        assert len(calls) == 1

    def test_extension_adds_only_missing_mappings(self, workload_trace,
                                                  monkeypatch):
        calls = self._count_passes(monkeypatch)
        store = ProfileStore()
        assert_sweep_matches(
            workload_trace,
            [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
             for a in (2, 4)], store=store)
        # 128-set geometries are new; the 64-set ones are cached
        assert_sweep_matches(
            workload_trace,
            [CacheConfig(size=s * a * 32, assoc=a, block_size=32)
             for s in (64, 128) for a in (2, 8)], store=store)
        assert [specs[0][1] for specs in calls] == [64, 128]

    def test_capacity_bump_recomputes_exactly(self, workload_trace):
        store = ProfileStore()
        shallow = [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
                   for a in (2, 4)]
        assert_sweep_matches(workload_trace, shallow, store=store)
        deep = [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
                for a in (24, 32)]
        assert_sweep_matches(workload_trace, deep, store=store)
        profile = store.get(trace_digest(workload_trace), 32)
        assert profile.capacity >= 32

    def test_wide_assoc_falls_back(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        trace = trace_of([(4, a * 32, LOAD) for a in range(100)])
        wide = CacheConfig(size=2 * 2048 * 32, assoc=2048, block_size=32)
        assert_sweep_matches(trace, [wide, wide], store=ProfileStore())
        assert not calls


# -- the profile store -------------------------------------------------

class TestProfileStore:
    GRID = [CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
            for a in (2, 4, 8)]

    def test_disk_round_trip(self, workload_trace, tmp_path,
                             monkeypatch):
        writer = ProfileStore(disk_dir=tmp_path)
        assert_sweep_matches(workload_trace, self.GRID, store=writer)
        assert list(tmp_path.glob("sd-*-bs32.json"))

        calls = []
        original = stackdist.compute_groups
        monkeypatch.setattr(
            stackdist, "compute_groups",
            lambda trace, specs: (calls.append(1),
                                  original(trace, specs))[1])
        reader = ProfileStore(disk_dir=tmp_path)   # cold memory tier
        assert_sweep_matches(workload_trace, self.GRID, store=reader)
        assert not calls            # served entirely from disk

    def test_wrong_schema_version_recomputed(self, workload_trace,
                                             tmp_path):
        store = ProfileStore(disk_dir=tmp_path)
        assert_sweep_matches(workload_trace, self.GRID, store=store)
        [path] = tmp_path.glob("sd-*-bs32.json")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        fresh = ProfileStore(disk_dir=tmp_path)
        assert fresh.get(trace_digest(workload_trace), 32) is None

    def test_memory_only_store_writes_nothing(self, workload_trace,
                                              tmp_path):
        store = ProfileStore(disk_dir=None)
        assert_sweep_matches(workload_trace, self.GRID, store=store)
        assert not list(tmp_path.iterdir())

    def test_default_capacity_floor(self, workload_trace):
        store = ProfileStore()
        assert_sweep_matches(workload_trace, self.GRID, store=store)
        profile = store.get(trace_digest(workload_trace), 32)
        assert profile.capacity == DEFAULT_CAPACITY


class TestTraceDigest:
    def test_memoized_and_length_guarded(self):
        trace = trace_of([(4, 0, LOAD)])
        first = trace_digest(trace)
        assert trace_digest(trace) == first
        trace.append(4, 32, LOAD)
        assert trace_digest(trace) != first

    def test_content_addressed(self):
        one = trace_of([(4, 0, LOAD), (8, 64, STORE)])
        two = trace_of([(4, 0, LOAD), (8, 64, STORE)])
        assert trace_digest(one) == trace_digest(two)
        assert trace_digest(one) != trace_digest(
            trace_of([(4, 0, LOAD), (8, 96, STORE)]))


# -- the shared bounded cache -----------------------------------------

class TestBoundedCache:
    def test_evicts_oldest_only(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert (len(cache), cache.evictions) == (2, 1)

    def test_get_refreshes_recency(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_get_default(self):
        assert BoundedCache(1).get("missing", 42) == 42

    def test_replay_cache_is_bounded(self):
        """The codegen cache evicts one entry at a time, not wholesale."""
        trace = trace_of([(4, 0, LOAD)])
        _REPLAY_CACHE.clear()
        for assoc in range(1, 70):
            simulate_trace_multi(trace, [
                CacheConfig(assoc * 1024, assoc, 32),
                CacheConfig(assoc * 2048, assoc, 64),
            ])
        assert len(_REPLAY_CACHE) == _REPLAY_CACHE.capacity
        assert _REPLAY_CACHE.evictions >= 5


# -- pipeline integration ---------------------------------------------

class TestSessionIntegration:
    GRID = tuple(CacheConfig(size=64 * a * 32, assoc=a, block_size=32)
                 for a in (2, 4, 8))

    def test_stats_multi_sweep_matches_reference(self, tmp_path):
        session = Session(scale=0.03, cache_dir=tmp_path)
        sweep = session.stats_multi("129.compress", configs=self.GRID)
        # the single executed run streamed into the trace store
        store = TraceStore(tmp_path / "traces")
        trace = store.open(trace_key(session.source("129.compress"),
                                     False, session.max_steps))
        assert trace is not None
        for config, stats in zip(self.GRID, sweep):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace, config))
        # the profile landed next to the session's disk cache
        assert list((tmp_path / "stackdist").glob("sd-*.json"))

    def test_no_disk_cache_writes_no_profiles(self, tmp_path):
        session = Session(scale=0.03, cache_dir=tmp_path,
                          use_disk_cache=False)
        session.stats_multi("129.compress", configs=self.GRID)
        assert not any(tmp_path.iterdir())
