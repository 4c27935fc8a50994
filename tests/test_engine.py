"""Parallel experiment-engine tests.

Covers the single-pass multi-configuration replay
(:func:`simulate_trace_multi`), the warm stage (a campaign fanned out over worker processes), and the
disk-cache hardening against concurrent or corrupt writers.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                CacheConfig, associativity_sweep,
                                size_sweep)
from repro.cache.model import simulate_trace, simulate_trace_multi
from repro.campaign import Campaign
from repro.experiments.grid import campaign_cells
from repro.machine.simulator import Machine
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace
from repro.pipeline.session import RunKey, Session, _resolve_jobs
from repro.store.handle import TraceHandle
from tests.conftest import SMALL_GRID_NAMES

WL = "129.compress"
SCALE = 0.03

#: Same geometry under every replacement policy, plus a different
#: geometry — the shapes the sweeps exercise.
POLICY_CONFIGS = [
    CacheConfig(1024, 2, 32, replacement="lru"),
    CacheConfig(1024, 2, 32, replacement="fifo"),
    CacheConfig(1024, 2, 32, replacement="random"),
    CacheConfig(4096, 4, 64, replacement="lru"),
]


def trace_of(accesses):
    """accesses: iterable of (pc, addr, kind)."""
    trace = MemoryTrace()
    for pc, addr, kind in accesses:
        trace.append(pc, addr, kind)
    return trace


def stats_key(stats):
    """Every observable field of a CacheStats, for bit-exact compares."""
    return (stats.config, stats.load_accesses, stats.load_misses,
            stats.store_accesses, stats.store_misses,
            stats.prefetch_ops, stats.prefetch_fills)


@pytest.fixture(scope="module")
def workload_trace():
    """A real (execution-produced) memory trace, once per module."""
    session = Session(scale=SCALE, use_disk_cache=False)
    key = RunKey(WL, "input1", False)
    handle = TraceHandle(session.program(WL), session._trace_key(key))
    return handle.source()      # no store: materialized


# -- simulate_trace_multi ---------------------------------------------

class TestMultiEquivalence:
    def test_empty_config_list(self):
        assert simulate_trace_multi(trace_of([]), []) == []

    def test_empty_trace(self):
        results = simulate_trace_multi(trace_of([]), POLICY_CONFIGS)
        for config, stats in zip(POLICY_CONFIGS, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace_of([]), config))

    def test_mixed_kinds_bit_identical(self):
        trace = trace_of([
            (4, 0, LOAD), (8, 64, STORE), (4, 0, LOAD),
            (12, 4096, PREFETCH), (16, 4096, LOAD), (8, 128, STORE),
            (20, 8192, LOAD), (12, 12288, PREFETCH), (4, 32, LOAD),
        ])
        results = simulate_trace_multi(trace, POLICY_CONFIGS)
        for config, stats in zip(POLICY_CONFIGS, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace, config))

    def test_pcs_with_several_kinds_count_each_row(self):
        # PC 4 loads then stores, PC 8 stores, prefetches then loads:
        # the shared access tally is per (pc, kind), as the per-row
        # replay counts, for every input shape
        trace = trace_of([
            (4, 0, LOAD), (8, 64, STORE), (4, 0, STORE), (8, 64, PREFETCH),
            (4, 32, LOAD), (8, 96, LOAD), (8, 64, STORE), (4, 0, STORE),
        ])
        expected = [stats_key(simulate_trace(trace, config))
                    for config in POLICY_CONFIGS]
        assert expected[0][1] == {4: 2, 8: 1}
        assert expected[0][3] == {8: 2, 4: 2}
        for source in (trace, trace.chunk_stream(3), trace.chunks(3)):
            assert [stats_key(stats) for stats in simulate_trace_multi(
                source, POLICY_CONFIGS)] == expected

    def test_duplicate_configs_have_independent_state(self):
        config = CacheConfig(1024, 2, 32, replacement="random")
        trace = trace_of([(4, a * 32, LOAD) for a in range(200)]
                         + [(4, a * 32, LOAD) for a in range(200)])
        one, two = simulate_trace_multi(trace, [config, config])
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
        trace = trace_of(accesses)
        results = simulate_trace_multi(trace, POLICY_CONFIGS)
        for config, stats in zip(POLICY_CONFIGS, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(trace, config))

    def test_workload_trace_bit_identical(self, workload_trace):
        configs = [BASELINE_CONFIG, TRAINING_CONFIG,
                   CacheConfig(8192, 4, 32, replacement="fifo"),
                   CacheConfig(8192, 4, 32, replacement="random")]
        results = simulate_trace_multi(workload_trace, configs)
        for config, stats in zip(configs, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(workload_trace, config))

    def test_sweep_configs_bit_identical(self, workload_trace):
        configs = list(dict.fromkeys(associativity_sweep()
                                     + size_sweep()))
        results = simulate_trace_multi(workload_trace, configs)
        for config, stats in zip(configs, results):
            assert stats_key(stats) == stats_key(
                simulate_trace(workload_trace, config))


# -- the warm stage: a campaign ----------------------------------------

def _warm(session, jobs, directory=None):
    return Campaign(session, numbers=[10], directory=directory).run(
        jobs=jobs)


def _measurements(session):
    return [
        (m.load_misses, m.load_exec, m.steps)
        for name in SMALL_GRID_NAMES
        for m in [session.measurement(name,
                                      cache_config=TRAINING_CONFIG)]
    ]


@pytest.mark.usefixtures("small_grid")
class TestWarm:
    def test_parallel_matches_serial(self, tmp_path):
        serial = Session(scale=SCALE, cache_dir=tmp_path / "a")
        report = _warm(serial, jobs=1)
        assert (report.computed, report.cached) == (3, 0)

        fanned = Session(scale=SCALE, cache_dir=tmp_path / "b")
        parallel = _warm(fanned, jobs=4)  # clamped to the two run cells
        assert (parallel.computed, parallel.cached) == (3, 0)

        assert parallel.tables == report.tables
        assert _measurements(serial) == _measurements(fanned)

    def test_warm_fills_memory_without_disk(self, tmp_path, monkeypatch):
        session = Session(scale=SCALE, cache_dir=tmp_path / "c",
                          use_disk_cache=False)
        _warm(session, jobs=2, directory=tmp_path / "campaign")
        # No disk tier for workers to publish to: the parent computed
        # every cell itself, so measuring replays nothing more.
        with monkeypatch.context() as patch:
            patch.setattr(Session, "_replay", None)
            baseline = _measurements(session)
        assert not (tmp_path / "c").exists()

        direct = Session(scale=SCALE, cache_dir=tmp_path / "d",
                         use_disk_cache=False)
        assert _measurements(direct) == baseline

    def test_rewarm_is_all_cache_hits(self, tmp_path):
        session = Session(scale=SCALE, cache_dir=tmp_path / "e")
        _warm(session, jobs=1)
        report = _warm(session, jobs=4)
        # two run cells and the table, read from the table tier
        assert (report.computed, report.cached) == (0, 3)
        assert "3 cached" in report.describe()

    def test_fresh_session_reads_warmed_disk(self, tmp_path,
                                             monkeypatch):
        cache_dir = tmp_path / "f"
        _warm(Session(scale=SCALE, cache_dir=cache_dir), jobs=4)
        fresh = Session(scale=SCALE, cache_dir=cache_dir)

        def boom(*args, **kwargs):
            raise AssertionError("fresh session executed a workload")
        monkeypatch.setattr(Machine, "run", boom)
        monkeypatch.setattr(Machine, "run_streaming", boom)
        _measurements(fresh)
        assert not fresh._traces  # served from disk, never executed

    def test_standard_plan_shape(self):
        # the plan the warm stage runs: one cell per Table 10 run
        plan = campaign_cells([10])
        assert [cell.workload for cell in plan] == list(SMALL_GRID_NAMES)
        for cell in plan:
            assert cell.input_name in ("input1", "input2")
            assert isinstance(cell.optimize, bool)
            assert cell.configs  # never an empty config tuple

    def test_resolve_jobs(self, monkeypatch):
        assert _resolve_jobs(3) == 3
        assert _resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert _resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "")
        assert _resolve_jobs(None) >= 1
        monkeypatch.delenv("REPRO_JOBS")
        assert _resolve_jobs(None) >= 1


# -- disk-cache hardening ---------------------------------------------

class TestDiskCacheHardening:
    def _seed_cache(self, cache_dir):
        session = Session(scale=SCALE, cache_dir=cache_dir)
        stats = session.stats(WL)
        path = session._results.path(session._entry_key(
            RunKey(WL, "input1", False), BASELINE_CONFIG))
        assert path.exists()
        return stats, path

    def test_no_temp_files_left_behind(self, tmp_path):
        _, path = self._seed_cache(tmp_path / "c")
        assert not list(path.parent.glob("*.tmp"))
        assert f".{os.getpid()}." not in path.name

    def test_partial_entry_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        path.write_text(json.dumps({"version": 3, "steps": 1}))
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses

    def test_wrong_types_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        payload = json.loads(path.read_text())
        payload["load_misses"] = {"not-an-int": "nope"}
        path.write_text(json.dumps(payload))
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses

    def test_old_schema_version_resimulated(self, tmp_path):
        stats, path = self._seed_cache(tmp_path / "c")
        payload = json.loads(path.read_text())
        payload["version"] = 1
        path.write_text(json.dumps(payload))
        again = Session(scale=SCALE, cache_dir=tmp_path / "c").stats(WL)
        assert again.load_misses == stats.load_misses
