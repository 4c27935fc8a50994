"""The one trace handle: acquisition order and its failure paths.

Every trace consumer goes through :class:`repro.store.handle.TraceHandle`,
so the store's I/O faults are tested once per fault, against each of the
handle's four callers: :meth:`Session.stats_multi`, the fused scenario
pass of :meth:`Session.scenario`, the service's ``simulate`` op and
:func:`repro.api.analyze_program` with a store.
Each fault has a documented outcome:

* ``writer.close`` fails with ENOSPC: the same stats, the entry deleted;
* a truncated ``.bin``: the same stats, the entry deleted, exactly one
  re-execution;
* a torn meta sidecar: the same stats (the entry counts as a miss).
"""

from __future__ import annotations

import errno
import json
import shutil

import pytest

from repro.api import analyze_program
from repro.cache.config import CacheConfig
from repro.cache.stackdist import ProfileStore
from repro.compiler.driver import compile_source
from repro.export import canonical_json, report_to_dict
from repro.machine.simulator import Machine
from repro.pipeline.session import Session, default_cache_dir
from repro.scenario import ScenarioSpec, encode_scenario
from repro.service import ops, protocol
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, serve_in_thread
from repro.store import TraceHandle, TraceStore
from repro.store.tracestore import TraceStoreWriter
from repro.tlb import TlbConfig
from tests.conftest import SAMPLE_SOURCE

#: FIFO never reaches the stack-distance profiles, so every call
#: replays the trace itself and meets whatever the store holds.
FIFO = CacheConfig(2048, 2, 32, replacement="fifo")

#: Fields a torn sidecar may lack; each one used to crash the reader.
META_FIELDS = ("rows", "digest", "prefetch_count", "load_accesses",
               "store_accesses", "block_counts", "steps")


# -- the four callers ---------------------------------------------------

def _stats_multi(directory, monkeypatch):
    # The JSON result tier would answer without the trace: drop it.
    for entry in directory.glob("*.json"):
        entry.unlink()
    session = Session(cache_dir=directory)
    key = session.add_source("sample", SAMPLE_SOURCE)
    (stats,) = session.stats_multi("sample", configs=[FIFO])
    profile = session.profile("sample")
    return (stats.load_accesses, stats.load_misses, stats.store_accesses,
            stats.store_misses, stats.prefetch_ops, stats.prefetch_fills,
            profile.block_counts, session._steps[key])


def _scenario(directory, monkeypatch):
    # The scenario tier would answer without the trace: drop it.
    shutil.rmtree(directory / "scenario", ignore_errors=True)
    session = Session(cache_dir=directory)
    key = session.add_source("sample", SAMPLE_SOURCE)
    result = session.scenario("sample", spec=ScenarioSpec(
        tlb=(TlbConfig(page_size=64, entries=4),), pcax_page_size=64))
    return (encode_scenario(result), session.profile("sample").block_counts,
            session._steps[key])


def _simulate(directory, monkeypatch):
    monkeypatch.setattr(ops, "_TRACE_STORE",
                        TraceStore(directory / "traces"))
    monkeypatch.setattr(ops, "_PROFILE_STORE", ProfileStore())
    params = protocol._normalize_simulate({
        "source": SAMPLE_SOURCE,
        "configs": [protocol.cache_config_to_dict(FIFO)]})
    return ops.run_simulate(params)


def _analyze(directory, monkeypatch):
    report = analyze_program(SAMPLE_SOURCE, cache=FIFO,
                             store=TraceStore(directory / "traces"))
    return canonical_json(report_to_dict(report))


CALLERS = {"stats_multi": _stats_multi, "scenario": _scenario,
           "simulate": _simulate, "analyze": _analyze}


@pytest.fixture(params=sorted(CALLERS))
def caller(request):
    return CALLERS[request.param]


@pytest.fixture
def executions(monkeypatch):
    """Counts machine executions, streamed or materialized."""
    counted = []
    for name in ("run", "run_streaming"):
        original = getattr(Machine, name)

        def counting(self, *args, _original=original, **kwargs):
            counted.append(1)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(Machine, name, counting)
    return counted


def _program():
    return compile_source(SAMPLE_SOURCE)


def _entries(directory):
    return sorted(path.name for path in (directory / "traces").glob("tr-*"))


class TestFaults:
    def test_full_disk_at_close(self, caller, tmp_path, monkeypatch):
        reference = caller(tmp_path / "reference", monkeypatch)
        original = TraceStoreWriter.close

        def full_disk(self, **facts):
            original(self, **facts)
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(TraceStoreWriter, "close", full_disk)
        assert caller(tmp_path / "faulty", monkeypatch) == reference
        assert _entries(tmp_path / "faulty") == []

    def test_truncated_bin(self, caller, tmp_path, monkeypatch,
                           executions):
        directory = tmp_path / "store"
        reference = caller(directory, monkeypatch)
        (bin_path,) = (directory / "traces").glob("tr-*.bin")
        bin_path.write_bytes(bin_path.read_bytes()[:24])
        executions.clear()
        assert caller(directory, monkeypatch) == reference
        assert executions == [1]
        assert _entries(directory) == []

    @pytest.mark.parametrize("field", META_FIELDS)
    def test_torn_meta(self, caller, field, tmp_path, monkeypatch):
        directory = tmp_path / "store"
        reference = caller(directory, monkeypatch)
        (meta_path,) = (directory / "traces").glob("tr-*.json")
        meta = json.loads(meta_path.read_text())
        del meta[field]
        meta_path.write_text(json.dumps(meta))
        assert caller(directory, monkeypatch) == reference


class TestAcquisition:
    def test_store_hit_executes_nothing(self, tmp_path, executions):
        store = TraceStore(tmp_path)
        cold = TraceHandle(_program(), "k", store)
        cold.source()
        assert executions == [1] and cold.trace is None
        warm = TraceHandle(_program(), "k", store)
        assert warm.execution() == cold.execution()
        assert executions == [1]

    def test_store_hit_reads_the_sidecar_once(self, tmp_path, monkeypatch,
                                              executions):
        store = TraceStore(tmp_path)
        cold = TraceHandle(_program(), "k", store)
        cold.source()
        executions.clear()
        reads = []
        original = TraceStore.meta

        def counting(self, key):
            reads.append(key)
            return original(self, key)
        monkeypatch.setattr(TraceStore, "meta", counting)
        warm = TraceHandle(_program(), "k", store)
        assert warm.execution() == cold.execution()
        assert reads == ["k"]
        assert executions == []
        assert list(warm.source()) and reads == ["k"]

    def test_without_store_materializes(self, executions):
        handle = TraceHandle(_program(), "k")
        execution = handle.execution()
        assert execution.trace is not None
        assert handle.source() is execution.trace
        assert executions == [1]

    def test_served_analyze_of_a_traced_program_executes_nothing(
            self, tmp_path, monkeypatch, executions):
        monkeypatch.setattr(ops, "_TRACE_STORE", TraceStore(tmp_path))
        params = protocol._normalize_simulate({"source": SAMPLE_SOURCE})
        ops.run_simulate(params)
        executions.clear()
        served = ops.run_analysis(protocol._normalize_analysis(
            {"source": SAMPLE_SOURCE}, execute=True))
        assert executions == []
        assert served == report_to_dict(analyze_program(SAMPLE_SOURCE))


def _repository_traces():
    root = default_cache_dir() / "traces"
    return sorted(path.name for path in root.glob("tr-*")) \
        if root.is_dir() else []


class TestServedStores:
    def test_cache_dir_moves_the_trace_store(self, tmp_path):
        before = _repository_traces()
        config = ServerConfig(port=0, workers=0,
                              cache_dir=tmp_path / "cache")
        with serve_in_thread(config) as handle:
            with ServiceClient.connect(handle.address) as client:
                client.simulate(SAMPLE_SOURCE + "\n/* cache-dir */\n")
        assert list((tmp_path / "cache" / "traces").glob("tr-*.bin"))
        assert list((tmp_path / "cache").glob("svc-*.json"))
        assert _repository_traces() == before

    def test_no_disk_cache_writes_no_trace(self, tmp_path):
        saved = ops._TRACE_STORE
        before = _repository_traces()
        config = ServerConfig(port=0, workers=0, use_disk_cache=False,
                              cache_dir=tmp_path / "cache")
        with serve_in_thread(config) as handle:
            with ServiceClient.connect(handle.address) as client:
                result = client.simulate(
                    SAMPLE_SOURCE + "\n/* no-disk-cache */\n")
        assert result["steps"] > 0
        assert not (tmp_path / "cache").exists()
        assert _repository_traces() == before
        assert ops._TRACE_STORE is saved     # restored on shutdown
