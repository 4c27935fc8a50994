"""TLB scenario family: geometry mapping, sweeps, PCAX, wiring.

The model's one load-bearing claim is that a TLB *is* a cache whose
blocks are pages — so these tests check the ``TlbConfig`` →
``CacheConfig`` mapping exactly, prove the sweep bit-identical across
materialized / chunk-streamed / store-replayed inputs, pin the PCAX
predictor's semantics on crafted traces, and round-trip the ``tlb``
op through the service protocol and the CLI.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cache.config import CacheConfig
from repro.cache import model
from repro.cache.lru import BoundedCache
from repro.cache.model import simulate_trace
from repro.cache.stackdist import ProfileStore
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace
from repro.pipeline.session import Session
from repro.redundancy import analyze_redundancy
from repro.scenario import ScenarioSpec, scenario_pass
from repro.service.ops import execute_op
from repro.service.protocol import ProtocolError, parse_request
from repro.store.tracestore import TraceStore
from repro.tlb import (DEFAULT_ENTRIES, DEFAULT_PAGE_SIZE,
                       DEFAULT_THRESHOLD, MIN_ACCESSES, PcaxLoad,
                       TlbConfig, naive_pcax, pcax_crosstab,
                       pcax_profile, simulate_tlb)
from tests.conftest import SAMPLE_SOURCE


def _trace(rows) -> MemoryTrace:
    trace = MemoryTrace()
    for pc, address, kind in rows:
        trace.append(pc, address, kind)
    return trace


# -- geometry ----------------------------------------------------------

class TestTlbConfig:
    def test_defaults_are_a_shipped_l1_dtlb(self):
        config = TlbConfig()
        assert config.page_size == DEFAULT_PAGE_SIZE == 4096
        assert config.entries == DEFAULT_ENTRIES == 64
        assert config.fully_associative
        assert config.ways == 64
        assert config.sets == 1
        assert config.reach == 4096 * 64

    def test_cache_mapping_is_exact(self):
        config = TlbConfig(page_size=256, entries=8, assoc=2)
        assert config.as_cache_config() == CacheConfig(
            size=256 * 8, assoc=2, block_size=256, replacement="lru")
        assert config.sets == 4
        assert not config.fully_associative

    def test_fully_associative_sentinel(self):
        config = TlbConfig(page_size=64, entries=4, assoc=0)
        assert config.ways == 4
        assert config.sets == 1
        assert config.as_cache_config().assoc == 4

    @pytest.mark.parametrize("kwargs", [
        {"page_size": 100},          # not a power of two
        {"page_size": 0},
        {"entries": 6},              # not a power of two
        {"entries": 0},
        {"entries": 8, "assoc": 3},  # assoc does not divide entries
        {"entries": 8, "assoc": -2},
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TlbConfig(**kwargs)

    def test_describe(self):
        assert TlbConfig().describe() \
            == "64-entry fully-assoc 4KB-page TLB"
        assert TlbConfig(page_size=256, entries=8, assoc=2).describe() \
            == "8-entry 2-way 256B-page TLB"

    def test_to_dict_round_trips(self):
        config = TlbConfig(page_size=128, entries=16, assoc=4)
        assert TlbConfig(**config.to_dict()) == config


# -- the sweep ---------------------------------------------------------

def _strided(pc: int, start: int, stride: int, count: int,
             kind: int = LOAD):
    return [(pc, start + i * stride, kind) for i in range(count)]


class TestSimulateTlb:
    def test_sweep_equals_direct_replay(self):
        trace = _trace(
            _strided(0x10, 0x8000, 68, 50)
            + _strided(0x20, 0x9000, 64, 30, STORE)
            + _strided(0x10, 0x8000, 68, 50))
        configs = [TlbConfig(page_size=64, entries=4),
                   TlbConfig(page_size=64, entries=8, assoc=2),
                   TlbConfig(page_size=256, entries=2)]
        for stats in simulate_tlb(trace, configs):
            direct = simulate_trace(trace,
                                    stats.config.as_cache_config())
            assert stats.load_misses == direct.load_misses
            assert stats.store_misses == direct.store_misses
            assert stats.load_accesses == direct.load_accesses

    def test_compulsory_misses_count_pages(self):
        # 32 sequential loads over 4 pages, TLB large enough to hold
        # them all: exactly one walk per distinct page
        trace = _trace(_strided(0x10, 0, 32, 32))
        (stats,) = simulate_tlb(trace, [TlbConfig(page_size=256,
                                                  entries=8)])
        assert stats.total_accesses == 32
        assert stats.total_misses == 4
        assert stats.misses_of(0x10) == 4
        assert stats.accesses_of(0x10) == 32
        assert stats.miss_rate == pytest.approx(4 / 32)

    def test_thrash_beyond_reach(self):
        # round-robin over 3 pages with a 2-entry LRU TLB: every
        # access walks after the compulsory fills
        rows = []
        for _ in range(10):
            for page in range(3):
                rows.append((0x10, page * 64, LOAD))
        (stats,) = simulate_tlb(_trace(rows),
                                [TlbConfig(page_size=64, entries=2)])
        assert stats.total_misses == 30

    def test_prefetches_do_not_walk(self):
        rows = [(0x10, i * 64, PREFETCH) for i in range(16)]
        rows += [(0x20, 0, LOAD)]
        (stats,) = simulate_tlb(_trace(rows),
                                [TlbConfig(page_size=64, entries=2)])
        assert stats.total_accesses == 1
        assert stats.pcs_by_misses() == [(0x20, 1)]

    def test_empty_trace(self):
        (stats,) = simulate_tlb(_trace([]), [TlbConfig()])
        assert stats.total_accesses == 0
        assert stats.miss_rate == 0.0

    def test_streamed_and_store_replayed_inputs_bit_identical(
            self, tmp_path):
        trace = _trace(
            _strided(0x10, 0x8000, 68, 120)
            + _strided(0x30, 0xF000, -52, 80)
            + _strided(0x20, 0x8000, 68, 120, STORE))
        configs = [TlbConfig(page_size=64, entries=4),
                   TlbConfig(page_size=128, entries=4, assoc=2)]
        reference = simulate_tlb(trace, configs)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("t", trace, chunk_accesses=48)
        for source in (trace.chunk_stream(7),
                       trace.chunk_stream(1024), store.open("t")):
            for ref, got in zip(reference,
                                simulate_tlb(source, configs)):
                assert got.load_misses == ref.load_misses
                assert got.store_misses == ref.store_misses
                assert got.load_accesses == ref.load_accesses
                assert got.store_accesses == ref.store_accesses

    def test_profile_store_serves_resweep(self):
        trace = _trace(_strided(0x10, 0x8000, 68, 200)
                       + _strided(0x20, 0x9000, -36, 100))
        store = ProfileStore()
        # three fully-assoc geometries share one set mapping, so the
        # sweep profiles once and persists the distance histograms
        simulate_tlb(trace, [TlbConfig(page_size=64, entries=2),
                             TlbConfig(page_size=64, entries=4),
                             TlbConfig(page_size=64, entries=8)],
                     store=store)
        assert store.counters["sweep_puts"] >= 1
        # a fresh geometry at the same page size is served from the
        # stored profile, bit-identical to a direct replay
        config = TlbConfig(page_size=64, entries=16)
        (served,) = simulate_tlb(trace, [config], store=store)
        assert store.counters["sweep_memory_hits"] >= 1
        direct = simulate_trace(trace, config.as_cache_config())
        assert served.load_misses == direct.load_misses


# -- PCAX --------------------------------------------------------------

class TestPcax:
    def test_constant_stride_is_friendly(self):
        # pages 0,1,2,...: after the warmup access every translation
        # is last + 1
        trace = _trace(_strided(0x10, 0, 64, 40))
        profile = pcax_profile(trace, page_size=64)
        load = profile.loads[0x10]
        assert load.accesses == 40
        # first access seeds, second learns the stride, rest predict
        assert load.predicted == 38
        assert 0x10 in profile.friendly_set()

    def test_same_page_loop_is_friendly(self):
        trace = _trace([(0x10, 8, LOAD)] * 10)
        profile = pcax_profile(trace, page_size=64)
        load = profile.loads[0x10]
        assert load.predicted == 9
        assert load.ratio == 1.0

    def test_random_pages_are_unfriendly(self):
        pages = [0, 7, 2, 9, 4, 1, 8, 3, 6, 5]
        trace = _trace([(0x10, p * 64, LOAD) for p in pages])
        profile = pcax_profile(trace, page_size=64)
        assert 0x10 not in profile.friendly_set()

    def test_single_access_pc_never_friendly(self):
        trace = _trace([(0x10, 0, LOAD)])
        profile = pcax_profile(trace, page_size=64, threshold=0.0)
        load = profile.loads[0x10]
        assert load.accesses == 1
        assert load.accesses < MIN_ACCESSES
        assert load.predictable_accesses == 0
        assert load.ratio == 0.0
        assert profile.friendly_set() == set()

    def test_stores_and_prefetches_ignored(self):
        trace = _trace([(0x10, 0, STORE), (0x10, 0x4000, PREFETCH),
                        (0x20, 0, LOAD), (0x20, 64, LOAD)])
        profile = pcax_profile(trace, page_size=64)
        assert set(profile.loads) == {0x20}
        assert profile.total_accesses == 2
        assert profile.total_predicted == 0  # stride learned, not yet used

    def test_stride_relearns_after_phase_change(self):
        # stride +1 for 10 pages, then jumps to stride +3: exactly
        # one misprediction at the change plus one while relearning
        rows = _strided(0x10, 0, 64, 10)
        last = 9 * 64
        rows += [(0x10, last + 3 * 64 * (i + 1), LOAD)
                 for i in range(10)]
        profile = pcax_profile(_trace(rows), page_size=64)
        load = profile.loads[0x10]
        assert load.accesses == 20
        assert load.predicted == (10 - 2) + (10 - 1)

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValueError):
            pcax_profile(_trace([]), page_size=100)

    def test_streamed_profile_identical(self, tmp_path):
        trace = _trace(_strided(0x10, 0, 68, 100)
                       + _strided(0x20, 0x9000, -40, 60))
        reference = pcax_profile(trace, page_size=64)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("t", trace, chunk_accesses=32)
        for source in (trace.chunk_stream(7), store.open("t")):
            assert pcax_profile(source, page_size=64).loads \
                == reference.loads

    def test_crosstab_partitions_universe(self):
        universe = {1, 2, 3, 4, 5, 6}
        cross = pcax_crosstab(friendly={1, 2, 9},
                              delinquent={2, 3, 9}, universe=universe)
        assert cross == {"both": 1, "delinquent_only": 1,
                         "friendly_only": 1, "neither": 3}
        assert sum(cross.values()) == len(universe)

    def test_default_threshold(self):
        assert PcaxLoad(accesses=10, predicted=9).ratio \
            == pytest.approx(1.0)
        assert DEFAULT_THRESHOLD == 0.9


# -- the scenario kernel -----------------------------------------------

def _random_trace(seed: int, rows: int = 400,
                  mixed: bool = False) -> MemoryTrace:
    """Random rows over a small footprint, one kind per static PC (as
    in every trace the machine writes) unless ``mixed`` draws each
    row's kind."""
    rng = random.Random(seed)
    kind_of = {0x10: LOAD, 0x14: LOAD, 0x18: LOAD, 0x20: STORE,
               0x24: STORE, 0x30: PREFETCH}
    pcs = tuple(kind_of)
    kinds = (LOAD, LOAD, LOAD, STORE, PREFETCH)
    return _trace([(pc, rng.randrange(0, 1 << 12, 4),
                    rng.choice(kinds) if mixed else kind_of[pc])
                   for pc in (rng.choice(pcs) for _ in range(rows))])


#: Two geometries with different page sizes, PCAX at a third size (so
#: the kernel computes a page number no geometry shares), redundancy.
FULL_SPEC = ScenarioSpec(tlb=(TlbConfig(page_size=64, entries=4),
                              TlbConfig(page_size=256, entries=8,
                                        assoc=2)),
                         pcax_page_size=128)


class TestScenarioKernel:
    def test_part_only_specs_match_the_full_pass(self):
        trace = _random_trace(1)
        full = scenario_pass(trace, FULL_SPEC)
        tlb_only = scenario_pass(trace, replace(
            FULL_SPEC, pcax_page_size=None, redundancy=False))
        assert tlb_only.pcax is None and tlb_only.redundancy is None
        assert tlb_only.tlb == full.tlb
        pcax_only = scenario_pass(trace, replace(FULL_SPEC, tlb=(),
                                                 redundancy=False))
        assert pcax_only.tlb == [] and pcax_only.redundancy is None
        assert pcax_only.pcax == full.pcax
        redundancy_only = scenario_pass(trace, replace(
            FULL_SPEC, tlb=(), pcax_page_size=None))
        assert redundancy_only.tlb == [] and redundancy_only.pcax is None
        assert redundancy_only.redundancy == full.redundancy
        # the public one-part analyses are those passes
        assert pcax_profile(trace, page_size=128) == full.pcax
        assert analyze_redundancy(trace) == full.redundancy
        assert [stats.cache for stats in full.tlb] \
            == [stats.cache for stats in simulate_tlb(trace,
                                                      FULL_SPEC.tlb)]

    def test_one_shot_chunks_match_stream_and_trace(self):
        trace = _random_trace(2)
        reference = scenario_pass(trace, FULL_SPEC)
        assert scenario_pass(trace.chunk_stream(7), FULL_SPEC) == reference
        assert scenario_pass(trace.chunks(7), FULL_SPEC) == reference

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_pcax_matches_naive_reference(self, seed, mixed):
        # ``mixed`` gives PCs that load, store and prefetch, some of
        # them first seen as a store or a prefetch
        trace = _random_trace(seed, mixed=mixed)
        for page_size in (64, 128, 1024):
            assert pcax_profile(trace, page_size=page_size).loads \
                == naive_pcax(trace, page_size).loads
        stream = scenario_pass(trace.chunk_stream(5), FULL_SPEC)
        assert stream.pcax.loads == naive_pcax(trace, 128).loads
        assert [stats.cache for stats in stream.tlb] \
            == [simulate_trace(trace, config.as_cache_config())
                for config in FULL_SPEC.tlb]

    @pytest.mark.parametrize("chunk_accesses", [1, 2, 3, 7])
    def test_stride_survives_chunk_boundaries(self, chunk_accesses):
        # a two-page stride, interleaved with a same-page PC so the
        # strided PC's accesses straddle every chunk boundary
        rows = []
        for i in range(20):
            rows += [(0x10, i * 2 * 64, LOAD), (0x20, 8, LOAD)]
        trace = _trace(rows)
        spec = ScenarioSpec(tlb=(), pcax_page_size=64, redundancy=False)
        for source in (trace.chunk_stream(chunk_accesses),
                       trace.chunks(chunk_accesses)):
            loads = scenario_pass(source, spec).pcax.loads
            assert loads == {0x10: PcaxLoad(accesses=20, predicted=18),
                             0x20: PcaxLoad(accesses=20, predicted=19)}

    def test_kernel_cache_is_bounded_and_keyed_by_spec(self,
                                                        monkeypatch):
        # the scenario pass compiles into the cache replays' bounded
        # cache, one entry per geometries-and-parts
        assert model._REPLAY_CACHE.capacity is not None
        cache = BoundedCache(2)
        monkeypatch.setattr(model, "_REPLAY_CACHE", cache)
        trace = _random_trace(3)
        full = scenario_pass(trace, FULL_SPEC)
        assert len(cache) == 1
        (kernel,) = cache._entries.values()
        # the threshold only labels the result: same kernel
        relabelled = scenario_pass(trace, replace(FULL_SPEC,
                                                  threshold=0.5))
        assert len(cache) == 1 and relabelled.tlb == full.tlb
        scenario_pass(trace, replace(FULL_SPEC, redundancy=False))
        assert len(cache) == 2
        scenario_pass(trace, replace(FULL_SPEC, pcax_page_size=64))
        assert len(cache) == 2 and cache.evictions == 1
        scenario_pass(trace, FULL_SPEC)
        assert kernel not in cache._entries.values()


# -- wiring: session, service, CLI -------------------------------------

TLB_SRC = """
int a[2048];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 2048; i = i + 1)
    s = s + a[(i * 17) & 2047];
  print_int(s);
  return 0;
}
"""


class TestSessionWiring:
    def test_session_scenario_tlb_matches_cache_sweep(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.add_source("w", TLB_SRC)
        config = TlbConfig(page_size=64, entries=4)
        spec = ScenarioSpec(tlb=(config,), pcax_page_size=64)
        (stats,) = session.scenario("w", spec=spec).tlb
        direct = session.stats("w",
                               cache_config=config.as_cache_config())
        assert stats.load_misses == direct.load_misses
        assert stats.store_misses == direct.store_misses
        # a second call is a tier hit, bit-identical
        (again,) = session.scenario("w", spec=spec).tlb
        assert again.load_misses == stats.load_misses
        # so is a fresh session's read of the disk entry
        other = Session(cache_dir=tmp_path)
        other.add_source("w", TLB_SRC)
        (stored,) = other.scenario("w", spec=spec).tlb
        assert stored.load_misses == stats.load_misses
        assert stored.store_misses == stats.store_misses

    def test_session_scenario_pcax_is_memoized(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.add_source("w", TLB_SRC)
        config = TlbConfig(page_size=64, entries=4)
        first = session.scenario("w", spec=ScenarioSpec(
            tlb=(config,), pcax_page_size=64)).pcax
        assert session.scenario("w", spec=ScenarioSpec(
            tlb=(config,), pcax_page_size=64)).pcax is first
        other = session.scenario("w", spec=ScenarioSpec(
            tlb=(config,), pcax_page_size=128)).pcax
        assert other is not first


class TestServiceOp:
    def _params(self, **over):
        payload = {"op": "tlb", "params": {"source": TLB_SRC, **over}}
        return parse_request(json.dumps(payload).encode()).params

    def test_round_trip(self):
        params = self._params(
            geometries=[{"page_size": 64, "entries": 4}])
        result = execute_op("tlb", params)
        assert result["steps"] > 0
        (entry,) = result["results"]
        assert entry["geometry"] == {"page_size": 64, "entries": 4,
                                     "assoc": 0}
        assert entry["total_misses"] <= entry["total_accesses"]
        pcax = result["pcax"]
        assert pcax["page_size"] == 64
        assert set(pcax["crosstab"]) == {"both", "delinquent_only",
                                         "friendly_only", "neither"}
        assert sum(pcax["crosstab"].values()) == len(pcax["loads"])

    def test_defaults_and_dedup(self):
        params = self._params(
            geometries=[{"page_size": 4096, "entries": 64},
                        {"page_size": 4096, "entries": 64, "assoc": 0}])
        assert params["geometries"] \
            == [{"page_size": 4096, "entries": 64, "assoc": 0}]
        assert params["threshold"] == DEFAULT_THRESHOLD
        default = self._params()
        assert default["geometries"] == [TlbConfig().to_dict()]

    @pytest.mark.parametrize("bad", [
        {"geometries": []},
        {"geometries": [{"page_size": 100, "entries": 4}]},
        {"geometries": [{"page": 64}]},
        {"geometries": ["64,4"]},
        {"threshold": 0.0},
        {"threshold": 1.5},
        {"source": ""},
    ])
    def test_bad_params_rejected(self, bad):
        with pytest.raises(ProtocolError):
            self._params(**{"source": TLB_SRC, **bad})

    def test_deterministic_across_store_state(self):
        params = self._params(
            geometries=[{"page_size": 64, "entries": 4}])
        cold = execute_op("tlb", params)
        warm = execute_op("tlb", params)   # trace store now warm
        assert cold == warm


class TestCli:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SAMPLE_SOURCE)
        return str(path)

    def test_json_output(self, source_file, capsys):
        assert main(["tlb", source_file, "--geometry", "64,4",
                     "--geometry", "256,8,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2
        assert payload["results"][1]["geometry"]["assoc"] == 2
        assert "crosstab" in payload["pcax"]

    def test_human_output(self, source_file, capsys):
        assert main(["tlb", source_file, "--page-size", "64",
                     "--entries", "4", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "4-entry fully-assoc 64B-page TLB" in out
        assert "PCAX @ 64B pages" in out
        assert "delinquent-only:" in out

    def test_bad_geometry_is_exit_2(self, source_file, capsys):
        assert main(["tlb", source_file, "--geometry", "64"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_json_to_file(self, source_file, tmp_path, capsys):
        out = tmp_path / "tlb.json"
        assert main(["tlb", source_file, "--geometry", "64,4",
                     "--json", str(out)]) == 0
        assert json.loads(out.read_text())["results"]
