"""Redundant-load analyzer: semantics, the naive oracle, wiring.

Pins the analyzer's exact semantics on crafted traces (first-touch
freshness, reload vs reload-after-store, prefetch transparency),
differentials it against the quadratic backward-scanning reference,
proves streamed inputs bit-identical, and round-trips the
``redundancy`` op through the AG cross-tab, the service protocol, and
the CLI.
"""

import json
import random

import pytest

from repro.__main__ import main
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace
from repro.pipeline.session import Session
from repro.redundancy import (LoadRedundancy, RedundancyStats,
                              ag_crosstab, analyze_redundancy,
                              naive_redundancy)
from repro.scenario import ScenarioSpec, scenario_pass
from repro.service.ops import execute_op
from repro.service.protocol import ProtocolError, parse_request
from repro.store.tracestore import TraceStore
from repro.tlb import TlbConfig
from tests.conftest import SAMPLE_SOURCE


def _trace(rows) -> MemoryTrace:
    trace = MemoryTrace()
    for pc, address, kind in rows:
        trace.append(pc, address, kind)
    return trace


class TestAnalyzerSemantics:
    def test_first_touch_is_fresh(self):
        stats = analyze_redundancy(_trace([
            (0x10, 100, LOAD), (0x10, 200, LOAD), (0x10, 300, LOAD)]))
        load = stats.loads[0x10]
        assert load.accesses == 3
        assert load.redundant == 0
        assert load.fresh == 3
        assert load.ratio == 0.0

    def test_reload_of_loaded_address(self):
        stats = analyze_redundancy(_trace([
            (0x10, 100, LOAD), (0x20, 100, LOAD), (0x10, 100, LOAD)]))
        assert stats.loads[0x20].redundant == 1
        assert stats.loads[0x20].reload_after_store == 0
        assert stats.loads[0x10].redundant == 1  # its own second visit
        assert stats.total_redundant == 2

    def test_reload_after_store(self):
        stats = analyze_redundancy(_trace([
            (0x30, 100, STORE), (0x10, 100, LOAD), (0x10, 100, LOAD)]))
        load = stats.loads[0x10]
        # first load reloads the stored value; second reloads a load
        assert load.redundant == 2
        assert load.reload_after_store == 1

    def test_store_is_not_a_load_access(self):
        stats = analyze_redundancy(_trace([
            (0x30, 100, STORE), (0x30, 100, STORE)]))
        assert stats.loads == {}
        assert stats.total_loads == 0
        assert stats.ratio == 0.0

    def test_prefetch_is_transparent(self):
        # a prefetch neither makes the next load redundant nor breaks
        # the load -> load reload chain it sits inside
        stats = analyze_redundancy(_trace([
            (0x40, 100, PREFETCH), (0x10, 100, LOAD),
            (0x40, 100, PREFETCH), (0x10, 100, LOAD)]))
        load = stats.loads[0x10]
        assert load.accesses == 2
        assert load.redundant == 1
        assert load.reload_after_store == 0

    def test_addresses_are_independent(self):
        stats = analyze_redundancy(_trace([
            (0x10, 100, LOAD), (0x10, 200, LOAD),
            (0x10, 100, LOAD), (0x10, 200, LOAD)]))
        assert stats.loads[0x10].redundant == 2

    def test_empty_trace(self):
        stats = analyze_redundancy(_trace([]))
        assert stats.loads == {}
        assert stats.total_reload_after_store == 0

    def test_pcs_by_redundant_orders_worst_first(self):
        stats = RedundancyStats(loads={
            3: LoadRedundancy(accesses=5, redundant=1),
            1: LoadRedundancy(accesses=5, redundant=4),
            2: LoadRedundancy(accesses=5, redundant=4),
        })
        assert [pc for pc, _ in stats.pcs_by_redundant()] == [1, 2, 3]


class TestNaiveReference:
    def test_agrees_on_crafted_trace(self):
        rows = [(0x10, 100, LOAD), (0x30, 100, STORE),
                (0x10, 100, LOAD), (0x40, 100, PREFETCH),
                (0x10, 100, LOAD), (0x20, 200, LOAD),
                (0x20, 200, LOAD)]
        trace = _trace(rows)
        assert naive_redundancy(trace).loads \
            == analyze_redundancy(trace).loads

    def test_agrees_on_random_traces(self):
        rng = random.Random(1234)
        for _ in range(20):
            rows = []
            for _ in range(rng.randint(0, 300)):
                rows.append((rng.choice((0x10, 0x20, 0x30)),
                             rng.choice((100, 104, 200, 204, 300)),
                             rng.choice((LOAD, LOAD, LOAD, STORE,
                                         PREFETCH))))
            trace = _trace(rows)
            assert naive_redundancy(trace).loads \
                == analyze_redundancy(trace).loads

    def test_agrees_on_random_single_kind_traces(self):
        # one kind per static PC, as in every trace the machine writes
        kind_of = {0x10: LOAD, 0x20: LOAD, 0x30: LOAD, 0x40: STORE,
                   0x50: PREFETCH}
        rng = random.Random(1234)
        for _ in range(20):
            rows = []
            for _ in range(rng.randint(0, 300)):
                pc = rng.choice(tuple(kind_of))
                rows.append((pc, rng.choice((100, 104, 200, 204, 300)),
                             kind_of[pc]))
            trace = _trace(rows)
            assert naive_redundancy(trace).loads \
                == analyze_redundancy(trace).loads

    def test_counts_only_the_load_rows_of_a_mixed_kind_pc(self):
        # a PC whose first row is a store, then one whose first row is
        # a load: each counts exactly its load rows
        rows = [(0x10, 100, STORE), (0x10, 100, LOAD), (0x10, 104, LOAD),
                (0x20, 104, LOAD), (0x20, 104, STORE), (0x20, 104, LOAD),
                (0x20, 200, PREFETCH)]
        trace = _trace(rows)
        assert analyze_redundancy(trace).loads == {
            0x10: LoadRedundancy(accesses=2, redundant=1,
                                 reload_after_store=1),
            0x20: LoadRedundancy(accesses=2, redundant=2,
                                 reload_after_store=1)}
        for source in (trace.chunk_stream(1), trace.chunks(2)):
            assert analyze_redundancy(source) == analyze_redundancy(trace)


class TestStreaming:
    def test_chunked_and_stored_inputs_bit_identical(self, tmp_path):
        rng = random.Random(99)
        rows = [(rng.choice((0x10, 0x20)), rng.randrange(64) * 4,
                 rng.choice((LOAD, LOAD, STORE, PREFETCH)))
                for _ in range(500)]
        trace = _trace(rows)
        reference = analyze_redundancy(trace)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("t", trace, chunk_accesses=64)
        for source in (trace.chunk_stream(7), trace.chunk_stream(1024),
                       store.open("t")):
            assert analyze_redundancy(source).loads == reference.loads


class TestScenarioKernel:
    def test_prefetch_rows_fill_the_tlb_but_not_redundancy(self):
        rows = [(0x10, 0, LOAD), (0x30, 0x4000, PREFETCH),
                (0x10, 0x4000, LOAD), (0x10, 0x4000, LOAD)]
        spec = ScenarioSpec(tlb=(TlbConfig(page_size=64, entries=4),),
                            pcax_page_size=None)
        fetched = scenario_pass(_trace(rows), spec)
        plain = scenario_pass(
            _trace([row for row in rows if row[2] != PREFETCH]), spec)
        (tlb,) = fetched.tlb
        assert (tlb.cache.prefetch_ops, tlb.cache.prefetch_fills) \
            == (1, 1)
        # the prefetch brought the load's page in ...
        assert tlb.load_misses == {0x10: 1}
        assert plain.tlb[0].load_misses == {0x10: 2}
        # ... but not its value: that load is still fresh
        assert fetched.redundancy == plain.redundancy
        assert fetched.redundancy.loads == {0x10: LoadRedundancy(
            accesses=3, redundant=1, reload_after_store=0)}


class TestAgCrosstab:
    def test_pcs_without_infos_are_skipped(self):
        stats = RedundancyStats(loads={
            0x999: LoadRedundancy(accesses=10, redundant=5)})
        totals = ag_crosstab(stats, load_infos={}, load_exec={})
        assert all(row["loads"] == 0 for row in totals.values())

    def test_real_program_attribution(self):
        from repro.api import analyze_program
        report = analyze_program(SAMPLE_SOURCE)
        stats = analyze_redundancy(report.execution.trace)
        load_exec = report.profile.load_exec_counts()
        totals = ag_crosstab(stats, report.load_infos, load_exec)
        # every class row is internally consistent
        for row in totals.values():
            assert 0 <= row["reload_after_store"] <= row["redundant"] \
                <= row["loads"]
        # classes exist that actually saw traffic
        assert any(row["loads"] for row in totals.values())


RED_SRC = """
int a[256];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 512; i = i + 1) {
    s = s + a[i & 7];
    a[i & 7] = s;
    s = s + a[i & 7];
  }
  print_int(s);
  return 0;
}
"""


class TestSessionWiring:
    def test_session_scenario_redundancy_memoized_and_consistent(
            self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.add_source("w", RED_SRC)
        stats = session.scenario("w").redundancy
        assert stats.total_redundant > 0
        assert stats.total_reload_after_store > 0
        assert session.scenario("w").redundancy is stats
        # a fresh session reads the scenario tier identically
        other = Session(cache_dir=tmp_path)
        other.add_source("w", RED_SRC)
        assert other.scenario("w").redundancy.loads == stats.loads
        # and one without a disk cache replays a materialized trace
        bare = Session(use_disk_cache=False)
        bare.add_source("w", RED_SRC)
        assert bare.scenario("w").redundancy.loads == stats.loads


class TestServiceOp:
    def _params(self, **over):
        payload = {"op": "redundancy",
                   "params": {"source": RED_SRC, **over}}
        return parse_request(json.dumps(payload).encode()).params

    def test_round_trip(self):
        result = execute_op("redundancy", self._params())
        assert result["steps"] > 0
        assert result["total_redundant"] <= result["total_loads"]
        assert result["total_reload_after_store"] \
            <= result["total_redundant"]
        for row in result["loads"].values():
            assert row["redundant"] <= row["accesses"]
        assert set(result["classes"])  # AG rows present
        for row in result["classes"].values():
            assert row["reload_after_store"] <= row["redundant"] \
                <= row["loads"]

    def test_deterministic_across_store_state(self):
        params = self._params()
        assert execute_op("redundancy", params) \
            == execute_op("redundancy", params)

    def test_bad_params_rejected(self):
        with pytest.raises(ProtocolError):
            self._params(source="")
        with pytest.raises(ProtocolError):
            self._params(max_steps="many")


class TestCli:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(RED_SRC)
        return str(path)

    def test_json_output(self, source_file, capsys):
        assert main(["redundancy", source_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_redundant"] <= payload["total_loads"]
        assert payload["classes"]

    def test_human_output(self, source_file, capsys):
        assert main(["redundancy", source_file, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "redundant loads /" in out
        assert "after store" in out
