"""Delinquency-analysis service tests.

Covers the wire protocol, served-vs-in-process result equality, request
coalescing, backpressure/overload behaviour, per-request timeouts,
malformed-request handling, the metrics snapshot, and both tiers of the
result cache.  Servers run on a background thread (``serve_in_thread``)
with the single-thread pool (``workers=0``) so the suite stays fast and
deterministic on one core; the process-pool tests cover concurrent
requests and recovery from a killed pool process.
"""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.api import analyze_program
from repro.cache.config import CacheConfig
from repro.cache.lru import BoundedCache
from repro.cache.model import simulate_trace
from repro.compiler.driver import compile_source
from repro.export import report_to_dict
from repro.machine.simulator import Machine
from repro.service.client import (ServiceClient, ServiceError,
                                  parse_address)
from repro.service.protocol import (PROTOCOL_VERSION, ProtocolError,
                                    parse_request, request_key)
from repro.service.scheduler import RESULT_VERSION, BatchScheduler
from repro.service.server import (ServerConfig, run_server,
                                  serve_in_thread)
from repro.store.tier import SERVICE, JsonTier
from tests.conftest import time_scaled

SOURCE = r"""
int a[512];
int main(int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < 512; i = i + 1)
        a[i] = i;
    for (i = 0; i < 512; i = i + 1)
        s = s + a[i];
    print_int(s + n);
    return 0;
}
"""

SMALL = ("int a[64]; int main() { int i; "
         "for (i = 0; i < 64; i = i + 1) a[i] = i; "
         "print_int(a[9]); return 0; }")


def _variant(tag: int) -> str:
    """A distinct-but-cheap source per test, for fresh cache keys."""
    return SMALL.replace("a[9]", f"a[{tag}]")


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(ServerConfig(
        port=0, workers=0, use_disk_cache=False))
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(server.host, server.port, timeout=60.0) as c:
        yield c


class TestProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:8642") == ("127.0.0.1", 8642)
        assert parse_address("[::1]:99") == ("::1", 99)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address("host:notaport")

    def test_defaults_spelled_out_share_a_key(self):
        implicit = parse_request(json.dumps(
            {"op": "analyze", "params": {"source": SMALL}}).encode())
        explicit = parse_request(json.dumps(
            {"op": "analyze",
             "params": {"source": SMALL, "optimize": False,
                        "delta": 0.10}}).encode())
        assert implicit.key == explicit.key

    def test_distinct_params_distinct_keys(self):
        base = parse_request(json.dumps(
            {"op": "analyze", "params": {"source": SMALL}}).encode())
        optimized = parse_request(json.dumps(
            {"op": "analyze",
             "params": {"source": SMALL,
                        "optimize": True}}).encode())
        classify = parse_request(json.dumps(
            {"op": "classify", "params": {"source": SMALL}}).encode())
        assert len({base.key, optimized.key, classify.key}) == 3

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(json.dumps(
                {"op": "health", "version": 99}).encode())
        assert err.value.code == "bad_request"

    def test_control_ops_have_no_cache_key(self):
        request = parse_request(json.dumps({"op": "health"}).encode())
        assert request.key is None

    def test_request_key_is_content_hash(self):
        params = {"source": SMALL}
        normalized = parse_request(json.dumps(
            {"op": "analyze", "params": params}).encode()).params
        assert request_key("analyze", normalized) \
            == request_key("analyze", dict(normalized))


class TestRoundTrip:
    def test_health(self, client):
        health = client.call("health")
        assert health["status"] == "ok"
        assert health["protocol_version"] == PROTOCOL_VERSION
        assert health["pool_mode"] == "thread"

    def test_analyze_matches_in_process(self, client):
        served = client.call("analyze", {"source": SOURCE})
        local = report_to_dict(analyze_program(SOURCE))
        # the acceptance bar: byte-identical serialized payloads
        assert json.dumps(served, sort_keys=False) \
            == json.dumps(local, sort_keys=False)

    def test_classify_matches_static_in_process(self, client):
        served = client.call("classify", {"source": SOURCE})
        local = report_to_dict(analyze_program(SOURCE, execute=False))
        assert json.dumps(served) == json.dumps(local)
        assert "rho" not in served["summary"]

    def test_analyze_with_options(self, client):
        served = client.call("analyze", {
            "source": SOURCE, "optimize": True, "delta": 0.5,
            "cache": {"size": 16 * 1024}})
        local = report_to_dict(analyze_program(
            SOURCE, optimize=True, delta=0.5,
            cache=CacheConfig(size=16 * 1024)))
        assert json.dumps(served) == json.dumps(local)

    def test_simulate_matches_direct(self, client):
        config = CacheConfig(size=4 * 1024, assoc=2, block_size=32)
        served = client.call("simulate", {
            "source": SOURCE, "configs": [{"size": config.size,
                                           "assoc": config.assoc,
                                           "block_size": config.block_size}]})
        trace = Machine(compile_source(SOURCE),
                        trace_memory=True).run().trace
        direct = simulate_trace(trace, config)
        entry = served["results"][0]
        assert entry["description"] == config.describe()
        assert entry["total_load_misses"] == direct.total_load_misses
        assert entry["load_misses"] == {
            f"{a:#x}": m for a, m in
            sorted(direct.load_misses.items())}

    def test_metrics_shape(self, client):
        metrics = client.call("metrics")
        assert metrics["requests"]["total"] >= 1
        assert "analyze" in metrics["latency"] \
            or metrics["requests"]["by_op"]
        for section in ("cache", "batching", "queue", "pool"):
            assert section in metrics


#: Snapshot keys perfbench's ``serve_explore`` workload reads.
PERFBENCH_KEYS = ("cache.memory_hits", "cache.disk_hits", "cache.misses",
                  "batching.coalesced_requests",
                  "batching.merged_simulate_requests", "errors.total",
                  "queue.peak")


def _snapshot_values(snapshot: dict) -> dict:
    values = {}
    for dotted in PERFBENCH_KEYS:
        section, name = dotted.split(".")
        values[dotted] = snapshot[section][name]
    return values


class TestMetricsSnapshot:
    def test_final_dump_is_the_metrics_snapshot(self, capsys):
        config = ServerConfig(port=0, workers=0, use_disk_cache=False)
        box: dict = {}
        thread = threading.Thread(
            target=lambda: box.update(run_server(config)))
        thread.start()
        printed = ""
        deadline = time.monotonic() + 30.0
        while "listening on" not in printed \
                and time.monotonic() < deadline:
            time.sleep(0.01)
            printed += capsys.readouterr().out
        address = printed.split("listening on", 1)[1].split()[0]
        with ServiceClient.connect(address, timeout=30.0) as c:
            c.call("analyze", {"source": _variant(42)})
            c.call("analyze", {"source": _variant(42)})
            served = c.call("metrics")
            c.call("shutdown")
        thread.join(30.0)
        assert not thread.is_alive()
        # the dump and the op are built by one function
        assert set(box) == set(served)
        for section in ("batching", "cache", "errors", "queue"):
            assert set(box[section]) == set(served[section])
        values = _snapshot_values(box)
        assert values == {
            "cache.memory_hits": 1, "cache.disk_hits": 0,
            "cache.misses": 1, "batching.coalesced_requests": 0,
            "batching.merged_simulate_requests": 0, "errors.total": 0,
            "queue.peak": 1}


class TestCaching:
    def test_repeat_request_hits_memory(self, client):
        source = _variant(11)
        first = client.request("analyze", {"source": source})
        second = client.request("analyze", {"source": source})
        assert first["ok"] and second["ok"]
        assert first["cached"] is False
        assert second["cached"] == "memory"
        assert first["result"] == second["result"]

    def test_equivalent_spellings_share_entry(self, client):
        source = _variant(12)
        client.request("analyze", {"source": source})
        spelled = client.request(
            "analyze", {"source": source, "optimize": False,
                        "delta": 0.10, "execute": True})
        assert spelled["cached"] == "memory"

    def test_lru_eviction_falls_back_to_disk(self, tmp_path):
        config = ServerConfig(port=0, workers=0, cache_entries=1,
                              cache_dir=tmp_path, use_disk_cache=True)
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                a, b = _variant(21), _variant(22)
                assert c.request("analyze",
                                 {"source": a})["cached"] is False
                # B evicts A from the single-entry memory tier
                c.request("analyze", {"source": b})
                from_disk = c.request("analyze", {"source": a})
                assert from_disk["cached"] == "disk"
                # the disk hit was promoted back into memory
                again = c.request("analyze", {"source": a})
                assert again["cached"] == "memory"
                stats = c.call("metrics")["cache"]
                assert stats["disk_hits"] == 1
                assert stats["evictions"] >= 1

    def test_disk_tier_survives_restart(self, tmp_path):
        source = _variant(23)
        config = ServerConfig(port=0, workers=0, cache_entries=8,
                              cache_dir=tmp_path, use_disk_cache=True)
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                cold = c.request("analyze", {"source": source})
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                warm = c.request("analyze", {"source": source})
        assert warm["cached"] == "disk"
        assert warm["result"] == cold["result"]


class TestBatching:
    def test_concurrent_identical_requests_compute_once(self, server):
        source = _variant(31)
        before = ServiceClient(server.host, server.port)
        computed_before = \
            before.metrics()["batching"]["computations"]
        results = []

        def worker():
            with ServiceClient(server.host, server.port) as c:
                results.append(c.call("analyze", {"source": source}))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = before.metrics()["batching"]["computations"]
        before.close()
        assert len(results) == 6
        assert all(json.dumps(r) == json.dumps(results[0])
                   for r in results)
        # one computation serves all six (coalesced or cache hits)
        assert after - computed_before == 1


class TestBackpressure:
    def test_overloaded_queue_rejects_fast(self):
        config = ServerConfig(port=0, workers=0, use_disk_cache=False,
                              queue_size=1)
        with serve_in_thread(config) as handle:
            def occupy(seconds: float) -> None:
                with ServiceClient(handle.host, handle.port) as c:
                    c.call("sleep", {"seconds": seconds})

            executing = threading.Thread(
                target=occupy, args=(time_scaled(0.8),))
            executing.start()
            time.sleep(time_scaled(0.2))   # now computing, queue empty
            queued = threading.Thread(
                target=occupy, args=(time_scaled(0.9),))
            queued.start()
            time.sleep(time_scaled(0.2))   # now queued, queue full
            with ServiceClient(handle.host, handle.port) as c:
                started = time.perf_counter()
                with pytest.raises(ServiceError) as err:
                    c.call("sleep", {"seconds": 0.01})
                elapsed = time.perf_counter() - started
            assert err.value.code == "overloaded"
            # overload is an immediate response, not queued latency
            assert elapsed < time_scaled(0.5)
            executing.join()
            queued.join()

    def test_per_request_timeout(self, client):
        started = time.perf_counter()
        with pytest.raises(ServiceError) as err:
            client.call("sleep", {"seconds": time_scaled(5.0)},
                        timeout=time_scaled(0.2))
        assert err.value.code == "timeout"
        assert time.perf_counter() - started < time_scaled(3.0)


class TestScheduler:
    def test_stop_fails_a_waiting_request_as_shutting_down(self):
        def sleep(seconds: float):
            return parse_request(json.dumps(
                {"op": "sleep", "params": {"seconds": seconds}}).encode())

        async def scenario():
            scheduler = BatchScheduler(
                cache=JsonTier(SERVICE, RESULT_VERSION, None,
                               BoundedCache(4)),
                workers=0, queue_size=4)
            scheduler.start()
            running = asyncio.ensure_future(
                scheduler.submit(sleep(time_scaled(0.3))))
            await asyncio.sleep(time_scaled(0.05))   # holds the slot
            waiting = asyncio.ensure_future(scheduler.submit(sleep(0.0)))
            await asyncio.sleep(time_scaled(0.05))
            depth = scheduler.queue_depth
            await scheduler.stop()
            with pytest.raises(ProtocolError) as err:
                await waiting
            running.cancel()
            await asyncio.gather(running, return_exceptions=True)
            return depth, err.value.code, scheduler.queue_depth

        assert asyncio.run(scenario()) == (1, "shutting_down", 0)


class TestMalformedRequests:
    def test_not_json(self, client):
        client._file.write(b"definitely not json\n")
        client._file.flush()
        response = json.loads(client._file.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert response["id"] is None

    def test_unknown_op(self, client):
        response = client.request("frobnicate")
        assert response["error"]["code"] == "unknown_op"
        assert "frobnicate" in response["error"]["message"]

    def test_missing_source(self, client):
        response = client.request("analyze", {})
        assert response["error"]["code"] == "bad_request"
        assert "source" in response["error"]["message"]

    def test_wrong_param_types(self, client):
        for params in ({"source": 42},
                       {"source": SMALL, "delta": "high"},
                       {"source": SMALL, "optimize": "yes"},
                       {"source": SMALL, "weights": {"AG1": "big"}},
                       {"source": SMALL, "weights": {"AGX": 1.0}},
                       {"source": SMALL, "cache": {"size": 1000}},
                       {"source": SMALL, "cache": {"ways": 2}}):
            response = client.request("analyze", params)
            assert response["ok"] is False, params
            assert response["error"]["code"] == "bad_request", params

    def test_bad_simulate_configs(self, client):
        response = client.request("simulate",
                                  {"source": SMALL, "configs": []})
        assert response["error"]["code"] == "bad_request"

    def test_connection_survives_errors(self, client):
        client.request("frobnicate")
        client.request("analyze", {})
        assert client.call("health")["status"] == "ok"


class TestProcessPool:
    def test_analyze_round_trip_via_worker_process(self):
        config = ServerConfig(port=0, workers=1, use_disk_cache=False)
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                assert c.call("health")["pool_mode"] == "process"
                served = c.call("analyze", {"source": SMALL})
        local = report_to_dict(analyze_program(SMALL))
        assert json.dumps(served) == json.dumps(local)

    def test_compile_error_is_a_bad_request(self):
        # the error crosses the process boundary intact: the request is
        # refused as bad and the pool keeps running
        config = ServerConfig(port=0, workers=1, use_disk_cache=False)
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                response = c.request("tlb", {"source": "int main( {"})
                served = c.call("analyze", {"source": SMALL})
                metrics = c.call("metrics")
        assert response["ok"] is False
        assert response["error"] == {
            "code": "bad_request",
            "message": "line 1: expected a type, found '{'"}
        assert metrics["pool"]["restarts"] == 0
        assert metrics["errors"]["by_code"] == {"bad_request": 1}
        assert served == report_to_dict(analyze_program(SMALL))


class TestProcessPoolConcurrency:
    def test_second_batch_runs_beside_a_slow_one(self):
        config = ServerConfig(port=0, workers=2, use_disk_cache=False)
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                c.call("sleep", {"seconds": 0.0})   # forks the pool
            slow = threading.Thread(
                target=lambda: ServiceClient(
                    handle.host, handle.port).call(
                        "sleep", {"seconds": time_scaled(1.0)}))
            slow.start()
            time.sleep(time_scaled(0.2))
            with ServiceClient(handle.host, handle.port) as c:
                started = time.perf_counter()
                c.call("sleep", {"seconds": 0.0})
                waited = time.perf_counter() - started
            slow.join()
        # the idle pool process takes it; it does not queue behind
        # the slow batch (which has ~0.8 s left)
        assert waited < time_scaled(0.5)

    def test_killed_pool_process_is_replaced(self):
        config = ServerConfig(port=0, workers=2, use_disk_cache=False)
        with serve_in_thread(config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                c.call("sleep", {"seconds": 0.0})   # forks the pool
            pids = list(handle.server.scheduler._executor._processes)
            errors: list[ServiceError] = []

            def running() -> None:
                with ServiceClient(handle.host, handle.port) as c:
                    try:
                        c.call("sleep", {"seconds": time_scaled(2.0)})
                    except ServiceError as exc:
                        errors.append(exc)

            thread = threading.Thread(target=running)
            thread.start()
            time.sleep(time_scaled(0.3))    # now on the pool
            os.kill(pids[0], signal.SIGKILL)
            thread.join()
            # the job that was on the broken pool fails ...
            assert [e.code for e in errors] == ["internal"]
            with ServiceClient(handle.host, handle.port) as c:
                # ... and the next request runs on a fresh pool
                served = c.call("analyze", {"source": SMALL})
                restarts = c.call("metrics")["pool"]["restarts"]
        assert json.dumps(served) \
            == json.dumps(report_to_dict(analyze_program(SMALL)))
        assert restarts == 1


class TestClient:
    def test_service_error_carries_upstream_address(self):
        handle = serve_in_thread(ServerConfig(
            port=0, workers=0, use_disk_cache=False))
        address = handle.address
        with ServiceClient.connect(address, timeout=5.0) as client:
            with pytest.raises(ServiceError) as info:
                client.call("sleep", {"seconds": -1})
        handle.stop()
        assert info.value.address == address
        assert address in str(info.value)

    def test_fails_fast_when_the_server_goes_away(self):
        handle = serve_in_thread(ServerConfig(
            port=0, workers=0, use_disk_cache=False))
        client = ServiceClient(handle.host, handle.port, timeout=5.0)
        assert client.call("health")["status"] == "ok"
        handle.stop()
        with pytest.raises(ServiceError) as info:
            client.call("health")
        assert info.value.code == "transport"
        client.close()


class TestInFlightGauge:
    def test_metrics_show_in_flight_requests(self):
        with serve_in_thread(ServerConfig(
                port=0, workers=0, use_disk_cache=False)) as handle:
            hold = time_scaled(1.5)
            done = threading.Event()

            def sleeper():
                with ServiceClient(handle.host, handle.port,
                                   timeout=60.0) as c:
                    c.call("sleep", {"seconds": hold})
                done.set()

            thread = threading.Thread(target=sleeper, daemon=True)
            thread.start()
            time.sleep(min(0.3, hold / 3))
            with ServiceClient(handle.host, handle.port,
                               timeout=60.0) as client:
                snapshot = client.call("metrics")
            assert snapshot["requests"]["in_flight"] >= 1
            done.wait(time_scaled(30))
            thread.join(time_scaled(30))
            with ServiceClient(handle.host, handle.port,
                               timeout=60.0) as client:
                snapshot = client.call("metrics")
            assert snapshot["requests"]["in_flight"] == 0


class TestStoreBindings:
    def test_fuzz_oracle_context_restores_the_ops_stores(self):
        from repro.fuzz import OracleContext, generate_case
        from repro.fuzz.oracles import check_service
        from repro.service import ops
        before = (ops._TRACE_STORE, ops._PROFILE_STORE)
        with OracleContext() as ctx:
            check_service(generate_case("minic", 0), ctx)
        assert ops._TRACE_STORE is before[0]
        assert ops._PROFILE_STORE is before[1]


class TestShutdown:
    def test_shutdown_op_stops_server(self):
        config = ServerConfig(port=0, workers=0, use_disk_cache=False)
        handle = serve_in_thread(config)
        with ServiceClient(handle.host, handle.port) as c:
            assert c.call("shutdown") == {"stopping": True}
        handle.stop()
        deadline = time.time() + time_scaled(5.0)
        while time.time() < deadline:
            try:
                ServiceClient(handle.host, handle.port,
                              timeout=0.2).close()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server still accepting after shutdown")


class TestRemoteCli:
    @pytest.mark.parametrize("verb", ["analyze", "predict", "tlb",
                                      "redundancy"])
    def test_remote_json_matches_local(self, server, verb, tmp_path,
                                       capsys):
        from repro.__main__ import main
        path = tmp_path / "prog.c"
        path.write_text(SOURCE)
        assert main([verb, str(path), "--json"]) == 0
        local = capsys.readouterr().out
        assert main([verb, str(path), "--json",
                     "--remote", server.address]) == 0
        remote = capsys.readouterr().out
        assert remote == local

    def test_analyze_remote_human_summary(self, server, tmp_path,
                                          capsys):
        from repro.__main__ import main
        path = tmp_path / "prog.c"
        path.write_text(SOURCE)
        assert main(["analyze", str(path),
                     "--remote", server.address]) == 0
        out = capsys.readouterr().out
        assert "|Lambda|" in out
        assert "possibly delinquent" in out

    def test_analyze_remote_unreachable(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "prog.c"
        path.write_text(SMALL)
        code = main(["analyze", str(path),
                     "--remote", "127.0.0.1:1"])
        assert code == 3
        assert "service error" in capsys.readouterr().err


#: The six ops that compute on a program.
COMPUTE_OPS = ("analyze", "classify", "simulate", "predict", "tlb",
               "redundancy")


class TestProgramMemo:
    """One worker compiles and analyses each program once."""

    @pytest.fixture()
    def calls(self, tmp_path, monkeypatch):
        """A fresh memo behind private stores, with every compile and
        pattern build counted through the names the memo calls."""
        import repro.api
        from repro.api import ProgramMemo
        from repro.cache.stackdist import ProfileStore
        from repro.service import ops
        from repro.store.tracestore import TraceStore
        monkeypatch.setattr(ops, "_PROGRAMS", ProgramMemo(8))
        monkeypatch.setattr(ops, "_TRACE_STORE",
                            TraceStore(tmp_path / "traces"))
        monkeypatch.setattr(ops, "_PROFILE_STORE", ProfileStore())
        seen = {"compile": [], "patterns": 0}
        compile_, build = repro.api.compile_source, \
            repro.api.build_load_infos

        def counted_compile(source, optimize=False):
            seen["compile"].append((source, optimize))
            return compile_(source, optimize=optimize)

        def counted_build(program):
            seen["patterns"] += 1
            return build(program)

        monkeypatch.setattr(repro.api, "compile_source", counted_compile)
        monkeypatch.setattr(repro.api, "build_load_infos", counted_build)
        return seen

    @staticmethod
    def _run(op: str, source: str, optimize: bool = False) -> dict:
        from repro.service.ops import execute_op
        from repro.service.protocol import normalize
        return execute_op(op, normalize(op, {"source": source,
                                             "optimize": optimize}))

    def test_six_ops_compile_once_per_optimize_flag(self, calls):
        for optimize in (False, True):
            for op in COMPUTE_OPS:
                self._run(op, SOURCE, optimize)
        assert calls["compile"] == [(SOURCE, False), (SOURCE, True)]
        assert calls["patterns"] == 2

    def test_low_coverage_predict_with_fallback_compiles_once(self,
                                                              calls):
        from tests.test_analytic import CHASE
        reply = self._run("predict", CHASE)
        assert reply["analytic"] is False and reply["steps"] > 0
        assert calls["compile"] == [(CHASE, False)]

    @pytest.mark.parametrize("op", COMPUTE_OPS)
    def test_hot_reply_equals_cold_reply(self, calls, op):
        from repro.export import canonical_json
        from repro.service import ops
        for optimize in (False, True):
            self._run("classify", SOURCE, optimize)   # memo now hot
            hot = canonical_json(self._run(op, SOURCE, optimize))
            ops._PROGRAMS.clear()
            cold = canonical_json(self._run(op, SOURCE, optimize))
            assert hot == cold

    def test_uncompilable_source_is_a_bad_request_every_time(
            self, calls, client):
        from repro.service import ops
        for _ in range(2):
            response = client.request("classify",
                                      {"source": "int main( {"})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
        assert len(calls["compile"]) == 2
        assert len(ops._PROGRAMS) == 0

    def test_capacity_plus_one_sources_evict_the_oldest(self, calls):
        from repro.api import ProgramMemo
        memo = ProgramMemo(8)
        sources = [_variant(tag) for tag in range(9)]
        for source in sources:
            memo.program(source, False)
        assert len(memo) == 8
        memo.program(sources[-1], False)            # still held
        assert len(calls["compile"]) == 9
        memo.program(sources[0], False)             # evicted: compiles
        assert calls["compile"][-1] == (sources[0], False)
        assert len(calls["compile"]) == 10

    def test_analyze_program_without_a_memo_compiles_every_call(
            self, calls):
        for _ in range(2):
            analyze_program(SMALL, execute=False)
        assert calls["compile"] == [(SMALL, False)] * 2
        assert calls["patterns"] == 2
