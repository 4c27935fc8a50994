"""Service benchmarks: served warm-cache requests vs cold pipeline runs.

The whole point of the long-lived service is amortization: the first
``analyze`` of a source pays the full pipeline (compile, dataflow,
classify, execute, cache-simulate); every repeat of it is a tiered-
cache lookup plus one TCP round trip.  This bench measures both sides
— per-request cold in-process pipeline cost vs served warm-cache
latency/throughput — plus the coalescing behaviour under concurrent
identical clients, and records the numbers in ``BENCH_service.json``
at the repository root so they ride with the commit that produced
them.

The warm/cold ratio is gated at >= 5x (the PR's acceptance bar); the
measured margin is typically orders of magnitude.
"""

import json
import os
import platform
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.api import analyze_program
from repro.export import report_to_dict
from repro.service.client import ServiceClient
from repro.service.server import ServerConfig, serve_in_thread
from repro.workloads.registry import get

WORKLOAD = "129.compress"
SCALE = float(os.environ.get("REPRO_SCALE", "0.15"))
REPEATS = 25
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_service.json"

_results: dict = {}


def _flush() -> None:
    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workload": WORKLOAD,
        "scale": SCALE,
        "results": _results,
    }
    try:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass


@pytest.fixture(scope="module")
def source():
    return get(WORKLOAD).generate("input1", scale=SCALE)


@pytest.fixture(scope="module")
def server():
    handle = serve_in_thread(ServerConfig(
        port=0, workers=0, use_disk_cache=False))
    yield handle
    handle.stop()


def test_warm_served_vs_cold_pipeline(source, server):
    # cold: what every CLI invocation pays, best of 3
    cold = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        payload = report_to_dict(analyze_program(source))
        cold = min(cold, time.perf_counter() - start)

    with ServiceClient(server.host, server.port) as client:
        served = client.call("analyze", {"source": source})  # cold
        assert json.dumps(served) == json.dumps(payload)
        latencies = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            client.call("analyze", {"source": source})
            latencies.append(time.perf_counter() - start)
    warm = statistics.median(latencies)
    speedup = cold / warm
    _results["warm_vs_cold"] = {
        "cold_pipeline_s": round(cold, 4),
        "warm_request_p50_ms": round(warm * 1e3, 3),
        "warm_request_max_ms": round(max(latencies) * 1e3, 3),
        "warm_throughput_rps": round(1.0 / warm, 1),
        "repeats": REPEATS,
        "speedup": round(speedup, 1),
    }
    _flush()
    # the acceptance bar; the measured margin is typically 100x+
    assert speedup >= 5.0


def test_concurrent_clients_amortize_one_computation(source, server):
    """N concurrent identical requests ~ the cost of one computation."""
    # trailing whitespace: same program, distinct content hash
    flavored = source + "\n\n"
    clients = 6
    latencies: list[float] = []
    lock = threading.Lock()

    def worker() -> None:
        with ServiceClient(server.host, server.port) as client:
            start = time.perf_counter()
            client.call("analyze", {"source": flavored})
            elapsed = time.perf_counter() - start
        with lock:
            latencies.append(elapsed)

    start = time.perf_counter()
    threads = [threading.Thread(target=worker)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    with ServiceClient(server.host, server.port) as client:
        single = client.call("metrics")["latency"]["analyze"]
    _results["concurrent_identical"] = {
        "clients": clients,
        "wall_s": round(wall, 4),
        "slowest_client_s": round(max(latencies), 4),
        "server_p50_ms": single["p50_ms"],
    }
    _flush()
    # coalescing: six clients finish in ~one computation's time,
    # nowhere near six sequential pipelines
    cold = _results["warm_vs_cold"]["cold_pipeline_s"]
    assert wall < cold * clients
