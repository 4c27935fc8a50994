"""Streaming trace-pipeline benchmark.

Times the two claims behind the out-of-core trace pipeline and records
the numbers in ``BENCH_stream.json`` at the repository root so they
ride with the commit that produced them:

* **store-warmed re-analysis** — a second session pointed at a warm
  cache directory analyses *new* cache configurations without
  re-executing the workload: the access stream comes back from the
  compressed trace store, per-PC access counts from its meta sidecar,
  and the LRU miss counts from the persisted stack-distance profiles.
  Gated at >= 5x over the cold execute+replay, and asserted
  bit-identical to a from-scratch materialized session.

* **out-of-core execution** — a synthetic workload whose trace is an
  order of magnitude larger than the streaming pipeline's peak RSS is
  executed and replayed entirely through the store in a subprocess;
  the gate asserts raw trace bytes >= 10x the streamed peak RSS and
  that the streamed CacheStats fingerprint matches a materialized
  subprocess bit for bit.  The compression ratio of the stored blob is
  recorded alongside.

Both recorded compression ratios are gated at no less than the delta +
zlib codec's (store schema 1) records, so a later codec cannot silently
grow the store.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.cache.config import CacheConfig
from repro.pipeline.session import Session
from repro.store import TraceStore, trace_key

WORKLOAD = os.environ.get("REPRO_STREAM_WORKLOAD", "129.compress")
SCALE = float(os.environ.get("REPRO_SCALE", "0.15"))
#: Outer-loop trips of the synthetic out-of-core workload: ~459k trace
#: rows per pass, so the default traces ~46M accesses (~413 MB raw).
PASSES = int(os.environ.get("REPRO_STREAM_PASSES", "100"))
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_stream.json"
SRC = REPO_ROOT / "src"

#: Cold grid: a size x associativity sweep (more geometries than set
#: mappings), so the cold session profiles the three set mappings and
#: persists the stack-distance histograms beside the trace store.
COLD_GRID = [CacheConfig(size=s * a * 32, assoc=a, block_size=32)
             for s in (64, 128, 256) for a in (2, 4, 8)]
#: Warm grid: new associativities over the same set mappings — a result
#: cache miss everywhere, answerable without re-execution or any trace
#: chunk decoding (meta access counts + persisted histograms).
WARM_GRID = [CacheConfig(size=s * a * 32, assoc=a, block_size=32)
             for s in (64, 128, 256) for a in (1, 3, 6)]

#: Compression ratios (raw bytes / stored bytes) that the delta + zlib
#: codec recorded at scale 0.15 and 100 passes: the floor for any codec.
DELTA_RATIO_STORE_WARMED = 20.1
DELTA_RATIO_OUT_OF_CORE = 17.2

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


def _stats_key(stats):
    return (stats.config, stats.load_accesses, stats.load_misses,
            stats.store_accesses, stats.store_misses,
            stats.prefetch_ops, stats.prefetch_fills)


def test_store_warmed_reanalysis_speedup():
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(tmp)
        cold_session = Session(scale=SCALE, cache_dir=cache_dir)
        start = time.perf_counter()
        cold_session.stats_multi(WORKLOAD, configs=COLD_GRID)
        cold_s = time.perf_counter() - start

        store = TraceStore(cache_dir / "traces")
        key = trace_key(cold_session.source(WORKLOAD), False,
                        cold_session.max_steps)
        meta = store.meta(key)
        assert meta is not None, "cold run did not populate the store"
        raw_bytes = meta["rows"] * 9
        bin_bytes = store._bin(key).stat().st_size

        warm_session = Session(scale=SCALE, cache_dir=cache_dir)
        start = time.perf_counter()
        warm_stats = warm_session.stats_multi(WORKLOAD,
                                              configs=WARM_GRID)
        warm_s = time.perf_counter() - start

        # bit-identical to a from-scratch materialized session
        reference = Session(scale=SCALE, use_disk_cache=False) \
            .stats_multi(WORKLOAD, configs=WARM_GRID)
        assert ([_stats_key(s) for s in warm_stats]
                == [_stats_key(s) for s in reference])

    speedup = cold_s / warm_s
    _results["store_warmed_reanalysis"] = {
        "cold_configs": len(COLD_GRID),
        "warm_configs": len(WARM_GRID),
        "trace_rows": meta["rows"],
        "raw_trace_bytes": raw_bytes,
        "stored_bytes": bin_bytes,
        "compression_ratio": round(raw_bytes / bin_bytes, 1),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 1),
    }
    _flush()
    # warm re-analysis executes nothing and reads no trace chunks:
    # measured ~100x; the acceptance gate is >= 5x
    assert speedup >= 5.0
    ratio = _results["store_warmed_reanalysis"]["compression_ratio"]
    assert ratio >= DELTA_RATIO_STORE_WARMED, (
        f"store-warmed trace compresses {ratio}x, below the delta "
        f"codec's {DELTA_RATIO_STORE_WARMED}x")


_CHILD = r"""
import hashlib, json, resource, sys, tempfile
from pathlib import Path

def peak_rss_kb():
    # VmHWM resets on execve; ru_maxrss does NOT, so a child forked
    # from a fat parent would inherit the parent's COW-resident peak.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

from repro.cache.config import BASELINE_CONFIG
from repro.cache.model import simulate_trace
from repro.compiler.driver import compile_source
from repro.machine.simulator import Machine
from repro.store import TraceStore

mode, passes = sys.argv[1], int(sys.argv[2])
source = '''
int a[65536];
int main() {
    int i; int j; int s;
    s = 0;
    for (j = 0; j < %d; j = j + 1)
        for (i = 0; i < 65536; i = i + 1)
            s = s + a[i];
    return s & 127;
}
''' % passes
program = compile_source(source)
machine = Machine(program)
bin_bytes = 0
if mode == "materialized":
    result = machine.run()
    rows = len(result.trace)
    stats = simulate_trace(result.trace, BASELINE_CONFIG)
else:
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(Path(tmp) / "traces")
        writer = store.writer("k")
        result = machine.run_streaming(writer)
        meta = writer.close(block_counts=result.block_counts,
                            steps=result.steps)
        rows = meta["rows"]
        bin_bytes = store._bin("k").stat().st_size
        stats = simulate_trace(store.open("k"), BASELINE_CONFIG)
fingerprint = hashlib.sha1(json.dumps({
    "load_accesses": sorted(stats.load_accesses.items()),
    "load_misses": sorted(stats.load_misses.items()),
    "store_accesses": sorted(stats.store_accesses.items()),
    "store_misses": sorted(stats.store_misses.items()),
}).encode()).hexdigest()
print(json.dumps({
    "rows": rows,
    "steps": result.steps,
    "bin_bytes": bin_bytes,
    "fingerprint": fingerprint,
    "rss_kb": peak_rss_kb(),
}))
"""


def _run_child(mode: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(PASSES)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_out_of_core_rss_bound():
    streamed = _run_child("streamed")
    materialized = _run_child("materialized")
    assert streamed["fingerprint"] == materialized["fingerprint"]
    assert streamed["steps"] == materialized["steps"]
    assert streamed["rows"] == materialized["rows"]

    raw_bytes = streamed["rows"] * 9
    streamed_rss = streamed["rss_kb"] * 1024
    scale_factor = raw_bytes / streamed_rss
    _results["out_of_core"] = {
        "passes": PASSES,
        "trace_rows": streamed["rows"],
        "raw_trace_bytes": raw_bytes,
        "stored_bytes": streamed["bin_bytes"],
        "compression_ratio": round(raw_bytes / streamed["bin_bytes"], 1),
        "streamed_peak_rss_kb": streamed["rss_kb"],
        "materialized_peak_rss_kb": materialized["rss_kb"],
        "rss_ratio": round(materialized["rss_kb"]
                           / streamed["rss_kb"], 1),
        "trace_over_rss": round(scale_factor, 1),
    }
    _flush()
    # the workload's trace must dwarf the streaming pipeline's whole
    # peak RSS (interpreter included) by an order of magnitude, and
    # streaming must actually cap RSS well below materializing
    assert scale_factor >= 10.0, (
        f"trace {raw_bytes} B only {scale_factor:.1f}x the streamed "
        f"peak RSS {streamed_rss} B")
    assert streamed["rss_kb"] < materialized["rss_kb"] / 2
    ratio = _results["out_of_core"]["compression_ratio"]
    assert ratio >= DELTA_RATIO_OUT_OF_CORE, (
        f"out-of-core trace compresses {ratio}x, below the delta "
        f"codec's {DELTA_RATIO_OUT_OF_CORE}x")
