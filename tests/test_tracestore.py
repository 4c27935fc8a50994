"""Trace store, chunk streaming, cache GC and the RSS bound."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest

from repro.cache.config import BASELINE_CONFIG, CacheConfig
from repro.cache.model import simulate_trace_multi, source_access_counts
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.campaign import Campaign
from repro.compiler.driver import compile_source
from repro.machine.simulator import Machine
from repro.machine.trace import (LOAD, PREFETCH, STORE, MemoryTrace,
                                 TraceChunk)
from repro.pipeline.session import Session
from repro.store import (TraceHandle, TraceStore, TraceStoreCorrupt,
                         trace_key)
from repro.store import tracestore
from repro.store.gc import collect_garbage, parse_size, scan_entries
from tests.conftest import SAMPLE_SOURCE

SRC = Path(__file__).resolve().parents[1] / "src"


def sawtooth_trace(rows: int = 1000) -> MemoryTrace:
    """Loads/stores/prefetches with alternating ascending/descending
    addresses, so the per-row deltas wrap around 32 bits.  The kind is
    a pure function of the pc (one-instruction-one-kind invariant)."""
    trace = MemoryTrace()
    for i in range(rows):
        pc = 0x1000 + (i % 7) * 4
        address = (0x8000 + i * 64) if i % 2 else (0x90000 - i * 4)
        trace.append(pc, address & 0xFFFF_FFFF, (i % 7) % 3)
    return trace


# -- chunk protocol ----------------------------------------------------

class TestChunkProtocol:
    def test_chunks_are_fixed_size_and_contiguous(self):
        trace = sawtooth_trace(1000)
        chunks = list(trace.chunks(64))
        assert [len(c) for c in chunks[:-1]] == [64] * 15
        assert len(chunks[-1]) == 1000 - 15 * 64
        assert [c.start for c in chunks] == [i * 64 for i in range(16)]
        rebuilt = MemoryTrace()
        for chunk in chunks:
            rebuilt.extend(chunk.pcs, chunk.addresses, chunk.kinds)
        assert rebuilt.pcs == trace.pcs
        assert rebuilt.addresses == trace.addresses
        assert rebuilt.kinds == trace.kinds

    def test_chunk_stream_is_reopenable(self):
        trace = sawtooth_trace(100)
        stream = trace.chunk_stream(17)
        first = sum(len(c) for c in stream)
        second = sum(len(c) for c in stream)
        assert first == second == 100

    def test_digest_is_chunk_boundary_independent(self):
        trace = sawtooth_trace(500)
        digests = {trace.chunk_stream(n).digest for n in (1, 7, 499,
                                                          500, 512)}
        assert digests == {trace.digest()}

    def test_digest_distinguishes_column_content(self):
        a, b = MemoryTrace(), MemoryTrace()
        a.append(1, 2, LOAD)
        b.append(2, 1, LOAD)
        assert a.digest() != b.digest()

    def test_chunk_kind_counts(self):
        chunk = next(sawtooth_trace(70).chunks(70))
        assert chunk.load_count + chunk.store_count \
            + chunk.prefetch_count == 70

    def test_kind_counts_single_pass_memo_invalidates(self):
        trace = sawtooth_trace(70)
        loads = trace.load_count
        assert loads == trace.kinds.count(LOAD)
        assert trace.store_count == trace.kinds.count(STORE)
        assert trace.prefetch_count == trace.kinds.count(PREFETCH)
        trace.append(0x2000, 0x100, LOAD)
        assert trace.load_count == loads + 1

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(sawtooth_trace(10).chunks(0))


# -- store round-trip --------------------------------------------------

class TestStoreRoundTrip:
    def roundtrip(self, trace: MemoryTrace, tmp_path: Path,
                  chunk_accesses: int = 64) -> MemoryTrace:
        store = TraceStore(tmp_path / "traces")
        meta = store.put_trace("k", trace,
                               chunk_accesses=chunk_accesses)
        assert meta["rows"] == len(trace)
        assert meta["digest"] == trace.digest()
        stream = store.open("k")
        assert stream.digest == trace.digest()
        rebuilt = MemoryTrace()
        for chunk in stream:
            rebuilt.extend(chunk.pcs, chunk.addresses, chunk.kinds)
        assert rebuilt.pcs == trace.pcs
        assert rebuilt.addresses == trace.addresses
        assert rebuilt.kinds == trace.kinds
        return rebuilt

    def test_empty_trace(self, tmp_path):
        self.roundtrip(MemoryTrace(), tmp_path)

    def test_sawtooth_delta_wraparound(self, tmp_path):
        self.roundtrip(sawtooth_trace(1000), tmp_path, 37)

    def test_single_row(self, tmp_path):
        trace = MemoryTrace()
        trace.append(4, 0xFFFF_FFFC, STORE)
        self.roundtrip(trace, tmp_path)

    def test_metadata_serves_access_counts_without_reads(self,
                                                         tmp_path):
        trace = sawtooth_trace(300)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", trace)
        stream = store.open("k")
        # clobbering the bin proves the counts come from the meta
        # sidecar alone, with no chunk decoding
        store._bin("k").write_bytes(b"garbage")
        assert source_access_counts(stream) \
            == source_access_counts(trace)
        assert stream.digest == trace.digest()

    def test_sidecar_counts_pcs_first_seen_in_later_chunks(self,
                                                          tmp_path):
        """The writer looks a PC's kind up only in the chunk where the
        PC first appears; the sidecar text is pinned byte for byte."""
        # 0x02000100 is first matched by the bytes straddling rows 0
        # and 1 of its chunk (on a little-endian host), so the lookup
        # must skip that unaligned match to find its own STORE row.
        rows = [(0x10, 0, LOAD), (0x20, 4, STORE), (0x10, 8, LOAD),
                (0x10, 12, LOAD),
                (0x10, 16, LOAD), (0x30, 20, PREFETCH), (0x40, 24, LOAD),
                (0x20, 28, STORE),
                (0x00010000, 32, LOAD), (0x00000002, 36, LOAD),
                (0x02000100, 40, STORE), (0x40, 44, LOAD)]
        trace = MemoryTrace()
        for row in rows:
            trace.append(*row)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", trace, chunk_accesses=4)
        expected = {
            "schema": tracestore._SCHEMA, "rows": 12,
            "digest": trace.digest(), "chunk_accesses": 4,
            "load_count": 8, "store_count": 3, "prefetch_count": 1,
            "load_accesses": {"16": 4, "64": 2, "65536": 1, "2": 1},
            "store_accesses": {"32": 2, "33554688": 1},
            "block_counts": {}, "steps": 0, "exit_code": 0,
            "output": []}
        assert store._meta("k").read_text() == json.dumps(expected)
        assert source_access_counts(store.open("k")) \
            == source_access_counts(trace) \
            == source_access_counts(trace.chunks(4))

    def test_replay_equivalence_from_store(self, tmp_path):
        trace = sawtooth_trace(2000)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", trace, chunk_accesses=129)
        configs = [CacheConfig(size=1024, assoc=2, block_size=32),
                   CacheConfig(size=512, assoc=1, block_size=16,
                               replacement="fifo")]
        assert simulate_trace_multi(store.open("k"), configs) \
            == simulate_trace_multi(trace, configs)
        profile_store = ProfileStore()
        assert simulate_sweep(store.open("k"), configs,
                              store=profile_store) \
            == simulate_sweep(trace, configs, store=ProfileStore())

    def test_block_bursts_straddle_chunk_boundaries(self, tmp_path):
        """The blocks engine appends whole loop bursts per call; a tiny
        chunk budget forces every burst to straddle chunk boundaries
        and the streamed store content must still be byte-identical."""
        source = """
        int a[256];
        int main() {
            int i; int j; int s;
            s = 0;
            for (j = 0; j < 8; j = j + 1)
                for (i = 0; i < 256; i = i + 1) {
                    a[i] = a[i] + j;
                    s = s + a[i];
                }
            return s & 127;
        }
        """
        program = compile_source(source)
        reference = Machine(program, engine="blocks").run()
        store = TraceStore(tmp_path / "traces")
        writer = store.writer("k", chunk_accesses=16)
        streamed = Machine(program, engine="blocks").run_streaming(
            writer, chunk_accesses=16)
        writer.close(block_counts=streamed.block_counts,
                     steps=streamed.steps)
        assert streamed.steps == reference.steps
        rebuilt = MemoryTrace()
        for chunk in store.open("k"):
            assert chunk.start == len(rebuilt)
            rebuilt.extend(chunk.pcs, chunk.addresses, chunk.kinds)
        assert rebuilt.pcs == reference.trace.pcs
        assert rebuilt.addresses == reference.trace.addresses
        assert rebuilt.kinds == reference.trace.kinds

    def test_abort_leaves_no_entry(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        writer = store.writer("k")
        for chunk in sawtooth_trace(100).chunks(32):
            writer(chunk)
        writer.abort()
        assert store.open("k") is None
        assert not list((tmp_path / "traces").glob("*.tmp"))


# -- column codec ------------------------------------------------------

#: sha1 of the pinned chunk's frame as a reader sees it: the header's
#: row count, then each column blob inflated.  Deflate output bytes
#: differ between zlib builds (zlib vs zlib-ng), so the pin covers the
#: format, not one compressor's bytes.  Whenever this pin changes,
#: bump ``tracestore._SCHEMA`` so stale entries are never read.
FRAME_PIN = "70ce93e77971b7013aed3858757e3186a1a7be07"


def pinned_chunk() -> TraceChunk:
    """Extreme values, a stride-4 walk and repeated pcs."""
    pcs = array("I", [0x1000, 0x1004, 0x1008] * 5 + [0xFFFF_FFFF])
    addresses = array("I", [0xFFFF_FFFF, 0]
                      + [0x7FFF_FFF8 + 4 * i for i in range(14)])
    kinds = array("B", [LOAD, STORE, PREFETCH] * 5 + [LOAD])
    return TraceChunk(pcs, addresses, kinds, 0)


def inflated_frames(data: bytes) -> list[tuple[int, list[bytes]]]:
    """Every frame of a bin as ``(rows, [pc, address, kind planes])``."""
    frames = []
    offset = 0
    while offset < len(data):
        rows, *lengths = tracestore._FRAME.unpack_from(data, offset)
        offset += tracestore._FRAME.size
        blobs = []
        for length in lengths:
            blobs.append(zlib.decompress(data[offset:offset + length]))
            offset += length
        frames.append((rows, blobs))
    return frames


def shorten_first_pc_plane(path: Path) -> None:
    """Make the first frame's pc blob valid zlib of one row too few."""
    data = path.read_bytes()
    rows, pc_len, addr_len, kind_len = tracestore._FRAME.unpack_from(data)
    blob = zlib.compress(bytes(4 * rows - 4))
    path.write_bytes(tracestore._FRAME.pack(rows, len(blob), addr_len,
                                            kind_len)
                     + blob + data[tracestore._FRAME.size + pc_len:])


class TestColumnCodec:
    def write_chunk(self, tmp_path: Path, chunk: TraceChunk) -> bytes:
        store = TraceStore(tmp_path / "traces")
        writer = store.writer("k")
        writer(chunk)
        writer.close()
        return store._bin("k").read_bytes()

    def test_format_pin(self, tmp_path):
        chunk = pinned_chunk()
        ((rows, (pcs, addresses, kinds)),) = inflated_frames(
            self.write_chunk(tmp_path, chunk))
        assert rows == 16
        # plane k holds byte k of every row
        assert pcs[:16] == bytes([0x00, 0x04, 0x08] * 5 + [0xFF])
        assert addresses[48:] == bytes([0xFF, 0x00, 0x7F, 0x7F] + [0x80] * 12)
        assert kinds == chunk.kinds.tobytes()
        digest = hashlib.sha1(rows.to_bytes(4, "little") + pcs
                              + addresses + kinds).hexdigest()
        assert digest == FRAME_PIN

    def test_wrong_plane_length_is_corrupt_lazily(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", sawtooth_trace(100), chunk_accesses=64)
        shorten_first_pc_plane(store._bin("k"))
        stream = store.open("k")          # the sidecar is fine
        assert stream is not None
        with pytest.raises(TraceStoreCorrupt, match="length mismatch"):
            for _ in stream:
                pass

    def test_wrong_plane_length_reexecutes_once(self, tmp_path,
                                                monkeypatch):
        program = compile_source(SAMPLE_SOURCE)
        store = TraceStore(tmp_path / "traces")

        def compute(source):
            return simulate_trace_multi(source, [BASELINE_CONFIG])
        reference = TraceHandle(program, "k", store).replay(compute)
        shorten_first_pc_plane(store._bin("k"))
        runs = []
        original = Machine.run

        def counting(self, *args, **kwargs):
            runs.append(1)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Machine, "run", counting)
        assert TraceHandle(program, "k", store).replay(compute) \
            == reference
        assert runs == [1]
        assert store.meta("k") is None    # the entry was dropped

    def test_big_endian_path_round_trips(self, tmp_path, monkeypatch):
        trace = sawtooth_trace(300)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("le", trace, chunk_accesses=64)
        monkeypatch.setattr(tracestore, "_SWAP", True)
        store.put_trace("be", trace, chunk_accesses=64)
        rebuilt = MemoryTrace()
        for chunk in store.open("be"):
            rebuilt.extend(chunk.pcs, chunk.addresses, chunk.kinds)
        assert rebuilt.pcs == trace.pcs
        assert rebuilt.addresses == trace.addresses
        assert rebuilt.kinds == trace.kinds
        # the swapped writer laid the planes out in the opposite order
        (_, (le_pcs, _, _)), *_ = inflated_frames(
            store._bin("le").read_bytes())
        (_, (be_pcs, _, _)), *_ = inflated_frames(
            store._bin("be").read_bytes())
        assert be_pcs[:64] == le_pcs[192:] != le_pcs[:64]


# -- corruption --------------------------------------------------------

class TestCorruption:
    def test_truncated_bin_raises_lazily(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", sawtooth_trace(500), chunk_accesses=64)
        path = store._bin("k")
        path.write_bytes(path.read_bytes()[:100])
        stream = store.open("k")          # meta is fine: opens OK
        with pytest.raises(TraceStoreCorrupt):
            for _ in stream:
                pass

    def test_garbage_blob_raises(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", sawtooth_trace(100), chunk_accesses=64)
        bin_path = store._bin("k")
        data = bytearray(bin_path.read_bytes())
        data[20:28] = b"\xff" * 8          # clobber compressed bytes
        bin_path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreCorrupt):
            for _ in store.open("k"):
                pass

    def test_missing_bin_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", sawtooth_trace(10))
        store._bin("k").unlink()
        assert store.open("k") is None

    @pytest.mark.parametrize("field,value", [
        ("rows", None), ("digest", None), ("prefetch_count", None),
        ("load_accesses", None), ("store_accesses", None),
        ("block_counts", None), ("steps", None), ("output", None),
        ("rows", "many"), ("digest", 7), ("load_accesses", [1, 2]),
        ("store_accesses", {"0x10": 1}), ("block_counts", "none")])
    def test_torn_meta_is_a_miss(self, tmp_path, field, value):
        """A sidecar of the right schema that lacks (None here) or
        mistypes a field is a miss, never a crash."""
        store = TraceStore(tmp_path / "traces")
        store.put_trace("k", sawtooth_trace(100))
        meta = json.loads(store._meta("k").read_text())
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        store._meta("k").write_text(json.dumps(meta))
        assert store.meta("k") is None
        assert store.open("k") is None

    def test_session_reexecutes_past_a_torn_meta(self, tmp_path):
        session = Session(scale=0.03, cache_dir=tmp_path)
        first = session.stats("129.compress")
        (meta_path,) = (tmp_path / "traces").glob("tr-*.json")
        meta = json.loads(meta_path.read_text())
        del meta["rows"]
        meta_path.write_text(json.dumps(meta))
        for entry in tmp_path.glob("*.json"):   # the JSON result tier
            entry.unlink()
        again = Session(scale=0.03, cache_dir=tmp_path)
        assert again.stats("129.compress").load_misses \
            == first.load_misses


# -- session / store integration ---------------------------------------

class TestSessionStore:
    def test_second_session_skips_execution(self, tmp_path):
        odd = CacheConfig(size=16 * 1024, assoc=8, block_size=64)
        cold = Session(scale=0.2, cache_dir=tmp_path)
        baseline = cold.measurement("129.compress")
        assert not cold._traces, "session materialized despite store"
        expected = cold.stats("129.compress", cache_config=odd)
        # drop the JSON result entry so only the trace store can answer
        cold._results.path(cold._entry_key(baseline.key, odd)).unlink()
        warm = Session(scale=0.2, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("warm session executed the workload")

        original, original_streaming = Machine.run, Machine.run_streaming
        Machine.run = Machine.run_streaming = boom
        try:
            stats = warm.stats("129.compress", cache_config=odd)
            profile = warm.profile("129.compress")
        finally:
            Machine.run = original
            Machine.run_streaming = original_streaming
        assert stats.load_misses == expected.load_misses
        assert stats.load_accesses == expected.load_accesses
        assert profile.block_counts == baseline.profile.block_counts
        assert warm._steps[baseline.key] == baseline.steps

    def test_store_shared_with_service_keys(self, tmp_path):
        session = Session(scale=0.2, cache_dir=tmp_path)
        session.stats("129.compress")
        source = session.source("129.compress")
        key = trace_key(source, False, session.max_steps)
        assert TraceStore(tmp_path / "traces").meta(key) is not None

    @pytest.mark.usefixtures("small_grid")
    def test_concurrent_warm_writers_share_store(self, tmp_path):
        session = Session(scale=0.2, cache_dir=tmp_path)
        report = Campaign(session, numbers=[10]).run(jobs=2)
        assert report.computed == 3     # two run cells + the table
        store = TraceStore(tmp_path / "traces")
        keys = store.keys()
        assert len(keys) == 2
        for key in keys:
            rows = 0
            for chunk in store.open(key):   # decodes cleanly
                rows += len(chunk)
            assert rows == store.meta(key)["rows"] > 0
        assert not list((tmp_path / "traces").glob("*.tmp"))


# -- cache gc ----------------------------------------------------------

class TestCacheGc:
    def test_parse_size(self):
        assert parse_size("100K") == 100 << 10
        assert parse_size("2G") == 2 << 30
        assert parse_size("17") == 17
        with pytest.raises(ValueError):
            parse_size("lots")

    def populate(self, root: Path) -> None:
        store = TraceStore(root / "traces")
        for name in ("aa", "bb"):
            store.put_trace(name, sawtooth_trace(400))
        (root / "one.json").write_text(json.dumps({"version": 1}))
        (root / "svc-x.json").write_text(json.dumps({"r": 2}))
        (root / "stackdist").mkdir()
        (root / "stackdist" / "sd-x-bs32.json").write_text("{}")

    def test_scan_tiers(self, tmp_path):
        self.populate(tmp_path)
        entries, corrupt = scan_entries(tmp_path)
        assert not corrupt
        assert sorted({e.tier for e in entries}) \
            == ["pipeline", "service", "stackdist", "traces"]
        traces = [e for e in entries if e.tier == "traces"]
        assert all(len(e.paths) == 2 for e in traces)

    def test_corrupt_items_reported_and_removed(self, tmp_path):
        self.populate(tmp_path)
        (tmp_path / "traces" / "tr-dead.json").write_text("{oops")
        (tmp_path / "traces" / "tr-orphan.bin").write_bytes(b"x")
        (tmp_path / "bad.json").write_text("not json")
        stale_tmp = tmp_path / "x.json.99.tmp"
        stale_tmp.write_text("")
        os.utime(stale_tmp, (1_000, 1_000))   # dead writer, aged out
        report = collect_garbage(tmp_path, 1 << 30, dry_run=True)
        assert len(report.corrupt) == 4
        assert not report.evicted          # budget is huge
        assert (tmp_path / "bad.json").exists()   # dry run deletes nothing
        report = collect_garbage(tmp_path, 1 << 30)
        assert not (tmp_path / "bad.json").exists()
        assert not (tmp_path / "traces" / "tr-orphan.bin").exists()
        assert not scan_entries(tmp_path)[1]

    def test_stale_schema_pairs_reported_and_removed(self, tmp_path):
        self.populate(tmp_path)
        store = TraceStore(tmp_path / "traces")
        store.put_trace("old", sawtooth_trace(50))
        meta = json.loads(store._meta("old").read_text())
        meta["schema"] = 1
        store._meta("old").write_text(json.dumps(meta))
        report = collect_garbage(tmp_path, 1 << 30, dry_run=True)
        assert report.corrupt == [("traces", "tr-old", "stale schema")]
        assert store._bin("old").exists() and store._meta("old").exists()
        report = collect_garbage(tmp_path, 1 << 30)
        assert report.corrupt == [("traces", "tr-old", "stale schema")]
        assert not store._bin("old").exists()
        assert not store._meta("old").exists()
        assert store.keys() == ["aa", "bb"]   # current pairs are kept
        assert not report.evicted

    def test_gc_spares_a_concurrent_writers_temp_files(self, tmp_path):
        """A fresh per-PID ``*.tmp`` belongs to a live writer mid-
        publish; a racing gc pass must leave it alone in every tier."""
        self.populate(tmp_path)
        fresh = [tmp_path / f"res.json.{os.getpid()}.tmp",
                 tmp_path / "traces" / f"tr-w.bin.{os.getpid()}.tmp",
                 tmp_path / "stackdist" / f"sd-w.json.{os.getpid()}.tmp"]
        for path in fresh:
            path.write_bytes(b"partial")
        report = collect_garbage(tmp_path, 1 << 30)
        assert not report.corrupt
        assert all(path.exists() for path in fresh)
        # once aged past the grace window the same files are stale
        for path in fresh:
            os.utime(path, (1_000, 1_000))
        report = collect_garbage(tmp_path, 1 << 30)
        assert len(report.corrupt) == 3
        assert all(reason == "stale temp file"
                   for _, _, reason in report.corrupt)
        assert not any(path.exists() for path in fresh)
        # tmp_grace=0 treats every temp file as immediately stale
        orphan = tmp_path / f"y.json.{os.getpid()}.tmp"
        orphan.write_text("")
        report = collect_garbage(tmp_path, 1 << 30, tmp_grace=0)
        assert [name for _, name, _ in report.corrupt] == [orphan.name]
        assert not orphan.exists()

    def test_meta_without_bin_is_an_orphan(self, tmp_path):
        """A published meta sidecar whose bin never landed (writer died
        between the two renames) is corrupt, not a live entry."""
        self.populate(tmp_path)
        orphan = tmp_path / "traces" / "tr-nobin.json"
        orphan.write_text(json.dumps({"version": 1, "chunks": []}))
        entries, corrupt = scan_entries(tmp_path)
        assert ("traces", "tr-nobin.json", "meta without bin") \
            in [(t, n, r) for t, n, r, _ in corrupt]
        assert all("tr-nobin" not in e.name for e in entries)
        collect_garbage(tmp_path, 1 << 30)
        assert not orphan.exists()
        # the paired live entries survived the orphan sweep
        assert len([e for e in scan_entries(tmp_path)[0]
                    if e.tier == "traces"]) == 2

    def test_lru_eviction_bounds_size(self, tmp_path):
        self.populate(tmp_path)
        # age one entry well past the rest so LRU order is unambiguous
        stale = tmp_path / "one.json"
        os.utime(stale, (1_000, 1_000))
        entries, _ = scan_entries(tmp_path)
        total = sum(e.size for e in entries)
        budget = total - 1
        report = collect_garbage(tmp_path, budget)
        assert report.evicted
        assert report.evicted[0].name == "one.json"
        assert not stale.exists()
        remaining, _ = scan_entries(tmp_path)
        assert sum(e.size for e in remaining) <= budget

    def test_cli(self, tmp_path):
        self.populate(tmp_path)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "gc",
             "--limit", "1K", "--cache-dir", str(tmp_path),
             "--dry-run"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 0, result.stderr
        assert "would evict" in result.stdout
        # dry run left everything in place
        assert len(scan_entries(tmp_path)[0]) == 5


# -- the RSS bound -----------------------------------------------------

_RSS_CHILD = r"""
import resource, sys, tempfile
from pathlib import Path

def peak_rss_kb():
    # VmHWM resets on execve; ru_maxrss does NOT, so a child forked
    # from a fat parent (the pytest process mid-suite) would inherit
    # the parent's COW-resident peak and poison the comparison.
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

mode = sys.argv[1]
source = '''
int a[65536];
int main() {
    int i; int j; int s;
    s = 0;
    for (j = 0; j < 60; j = j + 1)
        for (i = 0; i < 65536; i = i + 1)
            s = s + a[i];
    return s & 127;
}
'''
program = compile_source(source)
machine = Machine(program)
if mode == "materialized":
    result = machine.run()
    stats = simulate_trace(result.trace, BASELINE_CONFIG)
else:
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore(Path(tmp) / "traces")
        writer = store.writer("k")
        result = machine.run_streaming(writer)
        writer.close(block_counts=result.block_counts,
                     steps=result.steps)
        stats = simulate_trace(store.open("k"), BASELINE_CONFIG)
print(sum(stats.load_accesses.values()), peak_rss_kb())
"""


class TestPeakRss:
    def test_streaming_bounds_peak_rss(self):
        """~4M-access workload: materialized holds the whole columnar
        trace (~36 MB + allocator overhead); the streamed path must
        stay well under that, proving the constant chunk budget."""
        def child(mode: str) -> tuple[int, int]:
            result = subprocess.run(
                [sys.executable, "-c", _RSS_CHILD, mode],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)})
            assert result.returncode == 0, result.stderr
            accesses, rss_kb = result.stdout.split()
            return int(accesses), int(rss_kb)

        accesses_mat, rss_mat = child("materialized")
        accesses_stream, rss_stream = child("streamed")
        assert accesses_mat == accesses_stream > 3_900_000
        # the trace alone is ~36 MB; streaming must save most of it
        assert rss_stream < rss_mat - 20_000, (
            f"streamed peak RSS {rss_stream} KB not bounded vs "
            f"materialized {rss_mat} KB")
