"""Byte-plane shuffled, zlib-compressed columnar trace store.

One entry persists one complete memory-access stream as a sequence of
framed chunks, so later sweeps and analyses stream it back from disk
with bounded RSS instead of re-executing the program.  Entries are
content-addressed: the caller keys them by a hash of everything that
determines the trace (source digest, input, optimization level, engine
contract), so a key hit *is* the trace and no validation re-run is
needed.

On-disk layout, per entry ``key``:

``tr-<key>.bin``
    A sequence of frames, one per :class:`TraceChunk`.  Each frame is a
    16-byte little-endian header ``(rows, pc_len, addr_len, kind_len)``
    followed by the three column blobs.  The pc and address columns are
    little-endian ``uint32`` split into byte planes — plane ``k`` holds
    byte ``k`` of every row, planes 0..3 in order — then zlib-compressed:
    the high planes are long constant runs, and both directions are
    C-level byte slicing.  The kind column (``uint8``) is deflated raw.

``tr-<key>.json``
    The metadata sidecar: schema version, row count, canonical rolling
    digest, per-PC load/store access counts, kind totals, and the
    execution facts (block entry counts, steps, exit code, program
    output) that let consumers skip execution entirely on a hit.

Write protocol: frames go to a per-PID temp file, the bin is published
with ``os.replace``, and the meta sidecar is written (atomically) last
— so a meta file's existence implies a complete bin, and concurrent
writers of the same key are safe (last writer wins with identical
content).  A sidecar missing or mistyping a field is a miss, not an
error.  Readers decode lazily; any mismatch (short frame, bad zlib
stream, row-count drift) raises :class:`TraceStoreCorrupt` so the
caller can delete the entry and fall back to re-execution.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterator, Optional

from repro.machine.trace import (DEFAULT_CHUNK_ACCESSES, AccessTally,
                                 ChunkStream, MemoryTrace,
                                 RollingTraceDigest, TraceChunk)

_SCHEMA = 2
_FRAME = struct.Struct("<IIII")      # rows, pc blob, addr blob, kind blob
_SWAP = sys.byteorder == "big"


@functools.cache
def code_digest() -> str:
    """Content hash of every ``src/repro`` Python source.

    Part of every trace key, and through it of every result, scenario
    and rendered-table key, so a code change never serves entries the
    old code computed.  Computed once per process, on the first key:
    the running code is fixed at import.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha1()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def trace_key(source: str, optimize: bool, max_steps: int,
              rewrite: str = "") -> str:
    """Content key of one workload's trace.

    Hashes everything that determines the access stream: the code that
    compiles and executes it (:func:`code_digest`), the program text
    (workload inputs are baked into the generated source), the
    optimization level, the step budget, the store schema, and the
    rewrite applied to the compiled program, if any (``rewrite`` names
    it; an empty one adds nothing to the hash).  The execution engine
    is deliberately excluded — both engines are bit-identical by
    contract, so entries written under either are interchangeable.  The
    pipeline session and the service share this key, so a workload
    executed by one is a store hit for the other.
    """
    parts = ["trace", str(_SCHEMA), code_digest(), source,
             str(bool(optimize)), str(max_steps)]
    if rewrite:
        parts.append(rewrite)
    text = "|".join(parts)
    return hashlib.sha1(text.encode()).hexdigest()


class TraceStoreCorrupt(Exception):
    """A stored trace entry failed to decode.

    Raised lazily while streaming a blob back; the entry should be
    deleted and the workload re-executed.
    """


def _le(column: array) -> array:
    """``column`` in little-endian order, or back: a swap undoes itself."""
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return column


def _shuffled_blob(column: array) -> bytes:
    """Split a uint32 column into its four byte planes and deflate them."""
    data = _le(column).tobytes()
    return zlib.compress(b"".join(data[k::4] for k in range(4)), 6)


def _unshuffled_column(blob: bytes, rows: int) -> array:
    planes = memoryview(zlib.decompress(blob))
    if len(planes) != 4 * rows:
        raise TraceStoreCorrupt("column length mismatch")
    data = bytearray(4 * rows)
    for k in range(4):
        data[k::4] = planes[k * rows:(k + 1) * rows]
    column = array("I")
    column.frombytes(data)
    return _le(column)


def _sound(meta: dict) -> bool:
    """Does ``meta`` carry every field readers convert, well-typed?"""
    try:
        int(meta["rows"])
        int(meta["prefetch_count"])
        int(meta["steps"])
        int(meta["exit_code"])
        for name in ("load_accesses", "store_accesses", "block_counts"):
            for pc, count in meta[name].items():
                int(pc), int(count)
        for value in meta["output"]:
            int(value)
        return isinstance(meta["digest"], str)
    except (AttributeError, KeyError, TypeError, ValueError):
        return False


class TraceStoreWriter:
    """Incremental writer for one entry; usable as a streaming sink.

    Feed it chunks (``writer(chunk)`` — e.g. directly as
    ``Machine.run_streaming``'s sink), then :meth:`close` with the
    execution facts to publish the entry, or :meth:`abort` to discard.
    While writing it tallies everything the meta sidecar needs — the
    rolling digest, kind totals, per-PC access counts — so persisting
    costs no extra pass over the trace.
    """

    def __init__(self, store: "TraceStore", key: str,
                 chunk_accesses: int = DEFAULT_CHUNK_ACCESSES):
        self._store = store
        self._key = key
        self._chunk_accesses = chunk_accesses
        self._digest = RollingTraceDigest()
        self._tally = AccessTally()
        self._temp = store._bin(key).with_name(
            store._bin(key).name + f".{os.getpid()}.tmp")
        store.root.mkdir(parents=True, exist_ok=True)
        self._file = open(self._temp, "wb")

    def __call__(self, chunk: TraceChunk) -> None:
        pc_blob = _shuffled_blob(chunk.pcs)
        addr_blob = _shuffled_blob(chunk.addresses)
        kind_blob = zlib.compress(chunk.kinds.tobytes(), 6)
        self._file.write(_FRAME.pack(len(chunk), len(pc_blob),
                                     len(addr_blob), len(kind_blob)))
        self._file.write(pc_blob)
        self._file.write(addr_blob)
        self._file.write(kind_blob)
        self._digest.update(chunk)
        self._tally.update(chunk.pcs, chunk.kinds)

    def abort(self) -> None:
        self._file.close()
        try:
            self._temp.unlink()
        except OSError:
            pass

    def close(self, *, block_counts: Optional[dict[int, int]] = None,
              steps: int = 0, exit_code: int = 0,
              output: Optional[list[int]] = None) -> dict:
        """Publish the entry: bin first, meta sidecar last."""
        self._file.close()
        loads, stores, prefetches = self._tally.split()
        meta = {
            "schema": _SCHEMA,
            "rows": self._digest.rows,
            "digest": self._digest.hexdigest(),
            "chunk_accesses": self._chunk_accesses,
            "load_count": sum(loads.values()),
            "store_count": sum(stores.values()),
            "prefetch_count": prefetches,
            "load_accesses": {str(pc): n for pc, n in loads.items()},
            "store_accesses": {str(pc): n for pc, n in stores.items()},
            "block_counts": {str(pc): n
                             for pc, n in (block_counts or {}).items()},
            "steps": steps,
            "exit_code": exit_code,
            "output": list(output or []),
        }
        os.replace(self._temp, self._store._bin(self._key))
        meta_path = self._store._meta(self._key)
        temp_meta = meta_path.with_name(
            meta_path.name + f".{os.getpid()}.tmp")
        temp_meta.write_text(json.dumps(meta))
        os.replace(temp_meta, meta_path)
        return meta


class TraceStore:
    """Directory of persisted trace entries, keyed by content hash."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def _bin(self, key: str) -> Path:
        return self.root / f"tr-{key}.bin"

    def _meta(self, key: str) -> Path:
        return self.root / f"tr-{key}.json"

    def meta(self, key: str) -> Optional[dict]:
        """The meta sidecar, or None if absent, undecodable or torn.

        A sidecar of the right schema that lacks or mistypes any field
        a reader relies on is torn: it counts as a miss, so the caller
        re-executes instead of crashing on the entry.
        """
        try:
            payload = json.loads(self._meta(key).read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != _SCHEMA
                or not _sound(payload)
                or not self._bin(key).exists()):
            return None
        return payload

    def writer(self, key: str,
               chunk_accesses: int = DEFAULT_CHUNK_ACCESSES
               ) -> TraceStoreWriter:
        return TraceStoreWriter(self, key, chunk_accesses)

    def _read_chunks(self, key: str, rows: int) -> Iterator[TraceChunk]:
        try:
            file = open(self._bin(key), "rb")
        except OSError as error:
            raise TraceStoreCorrupt(f"missing bin for {key}") from error
        start = 0
        with file:
            while True:
                header = file.read(_FRAME.size)
                if not header:
                    break
                if len(header) != _FRAME.size:
                    raise TraceStoreCorrupt("short frame header")
                count, pc_len, addr_len, kind_len = _FRAME.unpack(header)
                body = file.read(pc_len + addr_len + kind_len)
                if len(body) != pc_len + addr_len + kind_len:
                    raise TraceStoreCorrupt("short frame body")
                try:
                    pcs = _unshuffled_column(body[:pc_len], count)
                    addresses = _unshuffled_column(
                        body[pc_len:pc_len + addr_len], count)
                    kinds = array("B")
                    kinds.frombytes(
                        zlib.decompress(body[pc_len + addr_len:]))
                except zlib.error as error:
                    raise TraceStoreCorrupt("bad blob") from error
                if len(kinds) != count:
                    raise TraceStoreCorrupt("column length mismatch")
                yield TraceChunk(pcs, addresses, kinds, start)
                start += count
        if start != rows:
            raise TraceStoreCorrupt(
                f"row count mismatch: bin has {start}, meta says {rows}")

    def open(self, key: str) -> Optional[ChunkStream]:
        """A re-openable stream over a stored entry, or None on miss.

        The stream's ``meta`` is the sidecar read here, so a caller
        that needs the execution facts does not read it again.
        Decoding is lazy, so corruption surfaces as
        :class:`TraceStoreCorrupt` during iteration, not here.  Reading
        touches the entry's mtime, which is the LRU signal the cache
        garbage collector evicts by.
        """
        meta = self.meta(key)
        if meta is None:
            return None
        try:
            os.utime(self._bin(key))
        except OSError:
            pass
        rows = int(meta["rows"])
        return ChunkStream(
            lambda: self._read_chunks(key, rows),
            length=rows,
            digest=meta["digest"],
            prefetch_count=int(meta["prefetch_count"]),
            load_accesses={int(pc): n for pc, n
                           in meta["load_accesses"].items()},
            store_accesses={int(pc): n for pc, n
                            in meta["store_accesses"].items()},
            meta=meta,
        )

    def delete(self, key: str) -> None:
        for path in (self._bin(key), self._meta(key)):
            try:
                path.unlink()
            except OSError:
                pass

    def put_trace(self, key: str, trace: MemoryTrace, *,
                  chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
                  block_counts: Optional[dict[int, int]] = None,
                  steps: int = 0, exit_code: int = 0,
                  output: Optional[list[int]] = None) -> dict:
        """Persist an already-materialized trace in one call."""
        writer = self.writer(key, chunk_accesses)
        try:
            for chunk in trace.chunks(chunk_accesses):
                writer(chunk)
        except BaseException:
            writer.abort()
            raise
        return writer.close(block_counts=block_counts, steps=steps,
                            exit_code=exit_code, output=output)

    def keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(path.name[3:-5]
                      for path in self.root.glob("tr-*.json"))
