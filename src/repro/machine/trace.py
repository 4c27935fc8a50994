"""Compact memory-access traces and the chunk-streaming protocol.

One program execution produces one access stream; the cache model
replays it under any number of cache configurations.  Two shapes carry
that stream:

* :class:`MemoryTrace` — the fully materialized form.  Storage is three
  parallel ``array`` columns (program counter, effective address, kind)
  to keep multi-million-access traces small, and the column layout
  gives the hot consumers C-speed bulk paths: the block execution
  engine appends whole basic blocks of accesses at a time
  (:meth:`MemoryTrace.extend`), and load-only analyses slice the load
  rows out of the columns without a Python-level loop
  (:meth:`MemoryTrace.load_pcs` / :meth:`MemoryTrace.load_addresses`).

* :class:`TraceChunk` / :class:`ChunkStream` — the out-of-core form.
  A chunk is a fixed-size slice of the same three columns plus its
  running row offset; a stream is a *re-openable* iterator of chunks
  with optional identity metadata (row count, content digest, per-PC
  access counts) so consumers that would otherwise rescan the trace —
  the profile store key, :func:`~repro.cache.model.shared_access_counts`
  — can be answered without touching the columns.  Every replay
  consumer in :mod:`repro.cache` accepts either shape and produces
  bit-identical results; the trace store (:mod:`repro.store`) persists
  chunks so a workload is executed at most once.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterable, Iterator, Optional

LOAD = 0
STORE = 1
PREFETCH = 2

#: Default rows per streamed chunk: 64 Ki accesses = 9 B/row packed,
#: ~576 KiB of column data — small enough that a handful of in-flight
#: chunks bound RSS, large enough that per-chunk overhead (generator
#: resumption, frame headers, digest updates) vanishes.
DEFAULT_CHUNK_ACCESSES = 1 << 16


class TraceChunk:
    """One fixed-size run of accesses: a slice of the three columns.

    ``start`` is the global index of the chunk's first row, so a chunk
    sequence carries its own running count and consumers can assert
    contiguity.  Chunks are plain value objects — producing one never
    mutates the source trace.
    """

    __slots__ = ("pcs", "addresses", "kinds", "start")

    def __init__(self, pcs: array, addresses: array, kinds: array,
                 start: int = 0):
        self.pcs = pcs
        self.addresses = addresses
        self.kinds = kinds
        self.start = start

    def __len__(self) -> int:
        return len(self.pcs)

    def columns(self) -> tuple[array, array, array]:
        return self.pcs, self.addresses, self.kinds

    @property
    def load_count(self) -> int:
        return self.kinds.count(LOAD)

    @property
    def store_count(self) -> int:
        return self.kinds.count(STORE)

    @property
    def prefetch_count(self) -> int:
        return self.kinds.count(PREFETCH)


class RollingTraceDigest:
    """Chunk-incremental content hash of an access stream.

    Hashes the three columns independently (one rolling hasher each) and
    combines them with the row count, so the digest of a chunked stream
    equals the digest of the materialized trace regardless of chunk
    boundaries.  This is the canonical trace identity used by the
    stack-distance profile store and the trace store.
    """

    __slots__ = ("_pcs", "_addresses", "_kinds", "rows")

    def __init__(self):
        self._pcs = hashlib.sha1()
        self._addresses = hashlib.sha1()
        self._kinds = hashlib.sha1()
        self.rows = 0

    def update(self, chunk: TraceChunk) -> None:
        self._pcs.update(chunk.pcs.tobytes())
        self._addresses.update(chunk.addresses.tobytes())
        self._kinds.update(chunk.kinds.tobytes())
        self.rows += len(chunk)

    def hexdigest(self) -> str:
        combined = hashlib.sha1()
        combined.update(str(self.rows).encode())
        combined.update(self._pcs.digest())
        combined.update(self._addresses.digest())
        combined.update(self._kinds.digest())
        return combined.hexdigest()


#: Byte offsets, within an 8-byte native ``Q`` key, of a row's pc (four
#: bytes) and kind (one byte), so that the key reads ``pc | kind << 32``.
_PC_AT, _KIND_AT = (0, 4) if sys.byteorder == "little" else (4, 3)


class AccessTally:
    """Per-PC, per-kind access counts, tallied chunk by chunk.

    Each row is counted under the key ``pc | kind << 32``, built for a
    whole chunk by interleaving the pc and kind columns' bytes into one
    ``array('Q')``, so the per-row work is one C-speed
    ``Counter.update`` and the counts are exact even for a PC that
    both loads and stores.
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Counter = Counter()

    def update(self, pcs: array, kinds: array) -> None:
        keys = bytearray(8 * len(pcs))
        raw = pcs.tobytes()
        for byte in range(4):
            keys[_PC_AT + byte::8] = raw[byte::4]
        keys[_KIND_AT::8] = kinds.tobytes()
        self.counts.update(array("Q", keys))

    def split(self) -> tuple[dict[int, int], dict[int, int], int]:
        """Per-PC (load, store) access counts, each in the order of the
        PC's first row of that kind, and the prefetch total."""
        loads: dict[int, int] = {}
        stores: dict[int, int] = {}
        prefetches = 0
        for key, count in self.counts.items():
            kind = key >> 32
            if kind == LOAD:
                loads[key & 0xFFFFFFFF] = count
            elif kind == STORE:
                stores[key & 0xFFFFFFFF] = count
            else:
                prefetches += count
        return loads, stores, prefetches


class ChunkStream:
    """A re-openable stream of :class:`TraceChunk` with identity metadata.

    ``factory`` returns a *fresh* chunk iterator per call, so one stream
    object can serve multi-pass consumers (the dispatching sweep may
    profile LRU configs in one pass and replay FIFO/random fallbacks in
    another).  Metadata is optional; a store-backed stream knows its
    digest and counts from the write-time meta record (kept whole as
    ``meta``), while an ad-hoc stream computes them lazily on demand
    (one extra column pass).
    """

    def __init__(self, factory: Callable[[], Iterable[TraceChunk]], *,
                 length: Optional[int] = None,
                 digest: Optional[str] = None,
                 prefetch_count: Optional[int] = None,
                 load_accesses: Optional[dict[int, int]] = None,
                 store_accesses: Optional[dict[int, int]] = None,
                 meta: Optional[dict] = None):
        self._factory = factory
        self.meta = meta
        self.length = length
        self._digest = digest
        self._prefetch_count = prefetch_count
        self._load_accesses = load_accesses
        self._store_accesses = store_accesses

    def __iter__(self) -> Iterator[TraceChunk]:
        return iter(self._factory())

    @property
    def digest(self) -> str:
        """The canonical content digest, scanning once if unknown."""
        if self._digest is None:
            rolling = RollingTraceDigest()
            for chunk in self:
                rolling.update(chunk)
            self._digest = rolling.hexdigest()
            if self.length is None:
                self.length = rolling.rows
        return self._digest

    def access_counts(self) -> tuple[dict[int, int], dict[int, int], int]:
        """Per-PC (load, store) access counts plus the prefetch total.

        Served from metadata when the producer recorded it; otherwise
        computed in one :class:`AccessTally` pass and memoized.
        """
        if self._load_accesses is None:
            tally = AccessTally()
            rows = 0
            for chunk in self:
                tally.update(chunk.pcs, chunk.kinds)
                rows += len(chunk)
            (self._load_accesses, self._store_accesses,
             self._prefetch_count) = tally.split()
            if self.length is None:
                self.length = rows
        return (self._load_accesses, self._store_accesses,
                self._prefetch_count)

    @property
    def prefetch_count(self) -> int:
        if self._prefetch_count is None:
            self.access_counts()
        return self._prefetch_count


@dataclass
class MemoryTrace:
    """Sequence of data-memory accesses in execution order."""

    pcs: array = field(default_factory=lambda: array("I"))
    addresses: array = field(default_factory=lambda: array("I"))
    kinds: array = field(default_factory=lambda: array("B"))

    def __len__(self) -> int:
        return len(self.pcs)

    def append(self, pc: int, address: int, kind: int) -> None:
        self.pcs.append(pc)
        self.addresses.append(address)
        self.kinds.append(kind)

    def extend(self, pcs: Iterable[int], addresses: Iterable[int],
               kinds: Iterable[int]) -> None:
        """Bulk-append one run of accesses to all three columns.

        The block execution engine records a whole basic block per call:
        the (pc, kind) runs are compile-time constant ``array``s, so
        both extends are C-level copies, and only the address column is
        built per execution.
        """
        self.pcs.extend(pcs)
        self.addresses.extend(addresses)
        self.kinds.extend(kinds)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return zip(self.pcs, self.addresses, self.kinds)

    def loads(self) -> Iterator[tuple[int, int]]:
        """Yield ``(pc, address)`` for load accesses only.

        Pure-Python row iteration; hot callers should prefer the
        column fast paths :meth:`load_pcs` / :meth:`load_addresses`.
        """
        for pc, address, kind in self:
            if kind == LOAD:
                yield pc, address

    def _load_column(self, column: array) -> array:
        # compress + map(int.__eq__) keeps the selection entirely in C.
        return array("I", compress(column, map(LOAD.__eq__, self.kinds)))

    def load_pcs(self) -> array:
        """The pc column restricted to load rows, as a packed array."""
        return self._load_column(self.pcs)

    def load_addresses(self) -> array:
        """The address column restricted to load rows."""
        return self._load_column(self.addresses)

    # -- kind counts ----------------------------------------------------
    def _kind_counts(self) -> tuple[int, int, int]:
        """(loads, stores, prefetches), all tallied from one snapshot.

        The three counts are taken together over a single ``tobytes``
        snapshot of the kind column (``bytes.count`` runs at C speed)
        and memoized against the trace length, so hot consumers that
        query them per chunk — the streaming pipeline, the store writer
        — pay the column scan once instead of once per property.  Any
        growth of the trace (``append``/``extend``, or the engines'
        direct column appends) changes the length and invalidates the
        memo; so does the streaming drain's column truncation.
        """
        memo = getattr(self, "_kind_counts_memo", None)
        if memo is not None and memo[0] == len(self.kinds):
            return memo[1]
        data = self.kinds.tobytes()
        counts = (data.count(LOAD), data.count(STORE),
                  data.count(PREFETCH))
        self._kind_counts_memo = (len(data), counts)
        return counts

    @property
    def load_count(self) -> int:
        return self._kind_counts()[0]

    @property
    def store_count(self) -> int:
        # Counted directly: ``len(self) - load_count`` would misclassify
        # PREFETCH records as stores.
        return self._kind_counts()[1]

    @property
    def prefetch_count(self) -> int:
        return self._kind_counts()[2]

    # -- chunk protocol -------------------------------------------------
    def chunks(self, chunk_accesses: int = DEFAULT_CHUNK_ACCESSES
               ) -> Iterator[TraceChunk]:
        """Slice the trace into fixed-size :class:`TraceChunk` runs.

        Every chunk holds exactly ``chunk_accesses`` rows except the
        last; slicing copies the columns, so the chunks stay valid even
        if the trace keeps growing.
        """
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        for start in range(0, len(self), chunk_accesses):
            stop = start + chunk_accesses
            yield TraceChunk(self.pcs[start:stop],
                             self.addresses[start:stop],
                             self.kinds[start:stop], start)

    def chunk_stream(self, chunk_accesses: int = DEFAULT_CHUNK_ACCESSES
                     ) -> ChunkStream:
        """A re-openable chunked view of this trace."""
        return ChunkStream(lambda: self.chunks(chunk_accesses),
                           length=len(self))

    def digest(self) -> str:
        """Canonical content digest, memoized on the trace object."""
        memo = getattr(self, "_digest_memo", None)
        if memo is not None and memo[0] == len(self):
            return memo[1]
        rolling = RollingTraceDigest()
        rolling.update(TraceChunk(self.pcs, self.addresses, self.kinds))
        digest = rolling.hexdigest()
        self._digest_memo = (len(self), digest)
        return digest
