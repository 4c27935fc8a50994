"""Set-associative data-cache simulator.

Replays an access stream and produces per-static-instruction hit/miss
counters — M(i, C) in the paper's notation — which the training
formulae, the metrics (rho, ideal-Delta) and Table 2 all consume.

The cache is write-allocate (stores fetch the block on miss), with LRU,
FIFO or pseudo-random replacement.  One trace can be replayed under many
configurations; execution and cache simulation are deliberately decoupled.

Every replay entry point accepts either a materialized
:class:`~repro.machine.trace.MemoryTrace` or a chunked source (a
:class:`~repro.machine.trace.ChunkStream` or any iterable of
:class:`~repro.machine.trace.TraceChunk`): cache state folds over the
chunk sequence exactly as it folds over the monolithic columns, so the
two shapes are bit-identical by construction and out-of-core traces
replay with bounded RSS.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence, Union

from repro.cache.config import CacheConfig
from repro.cache.lru import BoundedCache
from repro.machine.trace import (LOAD, PREFETCH, STORE, ChunkStream,
                                 MemoryTrace, TraceChunk)

#: Anything the replay engines can consume.
TraceSource = Union[MemoryTrace, ChunkStream, Iterable[TraceChunk]]


@dataclass
class CacheStats:
    """Per-PC and aggregate results of one trace replay."""

    config: CacheConfig
    load_accesses: dict[int, int] = field(default_factory=dict)
    load_misses: dict[int, int] = field(default_factory=dict)
    store_accesses: dict[int, int] = field(default_factory=dict)
    store_misses: dict[int, int] = field(default_factory=dict)
    prefetch_ops: int = 0
    prefetch_fills: int = 0          # prefetches that brought a new block

    # -- aggregates ----------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return (sum(self.load_accesses.values())
                + sum(self.store_accesses.values()))

    @property
    def total_load_accesses(self) -> int:
        return sum(self.load_accesses.values())

    @property
    def total_load_misses(self) -> int:
        """M(P(I), C): total misses attributable to load instructions.

        The paper's Delta sets contain only loads, so coverage rho is
        defined over load misses; store misses are tracked separately.
        """
        return sum(self.load_misses.values())

    @property
    def total_store_misses(self) -> int:
        return sum(self.store_misses.values())

    def misses_of(self, pcs) -> int:
        """M(S, C) for a set of static load addresses."""
        load_misses = self.load_misses
        return sum(load_misses.get(pc, 0) for pc in pcs)

    def miss_rate(self) -> float:
        accesses = self.total_accesses
        if accesses == 0:
            return 0.0
        return (self.total_load_misses + self.total_store_misses) / accesses

    def loads_by_misses(self) -> list[tuple[int, int]]:
        """Static loads sorted by descending miss count: (pc, misses)."""
        return sorted(self.load_misses.items(),
                      key=lambda item: (-item[1], item[0]))


# -- the per-config record ---------------------------------------------
#
# One encoding of a CacheStats: the ``simulate`` op's result row, the
# ``predict`` op's row, a campaign worker's reply and the pipeline's
# disk entry.  Per-PC columns are keyed by hex PC, in PC order.

def cache_config_to_dict(config: CacheConfig) -> dict[str, Any]:
    """A config's wire form (the seed of a ``random`` policy is not
    part of it)."""
    return {"size": config.size, "assoc": config.assoc,
            "block_size": config.block_size,
            "replacement": config.replacement}


def _hex_column(counts: dict[int, int]) -> dict[str, int]:
    return {f"{pc:#x}": n for pc, n in sorted(counts.items())}


def stats_to_row(stats: CacheStats,
                 loads_only: bool = False) -> dict[str, Any]:
    """The per-config row; ``loads_only`` drops the store and prefetch
    columns (the analytic ``predict`` rows carry loads only)."""
    row: dict[str, Any] = {
        "config": cache_config_to_dict(stats.config),
        "description": stats.config.describe(),
        "total_load_misses": stats.total_load_misses,
        "total_load_accesses": stats.total_load_accesses,
        "load_misses": _hex_column(stats.load_misses),
        "load_accesses": _hex_column(stats.load_accesses),
    }
    if not loads_only:
        row["store_misses"] = _hex_column(stats.store_misses)
        row["store_accesses"] = _hex_column(stats.store_accesses)
        row["prefetch_ops"] = stats.prefetch_ops
        row["prefetch_fills"] = stats.prefetch_fills
    return row


def stats_from_row(row: dict[str, Any],
                   config: CacheConfig) -> CacheStats:
    """Inverse of :func:`stats_to_row` for a full row simulated under
    ``config``; raises ``KeyError``/``TypeError``/``ValueError`` on a
    torn or mistyped row."""
    def column(name: str) -> dict[int, int]:
        return {int(pc, 16): int(n) for pc, n in row[name].items()}

    return CacheStats(
        config=config,
        load_accesses=column("load_accesses"),
        load_misses=column("load_misses"),
        store_accesses=column("store_accesses"),
        store_misses=column("store_misses"),
        prefetch_ops=int(row["prefetch_ops"]),
        prefetch_fills=int(row["prefetch_fills"]),
    )


class Cache:
    """One set-associative cache instance.

    Geometry and policy are hoisted into instance attributes at
    construction: the seed implementation recomputed the ``num_sets``
    property (an integer division) and compared the replacement string
    on every access, which dominated :meth:`access` time.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._block_size = config.block_size
        self._set_mask = config.num_sets - 1
        self._assoc = config.assoc
        self._lru = config.replacement == "lru"
        self._random = config.replacement == "random"
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        # deterministic pseudo-random victims, seeded by the config
        self._rng_state = config.rng_seed

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self._rng_state = self.config.rng_seed

    def access(self, address: int) -> bool:
        """Touch ``address``; return True on hit."""
        block = address // self._block_size
        ways = self._sets[block & self._set_mask]
        if block in ways:
            if self._lru and ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            return True
        self._insert(ways, block)
        return False

    def _insert(self, ways: list[int], block: int) -> None:
        if len(ways) >= self._assoc:
            if self._random:
                self._rng_state = (self._rng_state * 1103515245 + 12345) \
                    & 0x7FFF_FFFF
                ways.pop(self._rng_state % len(ways))
            else:  # lru and fifo both evict the tail
                ways.pop()
        ways.insert(0, block)

    def contains(self, address: int) -> bool:
        block = address // self._block_size
        return block in self._sets[block & self._set_mask]


def _chunk_columns(source: TraceSource
                   ) -> Iterator[tuple]:
    """Yield ``(pcs, addresses, kinds)`` column triples for ``source``.

    A materialized trace is a single triple (the monolithic columns —
    no slicing, no copies); a chunked source yields one triple per
    chunk.  Replay state folds across the triples, so consumers see the
    same access sequence either way.
    """
    if isinstance(source, MemoryTrace):
        yield source.pcs, source.addresses, source.kinds
        return
    for chunk in source:
        yield chunk.pcs, chunk.addresses, chunk.kinds


#: Public spelling of the column iterator for the scenario families
#: (``repro.tlb``, ``repro.redundancy``): any analysis that folds state
#: over the access sequence should consume this, never the raw chunks,
#: so materialized and streamed inputs stay bit-identical by
#: construction.
chunk_columns = _chunk_columns


class _AccessTally:
    """Per-PC access counts accumulated while chunks flow past.

    One-shot chunk iterators cannot be rescanned after the replay, so
    the counting work :func:`shared_access_counts` does for materialized
    traces happens inline: wrap the column feed with :meth:`feed`, then
    read the totals after the replay has drained it.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.kind_of: dict[int, int] = {}
        self.prefetch_ops = 0

    def feed(self, columns: Iterable[tuple]) -> Iterator[tuple]:
        for pcs, addresses, kinds in columns:
            self.counts.update(pcs)
            self.kind_of.update(zip(pcs, kinds))
            self.prefetch_ops += kinds.count(PREFETCH)
            yield pcs, addresses, kinds

    def access_counts(self) -> tuple[dict[int, int], dict[int, int]]:
        load_accesses: dict[int, int] = {}
        store_accesses: dict[int, int] = {}
        kind_of = self.kind_of
        for pc, count in self.counts.items():
            kind = kind_of[pc]
            if kind == LOAD:
                load_accesses[pc] = count
            elif kind != PREFETCH:
                store_accesses[pc] = count
        return load_accesses, store_accesses


def source_access_counts(source: TraceSource
                         ) -> tuple[dict[int, int], dict[int, int], int]:
    """Per-PC (load, store) access counts and the prefetch total.

    Materialized traces use the memoized column scan; streams answer
    from producer metadata (store-backed streams record the counts at
    write time) or one counting pass.
    """
    if isinstance(source, MemoryTrace):
        load_accesses, store_accesses = shared_access_counts(source)
        return load_accesses, store_accesses, source.prefetch_count
    if isinstance(source, ChunkStream):
        return source.access_counts()
    tally = _AccessTally()
    for _ in tally.feed(_chunk_columns(source)):
        pass
    load_accesses, store_accesses = tally.access_counts()
    return load_accesses, store_accesses, tally.prefetch_ops


def simulate_trace(source: TraceSource, config: CacheConfig) -> CacheStats:
    """Replay an access stream through a cold cache of ``config``."""
    num_sets = config.num_sets
    set_mask = num_sets - 1
    block_size = config.block_size
    assoc = config.assoc
    replacement = config.replacement
    lru = replacement == "lru"
    random_policy = replacement == "random"
    rng_state = config.rng_seed

    sets: list[list[int]] = [[] for _ in range(num_sets)]
    load_accesses: dict[int, int] = defaultdict(int)
    load_misses: dict[int, int] = defaultdict(int)
    store_accesses: dict[int, int] = defaultdict(int)
    store_misses: dict[int, int] = defaultdict(int)
    prefetch_ops = 0
    prefetch_fills = 0

    load_kind, prefetch_kind = LOAD, PREFETCH  # hoisted global loads
    for pcs, addresses, kinds in _chunk_columns(source):
        for pc, address, kind in zip(pcs, addresses, kinds):
            block = address // block_size
            ways = sets[block & set_mask]
            if block in ways:
                hit = True
                if lru and ways[0] != block:
                    ways.remove(block)
                    ways.insert(0, block)
            else:
                hit = False
                if len(ways) >= assoc:
                    if random_policy:
                        rng_state = (rng_state * 1103515245 + 12345) \
                            & 0x7FFF_FFFF
                        ways.pop(rng_state % len(ways))
                    else:
                        ways.pop()
                ways.insert(0, block)
            if kind == load_kind:
                load_accesses[pc] += 1
                if not hit:
                    load_misses[pc] += 1
            elif kind == prefetch_kind:
                prefetch_ops += 1
                if not hit:
                    prefetch_fills += 1
            else:
                store_accesses[pc] += 1
                if not hit:
                    store_misses[pc] += 1

    return CacheStats(
        config=config,
        load_accesses=dict(load_accesses),
        load_misses=dict(load_misses),
        store_accesses=dict(store_accesses),
        store_misses=dict(store_misses),
        prefetch_ops=prefetch_ops,
        prefetch_fills=prefetch_fills,
    )


# -- single-pass multi-configuration replay ---------------------------
#
# The experiment engine's hot path.  A replay function specialized to
# the exact config list is generated and exec-compiled once per distinct
# geometry tuple (mirroring the simulator's "pre-compile each
# instruction to a closure" idiom): geometry constants are folded into
# the bytecode, the trace decode and kind dispatch are shared across all
# configs, distinct block sizes are divided once per access, and misses
# are recorded through bound ``list.append``s and aggregated with
# ``collections.Counter`` (C speed) after the pass.  The replacement
# logic is emitted verbatim from :func:`simulate_trace`'s loop, so the
# per-config results — including the pseudo-random victim sequence —
# are bit-identical to per-config replays.


def _emit_cache_update(tag: str, config: CacheConfig, block_var: str,
                       miss_lines: Sequence[str],
                       indent: int) -> list[str]:
    """Emit one cache's per-access update at ``indent``.

    ``miss_lines`` (relative indentation, possibly a nested update for
    a second-level cache) are placed in the miss branch after the fill.
    """
    pad = " " * indent
    set_mask = config.num_sets - 1
    lines = [f"{pad}ways = sets{tag}[{block_var} & {set_mask}]",
             f"{pad}if {block_var} in ways:"]
    if config.replacement == "lru":
        lines += [f"{pad}    if ways[0] != {block_var}:",
                  f"{pad}        ways.remove({block_var})",
                  f"{pad}        ways.insert(0, {block_var})"]
    else:
        lines.append(f"{pad}    pass")
    lines.append(f"{pad}else:")
    lines.append(f"{pad}    if len(ways) >= {config.assoc}:")
    if config.replacement == "random":
        lines += [f"{pad}        rng{tag} = (rng{tag} * 1103515245"
                  f" + 12345) & 0x7FFFFFFF",
                  f"{pad}        ways.pop(rng{tag} % len(ways))"]
    else:
        lines.append(f"{pad}        ways.pop()")
    lines.append(f"{pad}    ways.insert(0, {block_var})")
    lines += [f"{pad}    {line}" for line in miss_lines]
    return lines


def _emit_cache_state(tag: str, config: CacheConfig) -> list[str]:
    lines = [f"    sets{tag} = [[] for _ in range({config.num_sets})]"]
    if config.replacement == "random":
        lines.append(f"    rng{tag} = {config.rng_seed:#x}")
    return lines


def _block_vars(configs: Sequence[CacheConfig]) -> dict[int, str]:
    """One ``block = address // size`` variable per distinct size."""
    return {config.block_size: f"block{config.block_size}"
            for config in configs}


def _compile_replay(configs: Sequence[CacheConfig]):
    """Build ``replay(columns) -> [(lm, sm, fills), ...]``.

    ``columns`` is an iterable of ``(pcs, addresses, kinds)`` triples
    (one for a materialized trace, one per chunk for a stream); all
    cache state lives in locals and folds across the triples, so chunk
    boundaries are invisible to the replay semantics.
    """
    blocks = _block_vars(configs)
    lines = ["def replay(columns):"]
    for index, config in enumerate(configs):
        lines += _emit_cache_state(str(index), config)
        lines += [f"    lm{index} = []",
                  f"    lma{index} = lm{index}.append",
                  f"    sm{index} = []",
                  f"    sma{index} = sm{index}.append",
                  f"    fills{index} = 0"]
    lines.append("    for pcs, addresses, kinds in columns:")
    lines.append("      for pc, address, kind in zip(pcs, addresses,"
                 " kinds):")
    for size, name in blocks.items():
        lines.append(f"        {name} = address // {size}")
    for kind, miss in ((LOAD, "lma{i}(pc)"), (STORE, "sma{i}(pc)"),
                       (PREFETCH, "fills{i} += 1")):
        head = "if" if kind == LOAD else "elif"
        lines.append(f"        {head} kind == {kind}:")
        for index, config in enumerate(configs):
            lines += _emit_cache_update(
                str(index), config, blocks[config.block_size],
                [miss.format(i=index)], 12)
    results = ", ".join(f"(lm{i}, sm{i}, fills{i})"
                        for i in range(len(configs)))
    lines.append(f"    return [{results}]")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # trusted, generated source
    return namespace["replay"]


_REPLAY_CACHE = BoundedCache(64)


def _replay_for(configs: Sequence[CacheConfig]):
    key = tuple((c.num_sets, c.assoc, c.block_size, c.replacement,
                 c.rng_seed)
                for c in configs)
    replay = _REPLAY_CACHE.get(key)
    if replay is None:
        replay = _compile_replay(configs)
        _REPLAY_CACHE.put(key, replay)
    return replay


def shared_access_counts(trace: MemoryTrace
                         ) -> tuple[dict[int, int], dict[int, int]]:
    """Per-PC (load, store) access counts, shared by every config.

    A static PC has a single access kind, so the counts reduce to one
    C-speed ``Counter`` over the PC column plus a kind lookup table.
    The result is memoized on the trace (every consumer copies the
    dicts into its ``CacheStats``), so a histogram-served re-sweep
    never rescans the columns.
    """
    memo = getattr(trace, "_access_counts", None)
    if memo is not None and memo[0] == len(trace):
        return memo[1], memo[2]
    kind_of = dict(zip(trace.pcs, trace.kinds))
    counts = Counter(trace.pcs)
    load_accesses: dict[int, int] = {}
    store_accesses: dict[int, int] = {}
    for pc, count in counts.items():
        kind = kind_of[pc]
        if kind == LOAD:
            load_accesses[pc] = count
        elif kind != PREFETCH:
            store_accesses[pc] = count
    trace._access_counts = (len(trace), load_accesses, store_accesses)
    return load_accesses, store_accesses


def simulate_trace_multi(source: TraceSource,
                         configs: Sequence[CacheConfig]
                         ) -> list[CacheStats]:
    """Replay an access stream once through N cold caches.

    Produces bit-identical results to N separate :func:`simulate_trace`
    calls while paying the trace decode, the kind dispatch, the block
    division (per distinct block size) and the per-PC *access* counting
    — all config-independent — only once; only the hit/miss state is
    per-config.  Chunked sources replay with bounded RSS; when the
    stream carries no producer-recorded counts, the access tally rides
    the same single pass.
    """
    configs = list(configs)
    if not configs:
        return []
    replay = _replay_for(configs)
    if isinstance(source, MemoryTrace):
        raw = replay(_chunk_columns(source))
        load_accesses, store_accesses = shared_access_counts(source)
        prefetch_ops = source.prefetch_count
    elif (isinstance(source, ChunkStream)
          and source._load_accesses is not None):
        raw = replay(_chunk_columns(source))
        load_accesses, store_accesses, prefetch_ops = \
            source.access_counts()
    else:
        tally = _AccessTally()
        raw = replay(tally.feed(_chunk_columns(source)))
        load_accesses, store_accesses = tally.access_counts()
        prefetch_ops = tally.prefetch_ops
    return [
        CacheStats(
            config=config,
            load_accesses=dict(load_accesses),
            load_misses=dict(Counter(load_miss_pcs)),
            store_accesses=dict(store_accesses),
            store_misses=dict(Counter(store_miss_pcs)),
            prefetch_ops=prefetch_ops,
            prefetch_fills=fills,
        )
        for config, (load_miss_pcs, store_miss_pcs, fills)
        in zip(configs, raw)
    ]
