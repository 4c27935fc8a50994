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

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from repro.cache.config import CacheConfig
from repro.cache.lru import BoundedCache
from repro.machine.trace import (LOAD, PREFETCH, STORE, AccessTally,
                                 ChunkStream, MemoryTrace, TraceChunk)

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


def _tallied(tally: AccessTally, columns: Iterable[tuple]
             ) -> Iterator[tuple]:
    """Pass ``columns`` through unchanged, tallying each triple."""
    for pcs, addresses, kinds in columns:
        tally.update(pcs, kinds)
        yield pcs, addresses, kinds


def _counted_columns(source: TraceSource
                    ) -> tuple[Iterator[tuple],
                               Callable[[], tuple[dict[int, int],
                                                  dict[int, int], int]]]:
    """The column feed of ``source`` and its per-PC access counts.

    Returns ``(columns, counts)``: ``counts()`` gives the per-PC (load,
    store) access counts and the prefetch total once ``columns`` has
    been drained.  Materialized traces use the memoized column scan and
    store-backed streams the counts recorded at write time; any other
    source is tallied while its columns flow past, so a one-shot chunk
    iterator is read only once.
    """
    if isinstance(source, MemoryTrace) or (
            isinstance(source, ChunkStream)
            and source._load_accesses is not None):
        return (_chunk_columns(source),
                lambda: source_access_counts(source))
    tally = AccessTally()
    return (_tallied(tally, _chunk_columns(source)),
            tally.split)


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
    columns, counts = _counted_columns(source)
    for _ in columns:
        pass
    return counts()


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
# are recorded through bound ``array('I').append``s and aggregated with
# ``collections.Counter`` (C speed) after the pass.  The replacement
# logic is emitted verbatim from :func:`simulate_trace`'s loop, so the
# per-config results — including the pseudo-random victim sequence —
# are bit-identical to per-config replays.  :class:`ReplayFold`s add
# other per-row analyses (the scenario pass's PCAX predictor and
# redundancy state) to the same loop.


def _emit_cache_update(tag: str, config: CacheConfig, block_var: str,
                       miss_lines: Sequence[str],
                       indent: int) -> list[str]:
    """Emit one cache's per-access update at ``indent``.

    ``miss_lines`` (relative indentation) are placed in the miss branch
    after the fill.
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


@dataclass(frozen=True)
class ReplayFold:
    """Per-row work a compiled replay runs beside its caches.

    The fields are lines of generated source without their base
    indentation: ``state`` opens the replay function, and ``load`` and
    ``store`` run in that kind's branch after the cache updates.  They
    may read ``pc``, ``address`` and ``block{size}`` (the address
    shifted to a ``size``-byte block) for each size in ``blocks``.
    ``result`` is the expression the replay hands back for the fold,
    and ``finish(value, load_accesses)`` turns it into the fold's
    result.  Folds compare by their source, so equal folds share one
    compiled replay.
    """

    state: tuple[str, ...]
    load: tuple[str, ...] = ()
    store: tuple[str, ...] = ()
    blocks: tuple[int, ...] = ()
    result: str = "None"
    finish: Callable[[Any, dict[int, int]], Any] = field(
        default=lambda value, load_accesses: value, compare=False)


def _block_expression(size: int) -> str:
    if size & (size - 1):
        return f"address // {size}"
    return f"address >> {size.bit_length() - 1}"


def _compile_replay(configs: Sequence[CacheConfig],
                    folds: Sequence[ReplayFold] = ()):
    """Build ``replay(columns) -> ([(lm, sm, fills), ...], [value, ...])``.

    ``columns`` is an iterable of ``(pcs, addresses, kinds)`` triples
    (one for a materialized trace, one per chunk for a stream); all
    cache and fold state lives in locals and folds across the triples,
    so chunk boundaries are invisible to the replay semantics.  The
    second list holds each fold's ``result``.
    """
    sizes = dict.fromkeys([c.block_size for c in configs]
                          + [size for fold in folds for size in fold.blocks])
    lines = ["def replay(columns):"]
    for index, config in enumerate(configs):
        lines += _emit_cache_state(str(index), config)
        lines += [f"    lm{index} = array('I')",
                  f"    lma{index} = lm{index}.append",
                  f"    sm{index} = array('I')",
                  f"    sma{index} = sm{index}.append",
                  f"    fills{index} = 0"]
    for fold in folds:
        lines += [f"    {line}" for line in fold.state]
    lines.append("    for pcs, addresses, kinds in columns:")
    lines.append("      for pc, address, kind in zip(pcs, addresses,"
                 " kinds):")
    for size in sizes:
        lines.append(f"        block{size} = {_block_expression(size)}")
    head = "if"
    for kind, miss, part in ((LOAD, "lma{i}(pc)", "load"),
                             (STORE, "sma{i}(pc)", "store"),
                             (PREFETCH, "fills{i} += 1", None)):
        body = []
        for index, config in enumerate(configs):
            body += _emit_cache_update(
                str(index), config, f"block{config.block_size}",
                [miss.format(i=index)], 12)
        if part is not None:
            body += [f"            {line}" for fold in folds
                     for line in getattr(fold, part)]
        if body:
            lines.append(f"        {head} kind == {kind}:")
            lines += body
            head = "elif"
    if head == "if":
        lines.append("        pass")
    triples = ", ".join(f"(lm{i}, sm{i}, fills{i})"
                        for i in range(len(configs)))
    values = ", ".join(fold.result for fold in folds)
    lines.append(f"    return [{triples}], [{values}]")
    namespace: dict = {"array": array}
    exec("\n".join(lines), namespace)  # trusted, generated source
    return namespace["replay"]


_REPLAY_CACHE = BoundedCache(64)


def _replay_for(configs: Sequence[CacheConfig],
                folds: Sequence[ReplayFold] = ()):
    key = (tuple((c.num_sets, c.assoc, c.block_size, c.replacement,
                  c.rng_seed)
                 for c in configs), tuple(folds))
    replay = _REPLAY_CACHE.get(key)
    if replay is None:
        replay = _compile_replay(configs, folds)
        _REPLAY_CACHE.put(key, replay)
    return replay


def shared_access_counts(trace: MemoryTrace
                         ) -> tuple[dict[int, int], dict[int, int]]:
    """Per-PC (load, store) access counts, shared by every config.

    The counts are one C-speed
    :class:`~repro.machine.trace.AccessTally` pass over the columns.
    The result is memoized on the trace (every consumer copies the
    dicts into its ``CacheStats``), so a histogram-served re-sweep
    never rescans the columns.
    """
    memo = getattr(trace, "_access_counts", None)
    if memo is not None and memo[0] == len(trace):
        return memo[1], memo[2]
    tally = AccessTally()
    tally.update(trace.pcs, trace.kinds)
    load_accesses, store_accesses, _ = tally.split()
    trace._access_counts = (len(trace), load_accesses, store_accesses)
    return load_accesses, store_accesses


def simulate_trace_multi(source: TraceSource,
                         configs: Sequence[CacheConfig],
                         folds: Sequence[ReplayFold] = ()) -> list[Any]:
    """Replay an access stream once through N cold caches.

    Produces bit-identical results to N separate :func:`simulate_trace`
    calls while paying the trace decode, the kind dispatch, the block
    division (per distinct block size) and the per-PC *access* counting
    — all config-independent — only once; only the hit/miss state is
    per-config.  Chunked sources replay with bounded RSS; when the
    stream carries no producer-recorded counts, the access tally rides
    the same single pass.

    Returns one :class:`CacheStats` per config, followed by one result
    per fold of ``folds``, which ride the same pass.
    """
    configs = list(configs)
    if not configs and not folds:
        return []
    columns, counts = _counted_columns(source)
    raw, values = _replay_for(configs, folds)(columns)
    load_accesses, store_accesses, prefetch_ops = counts()
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
    ] + [fold.finish(value, load_accesses)
         for fold, value in zip(folds, values)]
