"""Single-pass stack-distance sweep engine for LRU cache families.

:func:`~repro.cache.model.simulate_trace_multi` shares the trace decode
across configurations but still keeps per-config hit/miss state, so a
size x associativity sweep costs O(trace x configs).  For LRU caches
the inclusion property collapses most of that work: with a fixed set
mapping (block size + number of sets) an A-way set holds exactly the A
most-recently-used blocks of that set, so an access hits an A-way cache
iff its per-set stack distance is below A — for *every* A at once.

This module replays a trace **once per set mapping**, recording each
access's stack distance into per-PC distance histograms (a
:class:`SweepProfile`).  Any LRU :class:`CacheConfig` whose set mapping
is profiled is then evaluated in O(static instructions) by summing the
``distance >= assoc`` tail of the histogram, producing a
:class:`CacheStats` bit-identical to :func:`simulate_trace`.  Distances
are tracked exactly up to the profile's ``capacity`` (at least
:data:`DEFAULT_CAPACITY`); anything deeper lands in an overflow bin
that is a miss at every associativity the profile serves, so the bound
costs no precision.

:func:`simulate_sweep` is the dispatching entry point: LRU configs are
grouped by block size and served through profiles (all missing set
mappings are computed in one fused pass over the trace, with the decode
and block division shared); FIFO/random policies — and lone LRU configs
that no cached profile already covers — fall back to the
exec-specialized replay.  A :class:`ProfileStore` keeps profiles in a
bounded memory tier keyed by ``(trace digest, block size)`` and
optionally persists them as JSON next to the pipeline's disk cache, so
re-sweeping a known trace with new geometries never touches the trace
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Counter as CounterType, Optional, Sequence

from collections import Counter

from repro.cache.config import CacheConfig
from repro.cache.lru import BoundedCache
from repro.cache.model import (CacheStats, ReplayFold, TraceSource,
                               _chunk_columns, simulate_trace_multi,
                               source_access_counts)
from repro.machine.trace import (LOAD, PREFETCH, STORE, ChunkStream,
                                 MemoryTrace)
from repro.store.tier import ANALYTIC, SWEEP, JsonTier

#: Distances are tracked exactly at least up to this associativity.
DEFAULT_CAPACITY = 16

#: Distance bits in a recorded event word (``pc << BITS | distance``).
_DISTANCE_BITS = 10
_DISTANCE_MASK = (1 << _DISTANCE_BITS) - 1

#: Largest associativity the histogram encoding can represent; anything
#: wider is routed to the replay engine.
MAX_SWEEP_ASSOC = _DISTANCE_MASK

#: Versions of the ``sd-`` (measured) and ``an-`` (analytic) entries.
_PROFILE_SCHEMA = 1
_ANALYTIC_SCHEMA = 1


# -- profiles ----------------------------------------------------------

@dataclass
class GroupProfile:
    """Suffix-summed distance histograms for one set mapping.

    ``load_tail[pc][a]`` is the number of load accesses by ``pc`` whose
    stack distance was >= a (1 <= a <= capacity), i.e. exactly the
    misses of ``pc`` in an a-way cache; likewise for stores, and
    ``prefetch_tail[a]`` counts prefetch fills.
    """

    num_sets: int
    load_tail: dict[int, list[int]] = field(default_factory=dict)
    store_tail: dict[int, list[int]] = field(default_factory=dict)
    prefetch_tail: list[int] = field(default_factory=list)


@dataclass
class SweepProfile:
    """Every profiled set mapping of one (trace, block size) pair."""

    block_size: int
    capacity: int
    groups: dict[int, GroupProfile] = field(default_factory=dict)

    def covers(self, config: CacheConfig) -> bool:
        return (config.block_size == self.block_size
                and config.assoc <= self.capacity
                and config.num_sets in self.groups)

    def evaluate(self, config: CacheConfig,
                 load_accesses: dict[int, int],
                 store_accesses: dict[int, int],
                 prefetch_ops: int) -> CacheStats:
        """O(static instructions) stats for one profiled geometry."""
        group = self.groups[config.num_sets]
        a = config.assoc
        return CacheStats(
            config=config,
            load_accesses=dict(load_accesses),
            load_misses={pc: tail[a] for pc, tail
                         in group.load_tail.items() if tail[a]},
            store_accesses=dict(store_accesses),
            store_misses={pc: tail[a] for pc, tail
                          in group.store_tail.items() if tail[a]},
            prefetch_ops=prefetch_ops,
            prefetch_fills=group.prefetch_tail[a],
        )


def trace_digest(source: TraceSource) -> str:
    """Canonical content hash of a trace or chunk stream.

    Delegates to the rolling per-column scheme
    (:class:`~repro.machine.trace.RollingTraceDigest`), which is
    chunk-boundary-independent — a store-backed stream and the
    materialized trace it was written from share one digest, so profile
    store entries are reusable across both paths.
    """
    if isinstance(source, MemoryTrace):
        return source.digest()
    if isinstance(source, ChunkStream):
        return source.digest
    raise TypeError("trace_digest needs a MemoryTrace or ChunkStream")


# -- the profiling pass ------------------------------------------------
#
# One exec-compiled function per distinct spec tuple, mirroring the
# replay codegen in ``cache.model``: the trace decode and the per-block-
# size division are shared, and each set mapping keeps capped per-set
# recency lists.  A list holds at most ``capacity + 1`` blocks (one
# slot is initially a -1 sentinel so the hot path is a single
# ``ways[0] != block`` compare); a block found at index d has stack
# distance d, a block absent from the list has distance >= capacity.
# Front hits (d = 0) are never recorded — they are hits at every
# associativity — and deeper events append ``pc << BITS | d`` to a flat
# array that is histogrammed at C speed after the pass.

_PASS_CACHE = BoundedCache(32)


def _compile_profile_pass(specs: Sequence[tuple[int, int, int]]):
    """specs: ``(block_size, num_sets, capacity)`` per group."""
    blocks = {bs: f"block{bs}" for bs, _, _ in specs}
    lines = ["def profile_pass(columns):"]
    for index, (_, num_sets, capacity) in enumerate(specs):
        lines += [f"    sets{index} = [[-1] for _ in range({num_sets})]",
                  f"    le{index} = _array('Q')",
                  f"    lea{index} = le{index}.append",
                  f"    se{index} = _array('Q')",
                  f"    sea{index} = se{index}.append",
                  f"    pb{index} = [0] * {capacity + 1}"]
    # Outer chunk loop at indent 4, row loop at indent 6: the per-row
    # body below stays at its materialized-path indentation, so the
    # generated per-access code is textually identical either way and
    # recency state simply persists across chunk boundaries.
    lines.append("    for pcs, addresses, kinds in columns:")
    lines.append("      for pc, address, kind in zip(pcs, addresses,"
                 " kinds):")
    for size, name in blocks.items():
        lines.append(f"        {name} = address // {size}")
    for kind, record in ((LOAD, "lea{i}(pc_d | {d})"),
                         (STORE, "sea{i}(pc_d | {d})"),
                         (PREFETCH, "pb{i}[{d}] += 1")):
        head = "if" if kind == LOAD else "elif"
        lines.append(f"        {head} kind == {kind}:")
        if kind != PREFETCH:
            lines.append(f"            pc_d = pc << {_DISTANCE_BITS}")
        for index, (block_size, num_sets, capacity) in enumerate(specs):
            block = blocks[block_size]
            pad = " " * 12
            lines += [
                f"{pad}ways = sets{index}[{block} & {num_sets - 1}]",
                f"{pad}if ways[0] != {block}:",
                f"{pad}    if {block} in ways:",
                f"{pad}        d = ways.index({block})",
                f"{pad}        del ways[d]",
                f"{pad}        ways.insert(0, {block})",
                f"{pad}        " + record.format(i=index, d="d"),
                f"{pad}    else:",
                f"{pad}        if len(ways) > {capacity}:",
                f"{pad}            ways.pop()",
                f"{pad}        ways.insert(0, {block})",
                f"{pad}        " + record.format(i=index, d=capacity),
            ]
    results = ", ".join(f"(le{i}, se{i}, pb{i})"
                        for i in range(len(specs)))
    lines.append(f"    return [{results}]")
    from array import array
    namespace: dict = {"_array": array}
    exec("\n".join(lines), namespace)  # trusted, generated source
    return namespace["profile_pass"]


def _pass_for(specs: tuple[tuple[int, int, int], ...]):
    fn = _PASS_CACHE.get(specs)
    if fn is None:
        fn = _compile_profile_pass(specs)
        _PASS_CACHE.put(specs, fn)
    return fn


def _tail_histograms(events, capacity: int) -> dict[int, list[int]]:
    """Aggregate recorded events into per-PC suffix-summed histograms."""
    tails: dict[int, list[int]] = {}
    counts: CounterType[int] = Counter(events)
    for word, count in counts.items():
        pc = word >> _DISTANCE_BITS
        tail = tails.get(pc)
        if tail is None:
            tails[pc] = tail = [0] * (capacity + 1)
        tail[word & _DISTANCE_MASK] = count
    for tail in tails.values():
        for d in range(capacity - 1, 0, -1):
            tail[d] += tail[d + 1]
    return tails


def _suffix_sum(bins: list[int]) -> list[int]:
    tail = list(bins)
    for d in range(len(tail) - 2, 0, -1):
        tail[d] += tail[d + 1]
    return tail


def compute_groups(source: TraceSource,
                   specs: Sequence[tuple[int, int, int]]
                   ) -> list[GroupProfile]:
    """One fused pass over a trace source, one profile per spec."""
    specs = tuple(specs)
    raw = _pass_for(specs)(_chunk_columns(source))
    groups = []
    for (_, num_sets, capacity), (loads, stores, pref) in zip(specs, raw):
        groups.append(GroupProfile(
            num_sets=num_sets,
            load_tail=_tail_histograms(loads, capacity),
            store_tail=_tail_histograms(stores, capacity),
            prefetch_tail=_suffix_sum(pref),
        ))
    return groups


# -- the profile store -------------------------------------------------

class ProfileStore:
    """Bounded in-memory profiles over an optional JSON disk tier.

    Two keyspaces share one memory LRU and one directory (the
    ``stackdist/`` subdirectory beside the pipeline's result cache):
    measured sweep profiles, keyed by ``(trace digest, block size)``
    under the ``sd-`` prefix, and predicted (trace-free) analytic
    profiles, keyed by *program* digest under ``an-``.  Each is a
    :class:`~repro.store.tier.JsonTier` with its own payload schema, so
    a predicted profile never shadows a measured one.
    """

    def __init__(self, capacity: int = 8,
                 disk_dir: Optional[Path] = None):
        self._memory = BoundedCache(capacity)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._sweep = JsonTier(SWEEP, _PROFILE_SCHEMA, self.disk_dir,
                               self._memory)
        self._analytic = JsonTier(ANALYTIC, _ANALYTIC_SCHEMA,
                                  self.disk_dir, self._memory)

    @property
    def counters(self) -> dict[str, int]:
        """Tier-attributed lookup counters, split between the sweep and
        analytic keyspaces.  Surfaced through the service ``metrics``
        op and the campaign engine so cache effectiveness is observable
        without instrumenting callers."""
        return {f"{space}_{name}": count
                for space, tier in (("sweep", self._sweep),
                                    ("analytic", self._analytic))
                for name, count in tier.counters.items()}

    def stats(self) -> dict[str, object]:
        """Counter snapshot plus overall hit rate (JSON-able)."""
        c = self.counters
        hits = (c["sweep_memory_hits"] + c["sweep_disk_hits"]
                + c["analytic_memory_hits"] + c["analytic_disk_hits"])
        lookups = hits + c["sweep_misses"] + c["analytic_misses"]
        snapshot: dict[str, object] = dict(c)
        snapshot["hit_rate"] = round(hits / lookups, 4) if lookups \
            else 0.0
        return snapshot

    def get(self, digest: str, block_size: int
            ) -> Optional[SweepProfile]:
        return self._sweep.get(f"{digest}-bs{block_size}",
                               _decode_sweep)[0]

    def put(self, digest: str, block_size: int,
            profile: SweepProfile) -> None:
        self._sweep.put(f"{digest}-bs{block_size}", profile, {
            "block_size": profile.block_size,
            "capacity": profile.capacity,
            "groups": {
                str(g.num_sets): {
                    "load": {str(pc): tail for pc, tail
                             in g.load_tail.items()},
                    "store": {str(pc): tail for pc, tail
                              in g.store_tail.items()},
                    "prefetch": g.prefetch_tail,
                }
                for g in profile.groups.values()
            },
        })

    def get_analytic(self, digest: str, block_size: int):
        """A cached :class:`~repro.analytic.engine.AnalyticProfile`."""
        from repro.analytic.engine import AnalyticProfile
        return self._analytic.get(f"{digest}-bs{block_size}",
                                  AnalyticProfile.from_payload)[0]

    def put_analytic(self, digest: str, block_size: int,
                     profile) -> None:
        self._analytic.put(f"{digest}-bs{block_size}", profile,
                           profile.to_payload())


def _decode_sweep(payload: dict) -> SweepProfile:
    groups = {}
    for sets_text, entry in payload["groups"].items():
        num_sets = int(sets_text)
        groups[num_sets] = GroupProfile(
            num_sets=num_sets,
            load_tail={int(pc): [int(n) for n in tail]
                       for pc, tail in entry["load"].items()},
            store_tail={int(pc): [int(n) for n in tail]
                        for pc, tail in entry["store"].items()},
            prefetch_tail=[int(n) for n in entry["prefetch"]],
        )
    return SweepProfile(block_size=int(payload["block_size"]),
                        capacity=int(payload["capacity"]), groups=groups)


#: Default store for callers without their own cache directory policy
#: (e.g. the prefetch evaluation harness): memory tier only.
_DEFAULT_STORE = ProfileStore()


# -- the dispatching sweep ---------------------------------------------

def simulate_sweep(source: TraceSource,
                   configs: Sequence[CacheConfig],
                   store: Optional[ProfileStore] = None,
                   folds: Sequence[ReplayFold] = ()) -> list[Any]:
    """Simulate every config with the cheapest exact engine.

    LRU configs are grouped by block size: when a group sweeps more
    geometries than set mappings — or a cached profile already covers it
    — it is served from stack-distance histograms, computing any missing
    set mappings in one fused pass over the trace.  Everything else
    (FIFO/random, lone uncached LRU configs, associativities beyond
    :data:`MAX_SWEEP_ASSOC`) falls back to
    :func:`~repro.cache.model.simulate_trace_multi`.  Either route
    returns :class:`CacheStats` bit-identical to per-config
    :func:`~repro.cache.model.simulate_trace`.

    ``source`` may be a :class:`MemoryTrace` or a re-openable
    :class:`ChunkStream` (the sweep may pass over the access stream more
    than once: the fused profile pass plus the fallback replay).  A
    one-shot chunk iterator is replayed in a single
    :func:`simulate_trace_multi` pass with no profile serving.

    ``folds`` ride the fallback replay (a replay of no configs when
    every config is served by profiles); their results follow the
    configs' stats in the returned list, as in
    :func:`simulate_trace_multi`.
    """
    configs = list(configs)
    if not configs and not folds:
        return []
    if not isinstance(source, (MemoryTrace, ChunkStream)):
        return simulate_trace_multi(source, configs, folds)
    if store is None:
        store = _DEFAULT_STORE

    by_block: dict[int, list[int]] = {}
    fallback: list[int] = []
    for index, config in enumerate(configs):
        if config.replacement == "lru" and config.assoc <= MAX_SWEEP_ASSOC:
            by_block.setdefault(config.block_size, []).append(index)
        else:
            fallback.append(index)

    digest = trace_digest(source) if by_block else None
    profiled: list[int] = []        # config indices served by profiles
    profiles: dict[int, SweepProfile] = {}
    specs: list[tuple[int, int, int]] = []   # fused pass work list
    for block_size, indices in sorted(by_block.items()):
        geometries = {(configs[i].num_sets, configs[i].assoc)
                      for i in indices}
        needed_sets = {s for s, _ in geometries}
        needed_cap = max(a for _, a in geometries)
        profile = store.get(digest, block_size)
        if profile is not None and profile.capacity < needed_cap:
            profile = None          # too shallow: rebuild at new depth
        if profile is None and len(geometries) <= len(needed_sets):
            # no sharing to exploit and nothing cached: replay wins
            fallback.extend(indices)
            continue
        if profile is None:
            profile = SweepProfile(
                block_size=block_size,
                capacity=max(DEFAULT_CAPACITY, needed_cap))
        profiles[block_size] = profile
        profiled.extend(indices)
        specs.extend((block_size, num_sets, profile.capacity)
                     for num_sets in sorted(needed_sets
                                            - profile.groups.keys()))

    if specs:
        for (block_size, num_sets, _), group in zip(
                specs, compute_groups(source, specs)):
            profiles[block_size].groups[num_sets] = group
        for block_size in sorted({bs for bs, _, _ in specs}):
            store.put(digest, block_size, profiles[block_size])

    results: dict[int, CacheStats] = {}
    if profiled:
        (load_accesses, store_accesses,
         prefetch_ops) = source_access_counts(source)
        for index in profiled:
            config = configs[index]
            results[index] = profiles[config.block_size].evaluate(
                config, load_accesses, store_accesses, prefetch_ops)
    values: list[Any] = []
    if fallback or folds:
        replayed = simulate_trace_multi(
            source, [configs[i] for i in fallback], folds)
        results.update(zip(fallback, replayed))
        values = replayed[len(fallback):]
    return [results[index] for index in range(len(configs))] + values
