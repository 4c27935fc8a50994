"""Two-level cache hierarchy (extension).

The paper evaluates L1 data-cache misses only; this extension adds an L2
behind the L1 so the question "do statically identified delinquent loads
also dominate the *L2* miss stream (the truly expensive events)?" can be
answered — see the hierarchy ablation bench.

Model: L1 lookup first; on an L1 miss the L2 is consulted and the block
is filled into both levels (inclusive fill, independent replacement
state, write-allocate at both levels).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.cache.config import CacheConfig
from repro.cache.model import Cache, TraceSource, _chunk_columns
from repro.machine.trace import LOAD


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of a two-level data-cache hierarchy."""

    l1: CacheConfig = CacheConfig(size=8 * 1024, assoc=4, block_size=32)
    l2: CacheConfig = CacheConfig(size=128 * 1024, assoc=8,
                                  block_size=64)

    def __post_init__(self) -> None:
        if self.l2.size < self.l1.size:
            raise ValueError("L2 smaller than L1")
        if self.l2.block_size < self.l1.block_size:
            raise ValueError("L2 block smaller than L1 block")

    def describe(self) -> str:
        return f"L1[{self.l1.describe()}] + L2[{self.l2.describe()}]"


DEFAULT_HIERARCHY = HierarchyConfig()


@dataclass
class HierarchyStats:
    """Per-PC results of one trace replay through both levels."""

    config: HierarchyConfig
    load_accesses: dict[int, int] = field(default_factory=dict)
    l1_load_misses: dict[int, int] = field(default_factory=dict)
    l2_load_misses: dict[int, int] = field(default_factory=dict)
    store_accesses: int = 0
    l1_store_misses: int = 0
    l2_store_misses: int = 0

    @property
    def total_l1_load_misses(self) -> int:
        return sum(self.l1_load_misses.values())

    @property
    def total_l2_load_misses(self) -> int:
        return sum(self.l2_load_misses.values())

    def l2_miss_coverage(self, delta: set[int]) -> float:
        """Share of L2 load misses caused by members of ``delta``."""
        total = self.total_l2_load_misses
        if total == 0:
            return 0.0
        covered = sum(self.l2_load_misses.get(pc, 0) for pc in delta)
        return covered / total


def simulate_trace_hierarchy(source: TraceSource,
                             config: HierarchyConfig = DEFAULT_HIERARCHY
                             ) -> HierarchyStats:
    """Replay a trace source through a cold two-level hierarchy."""
    l1_access = Cache(config.l1).access
    l2_access = Cache(config.l2).access
    load_accesses: dict[int, int] = defaultdict(int)
    l1_misses: dict[int, int] = defaultdict(int)
    l2_misses: dict[int, int] = defaultdict(int)
    store_accesses = 0
    l1_store_misses = 0
    l2_store_misses = 0

    for pcs, addresses, kinds in _chunk_columns(source):
        for pc, address, kind in zip(pcs, addresses, kinds):
            l1_hit = l1_access(address)
            l2_hit = True
            if not l1_hit:
                l2_hit = l2_access(address)
            if kind == LOAD:
                load_accesses[pc] += 1
                if not l1_hit:
                    l1_misses[pc] += 1
                    if not l2_hit:
                        l2_misses[pc] += 1
            else:
                store_accesses += 1
                if not l1_hit:
                    l1_store_misses += 1
                    if not l2_hit:
                        l2_store_misses += 1

    return HierarchyStats(
        config=config,
        load_accesses=dict(load_accesses),
        l1_load_misses=dict(l1_misses),
        l2_load_misses=dict(l2_misses),
        store_accesses=store_accesses,
        l1_store_misses=l1_store_misses,
        l2_store_misses=l2_store_misses,
    )
