"""Page-granular dTLB model on top of the cache replay machinery.

A TLB is a cache whose blocks are pages: a geometry of ``entries``
translation slots over ``page_size``-byte pages, ``assoc``-way set
associative (fully associative when every entry sits in one set), with
LRU replacement — the policy hardware TLBs approximate.  The mapping to
:class:`repro.cache.config.CacheConfig` is exact::

    CacheConfig(size=page_size * entries, assoc=ways,
                block_size=page_size, replacement="lru")

so every engine the cache model already has — the exec-compiled
multi-config replay, the stack-distance sweep that answers all LRU
geometries from one pass per set mapping, the chunked trace streaming,
the persistent profile store — serves TLB questions unchanged.  A sweep
over N TLB geometries with the same page size costs one trace pass, and
its per-PC distance histograms land in the same ``ProfileStore``
keyspace (keyed by trace digest and block size, i.e. page size) that
cache sweeps use, so a warmed store answers TLB re-sweeps without
touching the trace at all.

Per-PC dTLB miss histograms fall out of the underlying
:class:`repro.cache.model.CacheStats` columns; :class:`TlbStats` keeps
the TLB vocabulary (accesses, misses, walks) on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cache.config import CacheConfig
from repro.cache.model import CacheStats, ReplayFold, TraceSource
from repro.cache.stackdist import ProfileStore, simulate_sweep

#: A realistic first-level dTLB: 64 entries, 4 KiB pages, fully
#: associative (the shape of most shipped L1 dTLBs).
DEFAULT_PAGE_SIZE = 4096
DEFAULT_ENTRIES = 64


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class TlbConfig:
    """One dTLB geometry.

    ``assoc=0`` (the default) means fully associative — every entry in
    one set, which is both the common hardware shape and the geometry
    the monotonicity invariants are proved for.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    entries: int = DEFAULT_ENTRIES
    assoc: int = 0

    def __post_init__(self):
        if not _is_pow2(self.page_size):
            raise ValueError(
                f"page_size must be a power of two, got {self.page_size}")
        if not _is_pow2(self.entries):
            raise ValueError(
                f"entries must be a power of two, got {self.entries}")
        ways = self.ways
        if ways < 1 or self.entries % ways:
            raise ValueError(
                f"assoc {self.assoc} does not divide {self.entries} "
                f"entries")
        if not _is_pow2(self.entries // ways):
            raise ValueError(
                f"{self.entries} entries / {ways} ways is not a "
                f"power-of-two set count")

    @property
    def ways(self) -> int:
        """Resolved associativity: ``entries`` when fully associative."""
        return self.assoc if self.assoc else self.entries

    @property
    def sets(self) -> int:
        return self.entries // self.ways

    @property
    def reach(self) -> int:
        """Bytes mapped when every entry is live."""
        return self.page_size * self.entries

    @property
    def fully_associative(self) -> bool:
        return self.ways == self.entries

    def as_cache_config(self) -> CacheConfig:
        """The exact cache-model equivalent of this geometry."""
        return CacheConfig(size=self.reach, assoc=self.ways,
                           block_size=self.page_size,
                           replacement="lru")

    def describe(self) -> str:
        page = (f"{self.page_size // 1024}KB" if self.page_size >= 1024
                else f"{self.page_size}B")
        shape = ("fully-assoc" if self.fully_associative
                 else f"{self.ways}-way")
        return f"{self.entries}-entry {shape} {page}-page TLB"

    def to_dict(self) -> dict:
        return {"page_size": self.page_size, "entries": self.entries,
                "assoc": self.assoc}


@dataclass
class TlbStats:
    """Per-PC dTLB behaviour for one geometry.

    A miss is a page-table walk; loads and stores both consult the
    dTLB, prefetches do not architecturally require a translation here
    and are excluded (the underlying replay never fills on their
    behalf either — prefetch fills model cache lines, not
    translations, so they are not surfaced).
    """

    config: TlbConfig
    cache: CacheStats = field(repr=False)

    @property
    def load_accesses(self) -> dict[int, int]:
        return self.cache.load_accesses

    @property
    def load_misses(self) -> dict[int, int]:
        return self.cache.load_misses

    @property
    def store_accesses(self) -> dict[int, int]:
        return self.cache.store_accesses

    @property
    def store_misses(self) -> dict[int, int]:
        return self.cache.store_misses

    @property
    def total_accesses(self) -> int:
        return (sum(self.cache.load_accesses.values())
                + sum(self.cache.store_accesses.values()))

    @property
    def total_misses(self) -> int:
        """Page-table walks triggered across the run."""
        return (sum(self.cache.load_misses.values())
                + sum(self.cache.store_misses.values()))

    @property
    def miss_rate(self) -> float:
        accesses = self.total_accesses
        return self.total_misses / accesses if accesses else 0.0

    def accesses_of(self, pc: int) -> int:
        return (self.cache.load_accesses.get(pc, 0)
                + self.cache.store_accesses.get(pc, 0))

    def misses_of(self, pc: int) -> int:
        return (self.cache.load_misses.get(pc, 0)
                + self.cache.store_misses.get(pc, 0))

    def pcs_by_misses(self) -> list[tuple[int, int]]:
        """``(pc, misses)`` sorted worst-first, then by PC."""
        combined: dict[int, int] = dict(self.cache.load_misses)
        for pc, count in self.cache.store_misses.items():
            combined[pc] = combined.get(pc, 0) + count
        return sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))


def simulate_tlb(source: TraceSource,
                 configs: Sequence[TlbConfig],
                 store: Optional[ProfileStore] = None,
                 folds: Sequence[ReplayFold] = ()) -> list[Any]:
    """dTLB stats for every geometry in (at most) one trace pass.

    Delegates to the dispatching stack-distance sweep: geometries
    sharing a page size collapse to one profiling pass per set
    mapping, results are bit-identical across materialized, streamed,
    and store-replayed inputs, and per-PC distance histograms persist
    in ``store`` for replay-free re-sweeps.  ``folds`` ride the
    sweep's replay pass, and their results follow the geometries'
    stats (see :func:`~repro.cache.stackdist.simulate_sweep`).
    """
    configs = list(configs)
    sweep = simulate_sweep(source,
                           [c.as_cache_config() for c in configs],
                           store=store, folds=folds)
    return [TlbStats(config=c, cache=stats)
            for c, stats in zip(configs, sweep)] + sweep[len(configs):]
