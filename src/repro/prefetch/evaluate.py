"""The cycle model for Delta-guided prefetching, and its three policies.

Cycle model: ``cycles = instructions + penalty * (load misses + store
misses)`` — the simple stall model the profiling extension also uses.
:meth:`PolicyResult.from_stats` is that model, applied to one run's
step count and cache stats wherever they come from: Ablation J reads
them from the pipeline session, where a prefetch-rewritten program is
an ordinary run keyed by its prefetch set, and :func:`compare_policies`
acquires each policy's trace through a store-less
:class:`~repro.store.handle.TraceHandle`.  The three policies are the
ones the paper's introduction contrasts: prefetch nothing, prefetch only
Delta, prefetch every load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.cache.config import BASELINE_CONFIG, CacheConfig
from repro.cache.model import CacheStats, simulate_trace
from repro.prefetch.pass_ import apply_prefetching
from repro.store.handle import TraceHandle

DEFAULT_PENALTY = 30


@dataclass(frozen=True)
class PolicyResult:
    """Measured outcome of one prefetch policy."""

    policy: str
    instructions: int
    load_misses: int
    store_misses: int
    prefetch_ops: int
    cycles: int

    @classmethod
    def from_stats(cls, policy: str, steps: int, stats: CacheStats,
                   penalty: int = DEFAULT_PENALTY) -> "PolicyResult":
        """The cycle model over one run's steps and cache stats."""
        load_misses = stats.total_load_misses
        store_misses = stats.total_store_misses
        return cls(policy=policy, instructions=steps,
                   load_misses=load_misses, store_misses=store_misses,
                   prefetch_ops=stats.prefetch_ops,
                   cycles=steps + penalty * (load_misses + store_misses))


@dataclass
class PrefetchComparison:
    none: PolicyResult
    delta: PolicyResult
    all_loads: PolicyResult

    def speedup(self, policy: PolicyResult) -> float:
        return self.none.cycles / policy.cycles if policy.cycles else 0.0

    def miss_reduction(self, policy: PolicyResult) -> float:
        base = self.none.load_misses
        if base == 0:
            return 0.0
        return 1.0 - policy.load_misses / base

    def render(self) -> str:
        rows = [f"{'policy':16s} {'instructions':>13} {'ld misses':>10} "
                f"{'pref ops':>9} {'cycles':>12} {'speedup':>8}"]
        for result in (self.none, self.delta, self.all_loads):
            rows.append(
                f"{result.policy:16s} {result.instructions:>13,} "
                f"{result.load_misses:>10,} {result.prefetch_ops:>9,} "
                f"{result.cycles:>12,} {self.speedup(result):>7.2f}x")
        return "\n".join(rows)


def policy_prefetches(program: Program, delta: set[int]
                      ) -> dict[str, frozenset[int]]:
    """The PCs each policy prefetches, in :class:`PrefetchComparison`
    order; the empty set is the program as compiled."""
    return {"none": frozenset(),
            "delta-guided": frozenset(delta),
            "all-loads": frozenset(program.load_addresses())}


def compare_policies(program: Program,
                     delta: set[int],
                     cache: CacheConfig = BASELINE_CONFIG,
                     penalty: int = DEFAULT_PENALTY,
                     max_steps: int = 300_000_000) -> PrefetchComparison:
    """Prefetch nothing vs Delta-only vs every load."""
    results = []
    for policy, pcs in policy_prefetches(program, delta).items():
        rewritten = apply_prefetching(program, set(pcs)).program \
            if pcs else program
        handle = TraceHandle(rewritten, policy, max_steps=max_steps)
        stats = handle.replay(lambda source: simulate_trace(source, cache))
        results.append(PolicyResult.from_stats(policy, handle.steps,
                                               stats, penalty))
    return PrefetchComparison(*results)
